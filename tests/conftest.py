"""Shared fixtures: one zero cache, one family, one section grid per session."""

import pytest

from zetacycles.schwartz import canonical_vector, default_family
from zetacycles.sheaf import build_section_grid
from zetacycles.specfun import find_zeros


@pytest.fixture(scope="session")
def family():
    return default_family()


@pytest.fixture(scope="session")
def canonical():
    return canonical_vector()


@pytest.fixture(scope="session")
def zeros60():
    return find_zeros(0.0, 60.0)


@pytest.fixture(scope="session")
def section_grid(zeros60):
    return build_section_grid(60.0, zeros60)
