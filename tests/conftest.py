"""Shared fixtures: one zero cache, one family, one section grid per session."""

import math

import pytest

from zetacycles.schwartz import TestFunction, default_family
from zetacycles.sheaf import build_section_grid
from zetacycles.specfun import find_zeros


@pytest.fixture(scope="session")
def family():
    return default_family()


@pytest.fixture(scope="session")
def canonical():
    """(2 pi x^2 - 1) exp(-pi x^2): mean-zero but with f(0) = -1, so outside
    the f_k family; its transform is (1/4) pi^(-1/4+iz/2) (-1-2iz) Gamma(1/4-iz/2)."""
    return TestFunction((-1.0, 2.0 * math.pi), label="canonical")


@pytest.fixture(scope="session")
def zeros60():
    return find_zeros(0.0, 60.0)


@pytest.fixture(scope="session")
def section_grid(zeros60):
    return build_section_grid(60.0, zeros60)
