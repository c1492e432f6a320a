"""Numerical detection of zeta cycles.

Scale-invariant summation operators on test functions, Fourier analysis on
circles of varying perimeter, a scan that locates the perimeters whose
detection matrix collapses, and the spectral layers built on top: the
quotient Laplacian over the located zeros and the jet calculus of global
sections.

The public names are those each submodule lists in its own __all__; import
them from there (`from zetacycles.cycles import scan`).
"""

__version__ = "0.1.0"
