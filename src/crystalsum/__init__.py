"""Fourier summation pairs: exponential-sum algebra, Hermite-Biehler
structure, Bohr spectra, de Branges kernels, exact eta-product q-series,
self-dual measures, and two-sided verification of summation identities."""

__version__ = "0.1.0"
