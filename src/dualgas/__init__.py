"""Spectra, work statistics, and thermodynamics of 1-D contact gases and their duals."""

from .core import BoxPair, ConfigError, LinearRamp, alpha_coupling

__version__ = "0.1.0"
