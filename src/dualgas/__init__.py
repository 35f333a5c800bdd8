"""Spectra, work statistics, and thermodynamics of 1-D contact gases and their duals."""

from .core import (
    TG_COUPLING,
    Box,
    ConfigError,
    DimensionlessCoupling,
    LinearRamp,
    ModelSpec,
)

__version__ = "0.1.0"
