"""Spectra, work statistics, and thermodynamics of 1-D contact gases and their duals."""

from .core import (
    TG_COUPLING,
    Adiabatic,
    Box,
    ConfigError,
    DimensionlessCoupling,
    LinearRamp,
    ModelSpec,
    Ring,
    SuddenCoupling,
    SuddenWall,
    exchange_sign_grid,
)

__version__ = "0.1.0"
