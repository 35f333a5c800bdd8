"""Shared conventions and the model and protocol dataclasses.

Units: we set 2m = 1 throughout, so a free plane wave of momentum hbar*k
carries kinetic energy hbar^2 k^2.  Planck's constant is kept symbolic
(default 1.0) so the classical-limit diagnostics can dial it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

# 2m = 1 everywhere; MASS is exported for reference-model code (Boltzmann
# weights, convolution references) that wants an explicit m.
MASS = 0.5

# Sentinel for the hard-core (impenetrable) limit.  Solvers special-case it;
# float('inf') arithmetic would otherwise poison the Newton updates.
TG_COUPLING = math.inf


class ConfigError(ValueError):
    """Invalid model/protocol parameters."""


def _check_positive(label: str, value: float) -> None:
    """Raise ConfigError unless value is positive and finite (nan included)."""
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"{label} must be positive, got {value}")


@dataclass(frozen=True)
class Ring:
    """Periodic geometry of circumference `circumference`."""

    circumference: float

    def __post_init__(self):
        _check_positive("ring circumference", self.circumference)

    @property
    def length(self) -> float:
        return self.circumference


@dataclass(frozen=True)
class Box:
    """Hard-wall interval [0, width]."""

    width: float

    def __post_init__(self):
        _check_positive("box width", self.width)

    @property
    def length(self) -> float:
        return self.width


Geometry = Union[Ring, Box]


@dataclass(frozen=True)
class ModelSpec:
    """N bosons with two-body contact coupling C on a ring or in a box.

    `coupling` is the bare contact strength C >= 0 (energy*length with
    2m = 1); `TG_COUPLING` selects the hard-core limit exactly.  The
    fermionic dual of the same spectrum is obtained downstream by the
    odd-wave mapping, not by a separate ModelSpec.
    """

    n_particles: int
    geometry: Geometry
    coupling: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_particles < 1:
            raise ConfigError(f"need at least one particle, got {self.n_particles}")
        if not (self.coupling >= 0):  # also rejects nan
            raise ConfigError(f"contact coupling must be >= 0, got {self.coupling}")
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ConfigError(f"hbar must be positive and finite, got {self.hbar}")

    @property
    def length(self) -> float:
        return self.geometry.length

    @property
    def is_hard_core(self) -> bool:
        return math.isinf(self.coupling)


@dataclass(frozen=True)
class DimensionlessCoupling:
    """alpha = m lambda C / hbar^2, the single parameter of the uniform gas."""

    alpha: float

    def coupling(self, length: float, hbar: float = 1.0) -> float:
        if math.isinf(self.alpha):
            return TG_COUPLING
        return self.alpha * hbar**2 / (MASS * length)


# ---------------------------------------------------------------------------
# Quench / ramp protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Adiabatic:
    """Quasistatic volume change L_i -> L_f; populations ride their levels."""

    lambda_initial: float
    lambda_final: float

    def __post_init__(self):
        _check_positive("lambda_initial", self.lambda_initial)
        _check_positive("lambda_final", self.lambda_final)


@dataclass(frozen=True)
class SuddenWall:
    """Instantaneous box expansion L_i -> L_f (L_f >= L_i: old states embed)."""

    lambda_initial: float
    lambda_final: float

    def __post_init__(self):
        _check_positive("lambda_initial", self.lambda_initial)
        _check_positive("lambda_final", self.lambda_final)
        if self.lambda_final < self.lambda_initial:
            raise ConfigError("sudden compression not supported: final width < initial width")


@dataclass(frozen=True)
class SuddenCoupling:
    """Instantaneous interaction quench C_i -> C_f at fixed geometry."""

    coupling_initial: float
    coupling_final: float

    def __post_init__(self):
        for name in ("coupling_initial", "coupling_final"):
            v = getattr(self, name)
            if not (v >= 0):
                raise ConfigError(f"{name} must be >= 0, got {v}")


@dataclass(frozen=True)
class LinearRamp:
    """Wall moved at constant speed: L(t) = L_i + v t for t in [0, duration]."""

    lambda_initial: float
    speed: float
    duration: float

    def __post_init__(self):
        _check_positive("lambda_initial", self.lambda_initial)
        if not math.isfinite(self.speed):
            raise ConfigError(f"speed must be finite, got {self.speed}")
        _check_positive("duration", self.duration)
        if self.lambda_final <= 0:
            raise ConfigError("ramp collapses the box: L_i + v*tau <= 0")

    @property
    def lambda_final(self) -> float:
        return self.lambda_initial + self.speed * self.duration
