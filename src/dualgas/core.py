"""Shared conventions, the box pair and the wall ramp.

Units: we set 2m = 1 throughout, so a free plane wave of momentum hbar*k
carries kinetic energy hbar^2 k^2.  Planck's constant is kept symbolic
(default 1.0) so the classical-limit diagnostics can dial it.  The
hard-core (impenetrable) limit is the coupling math.inf, which every
solver takes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Invalid model/protocol parameters."""


# The only two validity rules for a physical parameter.  Every entry point
# that takes beta, C, hbar or a width applies them; `ringspec` and `eos`
# add their own C = 0 rules, which are physics, not validity.


def check_positive(label: str, value: float) -> None:
    """Raise ConfigError unless value is positive and finite (nan refused)."""
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"{label} must be positive and finite, got {value}")


def check_coupling(label: str, value: float) -> None:
    """Raise ConfigError unless the contact strength is >= 0 or inf (nan refused)."""
    if not value >= 0:
        raise ConfigError(f"{label} must be >= 0, got {value}")


@dataclass(frozen=True)
class BoxPair:
    """Two bosons with contact coupling C in the hard-wall box [0, length].

    `coupling` is the bare contact strength C >= 0 (energy*length with
    2m = 1); math.inf selects the hard-core limit exactly.  The fermionic
    dual of the same spectrum is obtained downstream by the odd-wave
    mapping, not by a separate model.
    """

    length: float
    coupling: float
    hbar: float = 1.0

    def __post_init__(self):
        check_positive("box width", self.length)
        check_coupling("contact coupling", self.coupling)
        check_positive("hbar", self.hbar)

    @property
    def is_hard_core(self) -> bool:
        return math.isinf(self.coupling)


def alpha_coupling(alpha: float, length: float, hbar: float = 1.0) -> float:
    """C from alpha = m lambda C / hbar^2, the single parameter of the
    uniform gas (m = 1/2); alpha = inf is the hard-core C = inf."""
    if math.isinf(alpha):  # inf * hbar**2 is nan once hbar**2 underflows
        return math.inf
    return alpha * hbar**2 / (0.5 * length)


# ---------------------------------------------------------------------------
# Wall ramp
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearRamp:
    """Wall moved at constant speed: L(t) = L_i + v t for t in [0, duration]."""

    lambda_initial: float
    speed: float
    duration: float

    def __post_init__(self):
        check_positive("lambda_initial", self.lambda_initial)
        if not math.isfinite(self.speed):
            raise ConfigError(f"speed must be finite, got {self.speed}")
        check_positive("duration", self.duration)
        if self.lambda_final <= 0:
            raise ConfigError("ramp collapses the box: L_i + v*tau <= 0")

    @property
    def lambda_final(self) -> float:
        return self.lambda_initial + self.speed * self.duration
