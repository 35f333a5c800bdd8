import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualgas.core import (
    MASS,
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
)


def test_mass_convention():
    assert MASS == 0.5
    assert math.isinf(TG_COUPLING)


def test_model_validation():
    with pytest.raises(ConfigError):
        ModelSpec(0, Ring(1.0), 1.0)
    with pytest.raises(ConfigError):
        ModelSpec(2, Ring(1.0), -1.0)
    with pytest.raises(ConfigError):
        ModelSpec(2, Ring(1.0), 1.0, hbar=0.0)
    with pytest.raises(ConfigError):
        Ring(-2.0)
    m = ModelSpec(2, Box(3.0), TG_COUPLING)
    assert m.is_hard_core and m.length == 3.0


def test_alpha_round_trip():
    # alpha = m lam C / hbar^2: alpha 5 in the unit box is C = 10
    assert DimensionlessCoupling(5.0).coupling(1.0, 1.0) == pytest.approx(10.0)
    assert DimensionlessCoupling(math.inf).coupling(1.0) == TG_COUPLING


@given(st.floats(0.1, 50.0), st.floats(0.1, 5.0), st.floats(0.05, 3.0))
def test_alpha_scaling(alpha, lam, hbar):
    # alpha is the only invariant: C scales like hbar^2 / lam.
    c = DimensionlessCoupling(alpha).coupling(lam, hbar)
    assert c == pytest.approx(alpha * hbar**2 / (MASS * lam))


def test_protocol_validation():
    with pytest.raises(ConfigError):
        Adiabatic(1.0, -2.0)
    with pytest.raises(ConfigError):
        SuddenWall(2.0, 1.0)  # compression has no embedding
    with pytest.raises(ConfigError):
        SuddenCoupling(-1.0, 2.0)
    with pytest.raises(ConfigError):
        LinearRamp(1.0, 5.0, -1.0)
    ramp = LinearRamp(1.0, 5.0, 1.0)
    assert ramp.lambda_final == pytest.approx(6.0)
