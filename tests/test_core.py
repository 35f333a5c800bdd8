import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualgas import eos, ringspec, work
from dualgas.core import BoxPair, ConfigError, LinearRamp, alpha_coupling

import oracles


def test_mass_convention():
    # 2m = 1: alpha = m lam C / hbar^2 = lam C / (2 hbar^2), so alpha 5 in
    # the unit box is C = 10
    assert alpha_coupling(5, 1, 1) == 10.0


def test_model_validation():
    with pytest.raises(ConfigError):
        BoxPair(1.0, -1.0)
    with pytest.raises(ConfigError):
        BoxPair(1.0, 1.0, hbar=0.0)
    with pytest.raises(ConfigError):
        BoxPair(-2.0, 1.0)
    # width, then coupling, then hbar: the first invalid one is named
    with pytest.raises(ConfigError, match="box width"):
        BoxPair(0.0, -1.0, 0.0)
    with pytest.raises(ConfigError, match="contact coupling"):
        BoxPair(1.0, -1.0, 0.0)
    m = BoxPair(3.0, math.inf)
    assert m.is_hard_core and m.length == 3.0


def test_alpha_round_trip():
    assert alpha_coupling(math.inf, 1.0) == math.inf
    # hbar^2 underflows to 0 here, and inf * 0 would be nan
    assert alpha_coupling(math.inf, 1.0, 1e-200) == math.inf


@given(st.floats(0.1, 50.0), st.floats(0.1, 5.0), st.floats(0.05, 3.0))
def test_alpha_scaling(alpha, lam, hbar):
    # alpha is the only invariant: C scales like hbar^2 / lam, bit for bit
    # as the expression that C has always been computed by
    assert alpha_coupling(alpha, lam, hbar) == alpha * hbar**2 / (0.5 * lam)


def test_protocol_validation():
    with pytest.raises(ConfigError):
        work.adiabatic_box_drive(1.0, -2.0, 1.0, 4)
    with pytest.raises(ConfigError, match="sudden compression"):
        work.sudden_wall_drive(2.0, 1.0, 1.0, 4)  # compression has no embedding
    with pytest.raises(ConfigError):
        work.sudden_coupling_drive(1.0, -1.0, 2.0, 4)
    with pytest.raises(ConfigError):
        LinearRamp(1.0, 5.0, -1.0)
    ramp = LinearRamp(1.0, 5.0, 1.0)
    assert ramp.lambda_final == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# one rule per input: every entry point that takes beta, C, hbar or a width
# applies core's check_positive or check_coupling on entry, and so does the
# distinguishable-particle reference the tests compare against
# ---------------------------------------------------------------------------

RING = "ring circumference"
C = "contact coupling"
LAM_I, LAM_F = "lambda_initial", "lambda_final"
RAMP = LinearRamp(1.0, 5.0, 0.1)

# (name, function, valid keyword arguments, {positive parameter: label},
#  {coupling parameter: label})
ENTRY_POINTS = [
    ("ringspec.theta", ringspec.theta, dict(k=0.5, coupling=1.0, hbar=1.0),
     {"hbar": "hbar"}, {"coupling": C}),
    ("ringspec.theta_prime", ringspec.theta_prime, dict(k=0.5, coupling=1.0, hbar=1.0),
     {"hbar": "hbar"}, {"coupling": C}),
    ("ringspec.solve_bethe_batch", ringspec.solve_bethe_batch,
     dict(quantum_numbers=[[-0.5, 0.5]], lam=1.0, coupling=1.0, hbar=1.0),
     {"lam": RING, "hbar": "hbar"}, {"coupling": C}),
    ("ringspec.enumerate_states", ringspec.enumerate_states,
     dict(lam=1.0, coupling=1.0, n_particles=2, i_max=2.5, hbar=1.0),
     {"lam": RING, "hbar": "hbar"}, {"coupling": C}),
    ("ringspec.spectral_tail_bound", ringspec.spectral_tail_bound,
     dict(lam=1.0, n_particles=2, i_max=2.5, beta=1.0, hbar=1.0),
     {"lam": RING, "beta": "beta", "hbar": "hbar"}, {}),
    ("eos.default_grid", eos.default_grid, dict(beta=1.0, mu=-1.0, coupling=1.0, hbar=1.0),
     {"beta": "beta", "hbar": "hbar"}, {"coupling": C}),
    ("eos.solve_yang_yang", eos.solve_yang_yang,
     dict(beta=1.0, mu=-1.0, coupling=1.0, hbar=1.0, k_max=6.0),
     {"beta": "beta", "hbar": "hbar", "k_max": "k_max"}, {"coupling": C}),
    ("eos.fugacity_coefficients", eos.fugacity_coefficients,
     dict(beta=1.0, coupling=1.0, hbar=1.0), {"beta": "beta", "hbar": "hbar"}, {"coupling": C}),
    ("eos.virial_ratio", eos.virial_ratio,
     dict(beta=1.0, coupling=1.0, density_target=0.1, hbar=1.0),
     {"beta": "beta", "density_target": "density_target", "hbar": "hbar"}, {"coupling": C}),
    ("work.box_tail_bound", work.box_tail_bound, dict(lam=1.0, cutoff=4, beta=1.0, hbar=1.0),
     {"lam": "box width", "beta": "beta", "hbar": "hbar"}, {}),
    ("oracles.ndp_reference", oracles.ndp_reference,
     dict(lam_i=1.0, lam_f=2.0, beta=1.0, n_particles=2, hbar=1.0),
     {"lam_i": LAM_I, "lam_f": LAM_F, "beta": "beta", "hbar": "hbar"}, {}),
    ("work.adiabatic_ring_drive", work.adiabatic_ring_drive,
     dict(lam_i=1.0, lam_f=2.0, coupling=1.0, n_particles=2, i_max=2.5, hbar=1.0),
     {"lam_i": LAM_I, "lam_f": LAM_F, "hbar": "hbar"}, {"coupling": C}),
    ("work.adiabatic_box_drive", work.adiabatic_box_drive,
     dict(lam_i=1.0, lam_f=2.0, coupling=1.0, cutoff=4, hbar=1.0),
     {"lam_i": LAM_I, "lam_f": LAM_F, "hbar": "hbar"}, {"coupling": C}),
    ("work.sudden_wall_drive", work.sudden_wall_drive,
     dict(lam_i=1.0, lam_f=2.0, coupling=1.0, cutoff=4, hbar=1.0),
     {"lam_i": LAM_I, "lam_f": LAM_F, "hbar": "hbar"}, {"coupling": C}),
    ("work.sudden_coupling_drive", work.sudden_coupling_drive,
     dict(lam=1.0, coupling_i=1.0, coupling_f=2.0, cutoff=4, hbar=1.0),
     {"lam": "box width", "hbar": "hbar"},
     {"coupling_i": "coupling_initial", "coupling_f": "coupling_final"}),
    ("work.ramp_drive", work.ramp_drive, dict(ramp=RAMP, coupling=1.0, cutoff=4, hbar=1.0),
     {"hbar": "hbar"}, {"coupling": C}),
    ("work.propagate_ramp", work.propagate_ramp,
     dict(ramp=RAMP, coupling=1.0, cutoff=4, hbar=1.0), {"hbar": "hbar"}, {"coupling": C}),
    ("work.Drive.at", lambda beta: work.Drive(np.zeros(1), np.zeros(1), None, lambda b: 0.0).at(beta),
     dict(beta=1.0), {"beta": "beta"}, {}),
    ("core.BoxPair", BoxPair, dict(length=1.0, coupling=1.0, hbar=1.0),
     {"length": "box width", "hbar": "hbar"}, {"coupling": C}),
    ("core.LinearRamp", LinearRamp, dict(lambda_initial=1.0, speed=5.0, duration=1.0),
     {"lambda_initial": LAM_I, "duration": "duration"}, {}),
]

# a positive parameter refuses all four; a coupling takes 0 and inf as physics
REFUSED = {"positive": (math.nan, -1.0, 0.0, math.inf), "coupling": (math.nan, -1.0)}
ENTRY_CASES = [
    pytest.param(fn, {**kwargs, param: value}, label, value, id=f"{name}-{param}={value}")
    for name, fn, kwargs, positive, coupling in ENTRY_POINTS
    for kind, params in (("positive", positive), ("coupling", coupling))
    for param, label in params.items()
    for value in REFUSED[kind]
] + [
    # the dressed-energy grid's point count: an integer of at least 3
    pytest.param(eos.solve_yang_yang, dict(beta=1.0, mu=-1.0, coupling=1.0, n_k=value),
                 "n_k", value, id=f"eos.solve_yang_yang-n_k={value}")
    for value in (1, 2, -1, 3.0, math.nan)
]


@pytest.mark.parametrize("fn, kwargs, label, value", ENTRY_CASES)
def test_every_entry_point_refuses_an_invalid_input_naming_it(fn, kwargs, label, value):
    with pytest.raises(ConfigError) as err:
        fn(**kwargs)
    assert f"{label} must" in str(err.value) and f"got {value}" in str(err.value)
