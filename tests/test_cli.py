import json

import pytest

from conftest import run_cli as run


def test_ring_spectrum_artifacts_and_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        r = run(["ring-spectrum", "--n", "2", "--imax", "9.5", "--out-dir", "."], d)
        assert r.returncode == 0, r.stderr
    csv_a = (a / "ring_spectrum.csv").read_bytes()
    assert csv_a == (b / "ring_spectrum.csv").read_bytes()
    lines = csv_a.decode().splitlines()
    meta = dict(
        ln[2:].split(" = ", 1) for ln in lines if ln.startswith("# ")
    )
    assert meta["state_count"] == "190"
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",")[:3] == ["index", "energy", "momentum"]
    n_rows = sum(1 for ln in lines if not ln.startswith("#")) - 1
    assert n_rows == 190
    assert (a / "ring_spectrum_config.json").exists()


def test_invalid_arguments_exit_two(tmp_path):
    r = run(["ring-spectrum", "--n", "0"], tmp_path)
    assert r.returncode == 2
    assert r.stderr.strip() != ""
    r = run(["eos", "--mu-grid", "nonsense"], tmp_path)
    assert r.returncode == 2
    r = run(
        ["work", "--geometry", "ring", "--protocol", "ramp", "--m", "6"], tmp_path
    )
    assert r.returncode == 2  # no ramp route on the ring


def test_failed_solve_exits_three(tmp_path):
    # mu past the degenerate edge: the dressed-energy sheet has terminated
    r = run(["eos", "--beta", "1", "--c", "1", "--mu-grid", "3:3:1"], tmp_path)
    assert r.returncode == 3
    assert "converged" in r.stderr or "residual" in r.stderr


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nn = 2\nimax = 3.5\nlambda = 1.0\n")
    r = run(
        ["ring-spectrum", "--config", "run.cfg", "--imax", "2.5", "--out-dir", "."],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    saved = json.loads((tmp_path / "ring_spectrum_config.json").read_text())
    assert saved["imax"] == 2.5  # flag beats file
    assert saved["n"] == 2

    cfg.write_text("nonsense_key = 1\n")
    r = run(["ring-spectrum", "--config", "run.cfg"], tmp_path)
    assert r.returncode == 2


def test_work_summary_contents(tmp_path):
    r = run(
        [
            "work", "--geometry", "box", "--protocol", "adiabatic",
            "--lambda-i", "1", "--lambda-f", "2", "--c", "1",
            "--beta", "1", "--m", "10",
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "work_summary.json").read_text())
    for key in ("mass", "mean_work", "jarzynski_residual", "atom_count", "tail_mass"):
        assert key in summary
    assert summary["jarzynski_residual"] < 1e-10
    assert (tmp_path / "work_atoms.csv").exists()


@pytest.mark.parametrize(
    "coupling, route", [("1", "galerkin-sudden-wall"), ("inf", "hardcore-sudden-wall")]
)
def test_sudden_wall_work_runs_on_both_routes(tmp_path, coupling, route):
    r = run(
        ["work", "--geometry", "box", "--protocol", "sudden-wall",
         "--c", coupling, "--m", "8"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    summary = json.loads((tmp_path / "work_summary.json").read_text())
    assert summary["route"] == route
    assert (summary["cutoff_i"], summary["cutoff_f"]) == (8, 16)
    assert 0.0 <= summary["transition_deficit"] < 1.0


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_nan_or_negative_coupling_exits_two(tmp_path, value):
    r = run(["ring-spectrum", "--c", value, "--out-dir", "."], tmp_path)
    assert r.returncode == 2
    assert "coupling" in r.stderr
    assert not (tmp_path / "ring_spectrum.csv").exists()


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_beta_not_positive_and_finite_exits_two(tmp_path, value):
    r = run(["work", "--beta", value, "--m", "6", "--out-dir", "."], tmp_path)
    assert r.returncode == 2
    assert "beta" in r.stderr
    assert not (tmp_path / "work_summary.json").exists()


def test_density_profile_files_show_duality(tmp_path):
    r = run(
        ["fig1", "--m", "16", "--n-grid", "65", "--n-k", "81", "--n-x", "97"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    ground_b = (tmp_path / "fig1_ground_spatial_boson.csv").read_bytes()
    ground_f = (tmp_path / "fig1_ground_spatial_fermion.csv").read_bytes()
    # spatial profiles are statistics-blind...
    assert strip_meta(ground_b) == strip_meta(ground_f)
    # ...momentum profiles are not
    mom_b = strip_meta((tmp_path / "fig1_ground_momentum_boson.csv").read_bytes())
    mom_f = strip_meta((tmp_path / "fig1_ground_momentum_fermion.csv").read_bytes())
    assert mom_b != mom_f
    assert (tmp_path / "fig1_ground_spatial_boson.svg").exists()


def strip_meta(raw: bytes) -> list:
    return [ln for ln in raw.decode().splitlines() if not ln.startswith("#")]


def test_duality_check_passes(tmp_path):
    r = run(["duality-check", "--m", "16", "--states", "2"], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads((tmp_path / "duality_report.json").read_text())
    assert rep["passed"] is True
    assert rep["max_spatial_l1"] < 1e-10


def test_convergence_report(tmp_path):
    r = run(["convergence", "--m-list", "8,16", "--n-levels", "3"], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads((tmp_path / "convergence_report.json").read_text())
    assert rep["energies_nonincreasing"] is True
    assert rep["cusp_decreasing"] is True


def test_hard_core_work_summary_is_strict_json(tmp_path):
    r = run(
        ["work", "--geometry", "box", "--protocol", "sudden-wall",
         "--c", "inf", "--m", "6"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    summary = json.loads(
        (tmp_path / "work_summary.json").read_text(), parse_constant=reject
    )
    assert summary["c"] == "inf"
