import json
import math
import re
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli as run
from conftest import run_python, svg_curve
from dualgas import boxspec, cli, output
from dualgas.core import BoxPair


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


@pytest.mark.parametrize("argv, given", [
    (["fig1", "--c", "0", "--m", "4"], "--c 0"),  # once read as --config 0
    (["box-spectrum", "--alph", "5", "--m", "4"], "--alph 5"),  # once read as --alpha 5
])
def test_flag_prefix_is_not_a_flag(tmp_path, capsys, argv, given):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {given}" in capsys.readouterr().err


def test_readme_cli_block_runs(tmp_path):
    # every command of the two code blocks under README's "## CLI", as
    # written but in-process, each with its --out-dir moved under tmp_path
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```\n(.*?)```", text.split("## CLI\n", 1)[1], re.S)[:2]
    lines = [ln for b in blocks for ln in b.splitlines() if not ln.startswith("#")]
    assert len(lines) >= 16
    named = set()
    for i, line in enumerate(lines):
        argv = shlex.split(line)
        assert argv[:3] == ["python", "-m", "dualgas"], line
        argv = argv[3:]
        at = argv.index("--out-dir") + 1
        out = tmp_path / str(i) / argv[at]
        argv[at] = str(out)
        assert cli.main(argv) == 0, line
        assert any(p.is_file() for p in out.iterdir()), line
        named.add(argv[0])
    assert named == set(cli._COMMANDS)


def test_negative_grid_start_after_a_space(tmp_path):
    # argparse alone reads "-4:0:3" as a flag and exits 2
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    for d, grid in ((spaced, ["--mu-grid", "-4:0:3"]), (joined, ["--mu-grid=-4:0:3"])):
        r = run(["eos", *grid, "--out-dir", str(d)], tmp_path)
        assert r.returncode == 0, r.stderr
    names = sorted(p.name for p in spaced.iterdir())
    assert names == sorted(p.name for p in joined.iterdir()) and names
    for name in names:
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()


# what a process loads of the package, and whether it loads
# concurrent.futures, printed as the last two lines of its output
SCOPE_PRINT = (
    "print(*sorted(m for m in sys.modules if m.startswith('dualgas')))\n"
    "print('concurrent.futures' in sys.modules)\n"
)
FRONT_END = {"dualgas", "dualgas.cli", "dualgas.core", "dualgas.output"}


def test_cli_import_loads_no_scipy(tmp_path):
    # importing any scipy subpackage costs about 0.4 s of every start-up;
    # no module of the package imports scipy (test_package.py scans them).
    # The front end alone loads no compute module, and --help runs none
    code = (
        "import sys, dualgas.cli\n"
        "print(*sorted(sys.modules))\n"
        + SCOPE_PRINT
        + "try:\n"
        "    dualgas.cli.main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        + SCOPE_PRINT
    )
    r = run_python(["-c", code], tmp_path)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    loaded = lines[0].split()
    assert "dualgas.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    for package, futures in (lines[1:3], lines[-2:]):
        assert set(package.split()) == FRONT_END
        assert futures == "False"


BOX_AND_RING_COMMANDS = {
    "box-spectrum": ["box-spectrum", "--alpha", "5", "--m", "6", "--n-levels", "3"],
    "convergence": ["convergence", "--m-list", "4,6"],
    "duality-check": ["duality-check", "--m", "6", "--states", "2"],
    "fig1": ["fig1", "--m", "6"],
    "work-ramp": ["work", "--geometry", "box", "--protocol", "ramp", "--v", "5",
                  "--tau", "0.2", "--m", "4"],
    "work-sudden-coupling": ["work", "--geometry", "box", "--protocol",
                             "sudden-coupling", "--c", "1", "--c-f", "10", "--m", "6"],
    "work-box-adiabatic": ["work", "--geometry", "box", "--protocol", "adiabatic",
                           "--m", "6"],
    "fig2": ["fig2", "--c-list", "1", "--beta-list", "1", "--m", "4", "--tau", "0.2"],
    "ring-spectrum": ["ring-spectrum", "--n", "2", "--imax", "3.5"],
    "work-ring-adiabatic": ["work", "--geometry", "ring", "--protocol", "adiabatic",
                            "--n", "2", "--imax", "3.5"],
}


# the isotherm, the cluster coefficients and the density inversion
EOS_ARGV = ["eos", "--mu-grid=-1:0:3", "--hbar-sweep", "1,0.5", "--density", "0.1"]


# the compute modules each command loads besides the front end: `work`
# imports `boxspec` and `ringspec` itself
COMMAND_MODULES = {
    "eos": {"eos"},
    "ring-spectrum": {"ringspec"},
    **dict.fromkeys(["box-spectrum", "fig1", "duality-check", "convergence"],
                    {"boxspec"}),
    **dict.fromkeys(["work", "fig2"], {"work", "boxspec", "ringspec"}),
}


def assert_module_scope(argv, tmp_path):
    # every command runs on numpy alone, so a scipy import anywhere on its
    # path fails here and names the module; a command loads only its own
    # modules, and no thread pool at one thread
    code = (
        "import sys\n"
        "from dualgas import cli\n"
        "rc = cli.main(sys.argv[1:])\n"
        "print('scipy:', *sorted(m for m in sys.modules\n"
        "                         if m == 'scipy' or m.startswith('scipy.')))\n"
        + SCOPE_PRINT
        + "raise SystemExit(rc)\n"
    )
    r = run_python(["-c", code, *argv, "--out-dir", str(tmp_path)], tmp_path)
    assert r.returncode == 0, r.stderr
    scipy, package, futures = r.stdout.splitlines()[-3:]
    assert scipy == "scipy:"
    expected = FRONT_END | {f"dualgas.{m}" for m in COMMAND_MODULES[argv[0]]}
    assert set(package.split()) == expected
    assert futures == "False"


@pytest.mark.parametrize("argv", BOX_AND_RING_COMMANDS.values(), ids=BOX_AND_RING_COMMANDS)
def test_box_and_ring_commands_load_no_scipy(argv, tmp_path):
    assert_module_scope(argv, tmp_path)


def test_eos_command_loads_no_scipy(tmp_path):
    assert_module_scope(EOS_ARGV, tmp_path)


def test_scipy_guard_covers_every_command():
    guarded = {argv[0] for argv in [*BOX_AND_RING_COMMANDS.values(), EOS_ARGV]}
    assert guarded == set(cli._COMMANDS) == set(COMMAND_MODULES)


def test_failed_solve_exits_three(tmp_path):
    # so deep in the degenerate regime that the contraction is too slow to
    # converge within the iteration cap
    r = run(["eos", "--beta", "1", "--c", "1", "--mu-grid", "400:400:1"], tmp_path)
    assert r.returncode == 3
    assert "converged" in r.stderr or "residual" in r.stderr
    # so dilute that D(mu) underflows to 0 before the inversion reaches it:
    # the least subnormal (the filling keeps its tail, so 1e-300 converges)
    r = run(["eos", "--mu-grid=-1:0:2", "--hbar-sweep", "1", "--density", "5e-324"],
            tmp_path)
    assert r.returncode == 3
    assert "density inversion" in r.stderr


def test_ring_tail_bound_past_its_term_cap_exits_three(tmp_path, capsys):
    # the series of the ring's tail bound has not closed by its term cap
    # at beta = 1e-9: its partial sum would understate tail_mass by 58 %
    argv = ["work", "--geometry", "ring", "--protocol", "adiabatic", "--n", "3",
            "--c", "1", "--beta", "1e-9", "--imax", "12", "--lambda-i", "20",
            "--lambda-f", "40", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "numeric failure: the ring tail bound did not close" in capsys.readouterr().err
    assert not (tmp_path / "work_summary.json").exists()


def test_linalg_error_exits_three(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet a failed factorization is a
    # numeric failure, not a configuration error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(boxspec.np.linalg, "eigh", fail)
    argv = ["box-spectrum", "--alpha", "5", "--m", "4", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "numeric failure: Eigenvalues did not converge" in capsys.readouterr().err


def test_unconverged_krylov_solve_exits_three(tmp_path, capsys, monkeypatch):
    # M = 60 takes the few-levels Krylov solve; one step cannot converge
    monkeypatch.setattr(boxspec, "_KRYLOV_STEPS", 1)
    argv = ["box-spectrum", "--alpha", "5", "--m", "60", "--n-levels", "2",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "numeric failure: the Krylov solve of the 2 lowest levels did not converge" in (
        capsys.readouterr().err)
    assert not (tmp_path / "box_spectrum.csv").exists()


def test_unresolved_strong_coupling_exits_three(tmp_path, capsys):
    # at alpha = 1e14 the contact swamps the kinetic scale in double
    # precision: E1 is off by about 1 %, and the residual gate says so
    out = ["--out-dir", str(tmp_path)]
    assert cli.main(["box-spectrum", "--alpha", "1e14", "--m", "20", *out]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: eigen-residual" in err and "--c inf" in err
    assert not (tmp_path / "box_spectrum.csv").exists()
    assert cli.main(["box-spectrum", "--alpha", "1e6", "--m", "20", *out]) == 0


def test_adiabatic_box_route_refuses_unresolved_strong_coupling(tmp_path, capsys):
    # the route solves its levels without eigenvectors, and the six lowest
    # with them: their residual gate still refuses C = 1e10 at M = 20
    out = ["--out-dir", str(tmp_path)]
    box = ["work", "--geometry", "box", "--protocol", "adiabatic"]
    assert cli.main([*box, "--c", "1e10", "--m", "20", *out]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: eigen-residual" in err and "--c inf" in err
    assert not (tmp_path / "work_summary.json").exists()
    assert cli.main([*box, "--c", "1e9", "--m", "40", *out]) == 0


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


# Cold drives whose <exp(-beta W)> leaves double range, above or below,
# while its ratio to Z_f / Z_i stays 1: each once wrote a residual of inf.
COLD = [
    "work --beta 100 --m 8",
    "work --lambda-f 0.5 --beta 100 --m 8",
    "work --protocol sudden-coupling --c 1 --c-f 10 --beta 200 --m 8",
    "fig2 --c-list 1 --beta-list 100 --m 4 --tau 0.05",
]


@pytest.mark.parametrize("argv", COLD)
def test_jarzynski_residual_is_read_in_log_space(tmp_path, argv):
    r = run([*shlex.split(argv), "--out-dir", "."], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "RuntimeWarning" not in r.stderr, r.stderr
    if argv.startswith("fig2"):
        residuals = [json.loads((tmp_path / "fig2_report.json").read_text())
                     ["c=1"]["beta=100"]["jarzynski_residual"]]
    else:
        residuals = [json.loads((tmp_path / "work_summary.json").read_text())
                     ["jarzynski_residual"]]
    assert all(isinstance(x, float) and x <= 1e-10 for x in residuals), residuals


def test_cold_work_summary_holds_only_finite_numbers(tmp_path):
    # <exp(-beta W)> leaves double range here, and was written as "inf":
    # the summary carries its logarithm instead
    assert cli.main(["work", "--beta", "100", "--m", "8", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "work_summary.json"
    assert _non_finite_values(path, set()) == []
    assert math.isfinite(json.loads(path.read_text())["ln_jarzynski_average"])


def _atom_rows(path):
    body = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in body[1:]]


def test_work_atoms_written_only_where_they_carry_mass(tmp_path):
    # the coupling quench keeps centre-reflection parity, so most of its
    # transitions have probability exactly 0
    argv = ["work", "--protocol", "sudden-coupling", "--c-f", "5", "--m", "8",
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    rows = _atom_rows(tmp_path / "work_atoms.csv")
    summary = json.loads((tmp_path / "work_summary.json").read_text())
    assert len(rows) == summary["atom_count"] > 0
    assert all(float(p) > 0.0 for _, p in rows)
    assert sum(float(p) for _, p in rows) == pytest.approx(summary["mass"], abs=1e-12)

    fig2 = tmp_path / "fig2"
    argv = ["fig2", "--m", "4", "--c-list", "1", "--beta-list", "1",
            "--tau", "0.1", "--out-dir", str(fig2)]
    assert cli.main(argv) == 0
    rows = _atom_rows(fig2 / "fig2_C1_beta1.csv")
    report = json.loads((fig2 / "fig2_report.json").read_text())
    assert len(rows) == report["c=1"]["beta=1"]["atom_count"]
    assert all(float(p) > 0.0 for _, p in rows)


def test_fig2_weighs_one_drive_per_coupling(tmp_path, monkeypatch):
    # levels do not depend on beta: each coupling diagonalizes its two boxes
    # once, however many temperatures weigh them
    couplings = []
    diagonalize = boxspec.diagonalize

    def counted(model, *args, **kwargs):
        couplings.append(model.coupling)
        return diagonalize(model, *args, **kwargs)

    monkeypatch.setattr(boxspec, "diagonalize", counted)
    argv = ["fig2", "--protocol", "adiabatic", "--m", "4", "--c-list", "1,2",
            "--beta-list", "1,0.1,0.01", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert sorted(couplings) == [1.0, 1.0, 2.0, 2.0]


# the hard-core pair (C = inf) takes the same route on its antisymmetric pairs
@pytest.mark.parametrize(
    "coupling, route", [("1", "galerkin-sudden-wall"), ("inf", "galerkin-sudden-wall")]
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
    raw_b = (tmp_path / "fig1_ground_momentum_boson.csv").read_bytes()
    raw_f = (tmp_path / "fig1_ground_momentum_fermion.csv").read_bytes()
    assert strip_meta(raw_b) != strip_meta(raw_f)
    # the headers carry the window mass and the contact tail beside it
    tail_b, tail_f = (float(meta_lines(raw)["contact_tail"]) for raw in (raw_b, raw_f))
    assert tail_b == 0.0 < tail_f
    assert "window_mass" in meta_lines(raw_f)
    assert (tmp_path / "fig1_ground_spatial_boson.svg").exists()


def test_fig1_svgs_draw_their_csv_curves(tmp_path):
    r = run(["fig1", "--m", "8", "--n-grid", "33", "--n-k", "41", "--n-x", "49"],
            tmp_path)
    assert r.returncode == 0, r.stderr
    svgs = sorted(tmp_path.glob("fig1_*.svg"))
    assert len(svgs) == 8
    for svg in svgs:
        text = svg.read_text()
        assert text.count("<polyline") == 1 and "<rect" not in text
        rows = strip_meta(svg.with_suffix(".csv").read_bytes())[1:]
        axis, density = np.array([[float(v) for v in row.split(",")] for row in rows]).T
        labels, pts = svg_curve(svg)
        assert labels == {"x-lo": axis[0], "x-hi": axis[-1], "y-hi": density.max()}
        # points have two decimals: each is within 0.005 of its exact place
        dx = (labels["x-hi"] - labels["x-lo"]) / (output._RIGHT - output._LEFT)
        dy = labels["y-hi"] / (output._BOTTOM - output._TOP)
        x = labels["x-lo"] + (pts[:, 0] - output._LEFT) * dx
        y = (output._BOTTOM - pts[:, 1]) * dy
        assert np.abs(x - axis).max() <= 0.005 * dx * (1.0 + 1e-9)
        assert np.abs(y - density).max() <= 0.005 * dy * (1.0 + 1e-9)


def strip_meta(raw: bytes) -> list:
    return [ln for ln in raw.decode().splitlines() if not ln.startswith("#")]


def meta_lines(raw: bytes) -> dict:
    return dict(ln[2:].split(" = ", 1) for ln in raw.decode().splitlines() if ln.startswith("# "))


def test_duality_check_passes(tmp_path):
    r = run(["duality-check", "--m", "16", "--states", "2"], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads((tmp_path / "duality_report.json").read_text())
    assert rep["passed"] is True
    assert rep["max_spatial_l1"] < 1e-10


def test_duality_report_carries_momentum_window_masses(tmp_path):
    r = run(["duality-check", "--m", "16", "--states", "2"], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads((tmp_path / "duality_report.json").read_text())
    spec = boxspec.diagonalize(BoxPair(1.0, rep["config"]["coupling"]), 16)
    for i in range(2):
        entry = rep[f"state={i}"]
        for stat in ("boson", "fermion"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                mass = boxspec.momentum_density(spec.state(i, stat)).mass
            assert entry[f"momentum_mass_{stat}"] == pytest.approx(mass, rel=1e-12)
            # what the window misses is the contact tail (0 for the bosons)
            tail = entry[f"momentum_tail_{stat}"]
            assert abs(entry[f"momentum_mass_{stat}"] + tail - 2.0) <= 1e-3
        assert entry["momentum_tail_boson"] == 0.0 < entry["momentum_tail_fermion"]
        assert abs(entry["momentum_mass_boson"] - 2.0) < 1e-4
    # so no window warning: it would name a truncation there is not
    assert "momentum window" not in r.stderr


def test_convergence_report(tmp_path):
    r = run(["convergence", "--m-list", "8,16", "--n-levels", "3"], tmp_path)
    assert r.returncode == 0, r.stderr
    rep = json.loads((tmp_path / "convergence_report.json").read_text())
    assert rep["energies_nonincreasing"] is True
    assert rep["cusp_decreasing"] is True


@pytest.mark.parametrize("m_list, n_rows", [("2,3", 3 + 6), ("1,2", 1 + 3)])
def test_convergence_with_fewer_levels_than_asked(tmp_path, m_list, n_rows):
    # M = 1 has one pair level and M = 2 three, under the default six: the
    # CSV keeps every level each cutoff has, the verdict the shared ones
    r = run(["convergence", "--alpha", "5", "--m-list", m_list], tmp_path)
    assert r.returncode == 0, r.stderr
    rows = [ln for ln in (tmp_path / "convergence.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 1 + n_rows  # header
    rep = json.loads((tmp_path / "convergence_report.json").read_text())
    assert rep["energies_nonincreasing"] is True


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


# Every subcommand's (flag, dest) pairs besides the shared ones: the CLI
# contract, written out so that an edit of the command table cannot move it.
SHARED_FLAGS = {"--config": "config", "--out-dir": "out_dir",
                "--threads": "threads", "--hbar": "hbar"}
FLAGS = {
    "ring-spectrum": {"--n": "n", "--lambda": "lam", "--c": "c",
                      "--imax": "imax"},
    "box-spectrum": {"--lambda": "lam", "--m": "m", "--c": "c",
                     "--alpha": "alpha", "--n-levels": "n_levels"},
    "fig1": {"--alpha": "alpha", "--lambda": "lam", "--m": "m",
             "--n-grid": "n_grid", "--n-k": "n_k", "--n-x": "n_x"},
    "work": {"--geometry": "geometry", "--protocol": "protocol", "--n": "n",
             "--lambda-i": "lam_i", "--lambda-f": "lam_f", "--c": "c",
             "--c-f": "c_f", "--beta": "beta", "--imax": "imax", "--m": "m",
             "--v": "v", "--tau": "tau", "--merge-tol": "merge_tol"},
    "fig2": {"--c-list": "c_list", "--beta-list": "beta_list",
             "--protocol": "protocol", "--lambda": "lam", "--v": "v",
             "--tau": "tau", "--m": "m"},
    "duality-check": {"--alpha": "alpha", "--lambda": "lam", "--m": "m",
                      "--states": "states"},
    "convergence": {"--alpha": "alpha", "--lambda": "lam",
                    "--m-list": "m_list", "--n-levels": "n_levels"},
    "eos": {"--beta": "beta", "--c": "c", "--mu-grid": "mu_grid",
            "--hbar-sweep": "hbar_sweep", "--density": "density"},
}


def test_parser_declares_every_flag_once_with_its_dest():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    assert list(sub.choices) == list(FLAGS)
    for name, sp in sub.choices.items():
        got = {
            opt: a.dest for a in sp._actions for opt in a.option_strings
            if opt not in ("-h", "--help")
        }
        assert got == {**FLAGS[name], **SHARED_FLAGS}, name


# a value every parser accepts, by parser
SAMPLE = {int: "3", cli._positive_count: "3", float: "0.5",
          str: "ring", cli._floats: "0.5,2", cli._ints: "4,8", cli._grid: "0:1:3"}
KEYS = [
    (name, key) for name, (_, _, schema) in cli._COMMANDS.items()
    for key in {**schema, **cli._GLOBAL_SCHEMA}
]


@pytest.mark.parametrize("command, key", KEYS)
def test_flag_and_config_file_spellings_resolve_equally(tmp_path, command, key):
    parse = {**cli._COMMANDS[command][2], **cli._GLOBAL_SCHEMA}[key][0]
    value = str(tmp_path / "out") if key == "out_dir" else SAMPLE[parse]
    out = [] if key == "out_dir" else ["--out-dir", str(tmp_path / "out")]
    flag = cli._flag(key)

    def resolved(argv):
        cfg = cli._resolve(cli._build_parser().parse_args([command, *argv, *out]))
        return cfg.metadata(), cfg.out_dir, cfg.threads

    want = resolved([flag, value])
    assert want != resolved([])  # the sample is not the default
    for spelling in {flag[2:], flag[2:].replace("-", "_"), key}:
        path = tmp_path / "run.cfg"
        path.write_text(f"{spelling} = {value}\n")
        assert resolved(["--config", str(path)]) == want, spelling


def test_bad_value_names_its_flag(tmp_path, capsys):
    out = ["--out-dir", str(tmp_path)]
    assert cli.main(["work", "--n", "abc", *out]) == 2
    assert "config error: --n: invalid literal" in capsys.readouterr().err
    (tmp_path / "run.cfg").write_text("lambda_i = x\n")
    assert cli.main(["work", "--config", str(tmp_path / "run.cfg"), *out]) == 2
    assert "config error: --lambda-i: " in capsys.readouterr().err
    assert cli.main(["eos", "--mu-grid", "1:2", *out]) == 2
    assert "config error: --mu-grid: grid must be" in capsys.readouterr().err
    assert cli.main(["work", "--threads", "1.5", *out]) == 2
    assert "--threads: " in capsys.readouterr().err
    # argparse has no choices to list, so the errors name what they accept
    assert cli.main(["work", "--geometry", "bogus", *out]) == 2
    assert "expected ring or box" in capsys.readouterr().err
    assert cli.main(["work", "--protocol", "bogus", *out]) == 2
    assert "sudden-coupling or ramp" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["work", "--geometry", "ring", "--protocol", "ramp"], "'ramp' on a ring is not supported"),
    (["work", "--n", "3"], "box routes handle two particles"),
    (["work", "--protocol", "sudden-coupling"], "work needs --c-f"),
    (["work", "--protocol", "sudden-coupling", "--c", "inf", "--c-f", "5"],
     "coupling quench endpoints must be finite"),
    (["work", "--protocol", "sudden-wall", "--lambda-f", "0.5"], "sudden compression"),
    (["fig2", "--protocol", "sudden-wall"], "fig2 protocol must be ramp or adiabatic"),
])
def test_work_route_refusal_exits_two_naming_it(tmp_path, capsys, argv, message):
    assert cli.main([*argv, "--m", "4", "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, names", [
    (["box-spectrum", "--lambda", "0", "--alpha", "1", "--m", "4"], "box width"),
    (["fig1", "--lambda", "0", "--m", "4"], "box width"),
    (["duality-check", "--lambda", "0", "--m", "4"], "box width"),
    (["convergence", "--lambda", "0", "--m-list", "4"], "box width"),
    (["eos", "--hbar-sweep", "0", "--mu-grid", "-2:-1:3"], "--hbar-sweep"),
    (["eos", "--hbar-sweep", "inf", "--mu-grid", "-2:-1:3"], "--hbar-sweep"),
    (["eos", "--density", "inf", "--hbar-sweep", "1", "--mu-grid", "-2:-1:3"],
     "--density"),
    (["fig1", "--n-x", "0", "--m", "4"], "n_x"),
    (["fig1", "--n-x", "1", "--m", "4"], "n_x"),
    (["fig1", "--n-k", "1", "--m", "4"], "n_k"),
    (["fig1", "--n-grid", "1", "--m", "4"], "n_grid"),
    # a level count the basis lacks is refused before any file is written
    (["fig1", "--m", "1"], "fig1 draws 2 levels, but cutoff --m 1 has 1"),
    (["fig1", "--alpha", "inf", "--m", "2"], "fig1 draws 2 levels, but cutoff --m 2 has 1"),
    (["duality-check", "--m", "2", "--states", "10"],
     "--states 10 asks for more levels than the 3 at cutoff --m 2"),
    (["box-spectrum", "--n-levels", "-1", "--alpha", "1", "--m", "4"],
     "--n-levels: must be >= 1"),
    (["convergence", "--n-levels", "-1", "--m-list", "4"],
     "--n-levels: must be >= 1"),
    (["ring-spectrum", "--lambda", "inf"], "circumference"),
    (["duality-check", "--m", "4", "--states", "0"], "--states: must be >= 1"),
    # the verdicts compare consecutive cutoffs: a repeated one made
    # cusp_decreasing true from a single point
    (["convergence", "--m-list", "8,8"], "--m-list: must be strictly increasing"),
    (["convergence", "--m-list", "8,16,12"], "--m-list: must be strictly increasing"),
    # each value labels a CSV and a report key: a repeated label overwrote
    # one distribution with another and compared a coupling with itself
    (["fig2", "--c-list", "1,1.0000001", "--beta-list", "1", "--m", "4"],
     "--c-list: 1.0000001 repeats the label '1'"),
    (["fig2", "--c-list", "1,1", "--beta-list", "1", "--m", "4"],
     "--c-list: 1.0 repeats the label '1'"),
    (["fig2", "--c-list", "1", "--beta-list", "1,0.5,1.0", "--m", "4"],
     "--beta-list: 1.0 repeats the label '1'"),
    # a value of -inf or -nan, in any case, is a value and not a flag
    (["ring-spectrum", "--imax", "-inf"], "i_max = -inf is not finite"),
    (["ring-spectrum", "--lambda", "-inf"], "ring circumference must be positive and finite, got -inf"),
    (["box-spectrum", "--c", "-inf", "--m", "4"], "contact coupling must be >= 0, got -inf"),
    (["box-spectrum", "--lambda", "-inf", "--c", "1", "--m", "4"],
     "box width must be positive and finite, got -inf"),
    (["work", "--beta", "-nan", "--m", "4"], "beta must be positive and finite, got nan"),
    (["eos", "--c", "-Infinity"], "coupling must be >= 0, got -inf"),
    # alpha is checked before it is turned into C, so the message names it
    (["box-spectrum", "--alpha", "-1", "--m", "4"], "--alpha must be >= 0, got -1.0"),
    (["fig1", "--alpha", "nan", "--m", "4"], "--alpha must be >= 0, got nan"),
    (["duality-check", "--alpha", "-2", "--m", "4"], "--alpha must be >= 0, got -2.0"),
    (["convergence", "--alpha", "-inf", "--m-list", "4"], "--alpha must be >= 0, got -inf"),
])
def test_degenerate_input_exits_two_naming_it(tmp_path, capsys, argv, names):
    assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert names in capsys.readouterr().err
    # checked before any writing
    if argv[0] in ("eos", "convergence", "fig2", "fig1", "duality-check"):
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["box-spectrum", "--c", "inf"],
    ["work", "--c", "inf"],
    ["work", "--c", "inf", "--protocol", "sudden-wall"],
    ["work", "--c", "inf", "--protocol", "ramp"],
    ["fig1", "--alpha", "inf"],
])
def test_hard_core_pair_at_cutoff_one_exits_two_naming_it(tmp_path, capsys, argv):
    # the hard-core pair lives on the antisymmetric pairs, and one mode has none
    assert cli.main([*argv, "--m", "1", "--out-dir", str(tmp_path)]) == 2
    assert "mode cutoff >= 2, got 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["work"],
    ["work", "--c", "inf"],
    ["work", "--protocol", "sudden-coupling", "--c-f", "2"],
    ["work", "--protocol", "ramp", "--tau", "0.1"],
    ["fig2"],
])
def test_box_route_past_its_cutoff_cap_exits_two_naming_it(tmp_path, capsys, argv):
    # the pair basis's labels alone asked for 9.31 GiB here (exit 1 on a
    # MemoryError); each box route refuses a cutoff past 128 before it
    # builds a basis
    assert cli.main([*argv, "--m", "100000", "--out-dir", str(tmp_path)]) == 2
    assert "mode cutoff must be <= 128 on a box work route, got 100000" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_merge_tol_not_finite_and_nonnegative_exits_two(tmp_path, capsys, tol):
    argv = ["work", "--m", "6", "--merge-tol", tol, "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "merge tolerance" in capsys.readouterr().err
    assert not (tmp_path / "work_summary.json").exists()


# Small runs of every command (and of each work route) for the property.
BASES = {
    "ring-spectrum": [["--n", "2", "--imax", "2.5"]],
    "box-spectrum": [["--alpha", "1", "--m", "4"], ["--c", "1", "--m", "4"]],
    "fig1": [["--m", "4", "--n-grid", "9", "--n-k", "9", "--n-x", "9"]],
    "work": [
        ["--m", "4"],
        ["--protocol", "ramp", "--m", "4", "--tau", "0.1"],
        ["--protocol", "sudden-coupling", "--c-f", "2", "--m", "4"],
        ["--protocol", "sudden-wall", "--m", "4"],
        ["--geometry", "ring", "--imax", "2.5"],
    ],
    "fig2": [["--m", "4", "--c-list", "1,2", "--beta-list", "1"],
             ["--protocol", "adiabatic", "--m", "4", "--c-list", "1,2",
              "--beta-list", "1"]],
    "duality-check": [["--m", "4"]],
    "convergence": [["--m-list", "4,6", "--n-levels", "2"]],
    "eos": [["--mu-grid", "-2:-1:3", "--hbar-sweep", "1"],
            ["--mu-grid", "-2:-1:3"]],
}
HOSTILE = ["0", "-1", "nan", "inf", "x", ""]


def _finite(value):
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return True  # not a number


def _non_finite_values(path, skip):
    """(file, key, value) for each non-finite CSV data cell or JSON value."""
    if path.suffix == ".csv":
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        return [(path.name, None, cell) for ln in lines[1:]
                for cell in ln.split(",") if not _finite(cell)]
    found = []

    def walk(obj, key):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k not in skip:
                    walk(v, k)
        elif isinstance(obj, list):
            for v in obj:
                walk(v, key)
        elif not isinstance(obj, bool) and not _finite(obj):
            found.append((path.name, key, obj))

    if path.suffix == ".json":
        walk(json.loads(path.read_text()), None)
    return found


def test_hostile_value_exits_zero_two_or_three():
    # every (command, base run, key, value): a crash confined to one key
    # slips past any sample of the combinations.  A run that exits 0 must
    # leave only finite numbers, apart from the configuration it echoes and
    # the hard-core coupling C = inf it was asked for, as C or as alpha.
    failed = []
    for command, bases in BASES.items():
        for base in bases:
            for key in [*cli._COMMANDS[command][2], "threads", "hbar"]:
                for value in HOSTILE:
                    argv = [command, *base, cli._flag(key), value]
                    with tempfile.TemporaryDirectory() as out:
                        try:
                            code = cli.main([*argv, "--out-dir", out])
                        except Exception as exc:
                            code = repr(exc)
                        if code == 0:
                            hard_core = key in ("c", "alpha") and value == "inf"
                            allowed = {"coupling": "inf"} if hard_core else {}
                            for path in sorted(Path(out).iterdir()):
                                skip = {"config", key}
                                for name, k, v in _non_finite_values(path, skip):
                                    if allowed.get(k) != v:
                                        failed.append((argv, name, k, v))
                    if code not in (0, 2, 3):
                        failed.append((argv, code))
    assert failed == []


# Finite inputs at the ends of double range.  Each once stopped with an
# OverflowError or ZeroDivisionError, ran a ramp of ~1e300 steps, wrote inf
# energies, or wrote a NaN tail mass (0 * inf at beta = 1e300).
EXTREME = [
    "eos --c 1e300 --mu-grid=-1:-1:1",
    "eos --mu-grid=-2:-1:3 --hbar 1e-300",
    "work --m 4 --lambda-f 1e300",
    "work --m 6 --hbar 1e-200",
    "work --m 6 --lambda-i 1e-200",
    "work --m 6 --beta 1e300",
    "work --protocol ramp --m 4 --tau 1e300",
    "work --protocol ramp --m 4 --tau 0.1 --v 1e300",
    "work --protocol ramp --m 4 --tau 0.1 --c 1e300",
    "work --protocol ramp --m 4 --tau 0.1 --lambda-i 1e-300",
    "work --protocol ramp --m 4 --tau 0.1 --beta 1e300",
    "work --protocol sudden-coupling --c-f 2 --m 4 --beta 1e300",
    "work --geometry ring --imax 2.5 --lambda-i 1e-300",
    "work --geometry ring --imax 2.5 --beta 1e300",
    "ring-spectrum --n 2 --imax 2.5 --lambda 1e-300",
    "fig1 --m 4 --n-grid 9 --n-k 9 --n-x 9 --lambda 1e300",
    "box-spectrum --lambda 1e-160 --c 1 --m 6",
    "work --m 6 --hbar 1e-150 --beta 1e-30",
    "ring-spectrum --imax inf",
    "ring-spectrum --imax nan",
    "work --geometry ring --imax 1e300",
    "work --protocol sudden-wall --lambda-f 1e300 --m 4",
]

# the quantity an input's error message must name: the kinetic scale
# hbar^2 / lambda^2 overflows or vanishes, or beta hbar^2 in the tail bound
NAMED = {
    "work --protocol ramp --m 4 --tau 1e300": "lambda = 5e+300",
    "work --m 6 --hbar 1e-200": "hbar = 1e-200",
    "box-spectrum --lambda 1e-160 --c 1 --m 6": "lambda = 1e-160",
    "work --m 6 --hbar 1e-150 --beta 1e-30": "beta = 1e-30, hbar = 1e-150",
    # counted, or refused, before any array of that size is built
    "ring-spectrum --imax inf": "i_max = inf",
    "ring-spectrum --imax nan": "i_max = nan",
    "work --geometry ring --imax 1e300": "i_max = 1e+300",
    "work --protocol sudden-wall --lambda-f 1e300 --m 4": "lambda_f = 1e+300 from cutoff 4",
}


@pytest.mark.parametrize("argv", EXTREME)
def test_extreme_finite_input_exits_zero_two_or_three(tmp_path, argv):
    # a subprocess with a time limit: a route that stops terminating fails
    # here instead of stalling the suite
    r = run([*shlex.split(argv), "--out-dir", "."], tmp_path, timeout=60)
    assert r.returncode in (0, 2, 3), r.stderr
    if argv in NAMED:
        assert r.returncode == 2 and NAMED[argv] in r.stderr, r.stderr
    if r.returncode == 0:
        nan = [p.name for p in sorted(tmp_path.iterdir())
               if re.search(r"\bnan\b", p.read_text(), re.IGNORECASE)]
        assert nan == []
