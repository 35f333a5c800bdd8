"""Command-line front end: spectra, figure pipelines, work statistics, EOS.

Commands write CSV tables (with a '#' key=value header carrying the
resolved configuration), JSON reports, and quick-look SVG curves into
--out-dir.  A flat key=value config file can preset any flag; explicit
flags win.  Exit codes: 0 success, 2 configuration/schema error, 3
numeric failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    BoxPair,
    ConfigError,
    LinearRamp,
    alpha_coupling,
    check_coupling,
    check_positive,
)
from .output import write_csv, write_json, write_svg_heatmap

# Each command handler, and each helper that calls a compute module, imports
# that module itself: a process loads only what its command runs, and
# start-up is most of a short command's time.
if TYPE_CHECKING:
    from . import work

__all__ = ["main"]


# --------------------------------------------------------------------------
# Configuration plumbing
# --------------------------------------------------------------------------

def _positive_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ConfigError(f"must be >= 1, got {n}")
    return n


# Keys every command takes besides its own schema (see _COMMANDS).
_GLOBAL_SCHEMA = {
    "out_dir": (str, "."),
    "threads": (_positive_count, 1),
    "hbar": (float, 1.0),
}


def _list_of(kind: type) -> Callable[[str], list]:
    """Parser of a comma-separated list of at least one `kind` value."""
    def parse(text: str) -> list:
        try:
            vals = [kind(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad {kind.__name__} list {text!r}") from exc
        if not vals:
            raise ConfigError(f"empty list {text!r}")
        return vals
    return parse


_floats, _ints = _list_of(float), _list_of(int)


def _grid(text: str) -> np.ndarray:
    """start:stop:count -> inclusive linspace."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:count, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}") from exc
    if n < 1:
        raise ConfigError(f"grid count must be >= 1, got {n}")
    return np.linspace(lo, hi, n)


@dataclass
class RunConfig:
    command: str
    values: Dict[str, object]
    out_dir: Path
    threads: int
    hbar: float

    def metadata(self) -> Dict[str, object]:
        # threads is execution plumbing: it never changes results, so it
        # stays out of the artifacts and outputs compare across machines.
        meta: Dict[str, object] = {"command": self.command, "hbar": self.hbar}
        for key, val in self.values.items():
            if isinstance(val, np.ndarray):
                meta[key] = "[" + "|".join(repr(float(v)) for v in val) + "]"
            elif isinstance(val, list):
                meta[key] = "[" + "|".join(str(v) for v in val) + "]"
            elif val is None:
                meta[key] = "none"
            else:
                meta[key] = val
        return meta


def _flag(key: str) -> str:
    """Schema key -> command-line flag: lam_i -> --lambda-i."""
    return "--" + re.sub(r"^lam(?=_|$)", "lambda", key).replace("_", "-")


def _key(name: str) -> str:
    """Flag name without '--', with '-' or '_' -> schema key: lambda-i -> lam_i."""
    return re.sub(r"^lambda(?=_|$)", "lam", name.strip().replace("-", "_"))


def _read_config_file(path: Path) -> Dict[str, str]:
    if not path.is_file():
        raise ConfigError(f"config file {path} not found")
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = line.split("=", 1)
        out[_key(key)] = val.strip()
    return out


def _resolve(args: argparse.Namespace) -> RunConfig:
    command = args.command
    schema = {**_COMMANDS[command][2], **_GLOBAL_SCHEMA}
    file_vals = (
        _read_config_file(Path(args.config)) if args.config else {}
    )
    unknown = sorted(set(file_vals) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {unknown}")
    resolved: Dict[str, object] = {}
    for key, (parse, default) in schema.items():
        text = getattr(args, key, None)
        if text is None:
            text = file_vals.get(key)
        try:
            resolved[key] = default if text is None else parse(text)
        except ValueError as exc:  # ConfigError included
            raise ConfigError(f"{_flag(key)}: {exc}") from exc
    out_dir = Path(resolved.pop("out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    threads, hbar = resolved.pop("threads"), resolved.pop("hbar")
    # checked here, not by the model: a nan hbar turns --alpha into a nan C,
    # and the model's error would name C
    check_positive("hbar", hbar)
    return RunConfig(command, resolved, out_dir, threads, hbar)


def _pmap(fn: Callable, items: Sequence, threads: int) -> list:
    """Order-preserving map, threaded when asked; writes stay serialized."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _jarzynski_residual(dist: work.WorkDistribution) -> float:
    """|<e^{-beta W}> Z_i / Z_f - 1|, taken in log space: at low temperature
    the average leaves double range while its ratio to Z_f / Z_i does not."""
    ln_ratio = dist.metadata["ln_z_final"] - dist.metadata["ln_z_initial"]
    with np.errstate(over="ignore"):
        return abs(float(np.expm1(dist.log_jarzynski_average() - ln_ratio)))


def _write_work(
    path: Path, dist: work.WorkDistribution, head: Dict[str, object], tol: float = 1e-9
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Write the merged atoms of `dist` as work and probability columns.

    The CSV header is `head` plus the distribution's scalar metadata.
    Atoms whose probability is exactly 0 (forbidden transitions, or masses
    below the smallest double) are not written.  Returns that header and
    the moments, Jarzynski residual and atom count of the distribution.
    """
    from . import work

    w, p = work.merge_atoms(dist.works, dist.probabilities, dist.log_probabilities, tol)
    keep = p > 0.0
    head = dict(head)
    head.update({k: v for k, v in dist.metadata.items()
                 if isinstance(v, (int, float, str))})
    write_csv(path, {"work": w[keep], "probability": p[keep]}, head)
    m1, m2 = dist.moments(2)
    return head, {
        "mean_work": m1,
        "second_moment": m2,
        "jarzynski_residual": _jarzynski_residual(dist),
        "atom_count": int(np.count_nonzero(keep)),
    }


# --------------------------------------------------------------------------
# Command handlers
# --------------------------------------------------------------------------


def _cmd_ring_spectrum(cfg: RunConfig) -> None:
    from . import ringspec

    n, lam, c, imax = (cfg.values[k] for k in ("n", "lam", "c", "imax"))
    table = ringspec.enumerate_states(lam, c, n, imax, hbar=cfg.hbar)
    meta = cfg.metadata()
    meta["state_count"] = len(table)
    write_csv(
        cfg.out_dir / "ring_spectrum.csv",
        {
            "index": np.arange(len(table)),
            "energy": table.energies,
            "momentum": cfg.hbar * table.rapidities.sum(axis=1),
            "residual": table.residuals,
            "quantum_numbers": [
                "|".join(format(q, "g") for q in row)
                for row in table.quantum_numbers
            ],
            "rapidities": [
                "|".join(map(repr, row.tolist())) for row in table.rapidities
            ],
        },
        meta,
    )
    write_json(cfg.out_dir / "ring_spectrum_config.json", meta)


def _box_pair(cfg: RunConfig) -> BoxPair:
    """The pair in a box of width --lambda at coupling --c, or --alpha in
    box units."""
    lam, c, alpha = cfg.values["lam"], cfg.values.get("c"), cfg.values.get("alpha")
    # the width first: --alpha divides by it
    check_positive("box width", lam)
    if c is not None and alpha is not None:
        raise ConfigError("give either --c or --alpha, not both")
    if c is None and alpha is None:
        raise ConfigError("one of --c / --alpha is required")
    if c is None:
        check_coupling("--alpha", alpha)
        c = alpha_coupling(alpha, lam, cfg.hbar)
    return BoxPair(lam, c, cfg.hbar)


def _cmd_box_spectrum(cfg: RunConfig) -> None:
    from . import boxspec

    m, n_levels = cfg.values["m"], cfg.values["n_levels"]
    model = _box_pair(cfg)
    spec = boxspec.diagonalize(model, m, n_levels)
    contact = [
        boxspec.contact_expectation(spec.state(i, "boson")) for i in range(len(spec))
    ]
    meta = cfg.metadata()
    meta.update(coupling=model.coupling, basis_dim=spec.basis.dim,
                residual=spec.residual)
    write_csv(
        cfg.out_dir / "box_spectrum.csv",
        {
            "index": np.arange(len(spec)),
            "energy": spec.energies,
            "contact": contact,
        },
        meta,
    )
    write_json(cfg.out_dir / "box_spectrum_config.json", meta)


def _cmd_fig1(cfg: RunConfig) -> None:
    from . import boxspec

    m, n_grid, n_k, n_x = (cfg.values[k] for k in ("m", "n_grid", "n_k", "n_x"))
    model = _box_pair(cfg)
    spec = boxspec.diagonalize(model, m, n_levels=2)
    if len(spec) < 2:
        raise ConfigError(f"fig1 draws 2 levels, but cutoff --m {m} has {len(spec)}")
    meta = cfg.metadata()
    meta.update(coupling=model.coupling, basis_dim=spec.basis.dim)
    for idx, tag in ((0, "ground"), (1, "excited1")):
        for stat in ("boson", "fermion"):
            state = spec.state(idx, stat)
            head = dict(meta, state=tag, statistics=stat, energy=state.energy)
            dg = boxspec.spatial_density(state, n_grid=n_grid)
            mg = boxspec.momentum_density(state, n_k=n_k, n_x=n_x)
            for kind, axis, grid, extra in (
                ("spatial", "x", dg, {}),
                ("momentum", "k", mg, dict(window_mass=mg.mass,
                                           contact_tail=mg.metadata["contact_tail"])),
            ):
                stem = f"fig1_{tag}_{kind}_{stat}"
                write_csv(cfg.out_dir / f"{stem}.csv",
                          {axis: grid.axis, "density": grid.values},
                          dict(head, kind=kind, **extra))
                write_svg_heatmap(cfg.out_dir / f"{stem}.svg",
                                  grid.axis, grid.values, title=stem)
    write_json(cfg.out_dir / "fig1_config.json", meta)


def _box_drive(cfg: RunConfig, name: str, lam_i: float, lam_f: float,
               coupling: float) -> work.Drive:
    """The pair's drive from width lam_i at `coupling` under protocol `name`,
    on --m modes; a ramp runs for --tau at speed --v and ignores lam_f."""
    from . import work

    m, hbar = cfg.values["m"], cfg.hbar
    if name == "adiabatic":
        return work.adiabatic_box_drive(lam_i, lam_f, coupling, m, hbar)
    if name == "sudden-wall":
        return work.sudden_wall_drive(lam_i, lam_f, coupling, m, hbar=hbar)
    if name == "sudden-coupling":
        if cfg.values["c_f"] is None:
            raise ConfigError(f"{cfg.command} needs --c-f")
        return work.sudden_coupling_drive(lam_i, coupling, cfg.values["c_f"], m, hbar)
    if name == "ramp":
        ramp = LinearRamp(lam_i, cfg.values["v"], cfg.values["tau"])
        return work.ramp_drive(ramp, coupling, m, hbar)
    raise ConfigError(f"unknown protocol {name!r}; expected adiabatic, "
                      "sudden-wall, sudden-coupling or ramp")


def _cmd_work(cfg: RunConfig) -> None:
    from . import work

    geometry, name, n, lam_i, lam_f, coupling = (
        cfg.values[k] for k in ("geometry", "protocol", "n", "lam_i", "lam_f", "c"))
    if geometry == "ring":
        if name != "adiabatic":
            raise ConfigError(
                f"protocol {name!r} on a ring is not supported "
                "(rapidity dynamics beyond the adiabatic limit has no route here)"
            )
        drive = work.adiabatic_ring_drive(lam_i, lam_f, coupling, n, cfg.values["imax"],
                                          cfg.hbar)
    elif geometry == "box":
        if n != 2:
            raise ConfigError("box routes handle two particles")
        drive = _box_drive(cfg, name, lam_i, lam_f, coupling)
    else:
        raise ConfigError(f"unknown geometry {geometry!r}; expected ring or box")
    dist = drive.at(cfg.values["beta"])
    del drive  # its transition matrix is not held while the atoms are written
    head, stats = _write_work(cfg.out_dir / "work_atoms.csv", dist, cfg.metadata(),
                              cfg.values["merge_tol"])
    # the average itself leaves double range in a cold drive; its log does not
    summary = dict(head, mass=dist.mass, tail_mass=dist.tail_mass,
                   ln_jarzynski_average=dist.log_jarzynski_average(), **stats)
    write_json(cfg.out_dir / "work_summary.json", summary)


def _distinct_labels(key: str, values: Sequence[float]) -> None:
    """Reject list values that print alike: each label names a file and a key."""
    seen: Dict[str, float] = {}
    for v in values:
        label = f"{v:g}"
        if label in seen:
            raise ConfigError(
                f"{_flag(key)}: {v!r} repeats the label {label!r} of {seen[label]!r}"
            )
        seen[label] = v


def _cmd_fig2(cfg: RunConfig) -> None:
    from . import work

    c_list, beta_list, name, lam, v, tau = (
        cfg.values[k] for k in ("c_list", "beta_list", "protocol", "lam", "v", "tau"))
    _distinct_labels("c_list", c_list)
    _distinct_labels("beta_list", beta_list)
    if name not in ("ramp", "adiabatic"):
        raise ConfigError(f"fig2 protocol must be ramp or adiabatic, got {name!r}")
    lam_f = lam + v * tau

    def run_c(coupling: float):
        # the drive does not depend on beta: build it once, weigh it at each
        drive = _box_drive(cfg, name, lam, lam_f, coupling)
        return {beta: drive.at(beta) for beta in beta_list}

    by_c = _pmap(run_c, c_list, cfg.threads)
    meta = cfg.metadata()
    report: Dict[str, object] = {"protocol": name, "lam_final": lam_f}
    for coupling, dists in zip(c_list, by_c):
        entry: Dict[str, object] = {}
        for beta in beta_list:
            _, entry[f"beta={beta:g}"] = _write_work(
                cfg.out_dir / f"fig2_C{coupling:g}_beta{beta:g}.csv",
                dists[beta], dict(meta, c=coupling, beta=beta))
        report[f"c={coupling:g}"] = entry

    # Interaction sensitivity washes out toward the classical limit: the
    # distance between two couplings' distributions shrinks as beta drops.
    pairwise: Dict[str, object] = {}
    for (ca, da), (cb, db) in zip(
        list(zip(c_list, by_c))[:-1], list(zip(c_list, by_c))[1:]
    ):
        vals = [work.kolmogorov_distance(da[b], db[b]) for b in beta_list]
        pairwise[f"c={ca:g}|c={cb:g}"] = {
            "distances": dict(
                (f"beta={b:g}", v) for b, v in zip(beta_list, vals)
            ),
            "decreasing": bool(all(x > y for x, y in zip(vals, vals[1:]))),
        }
    report["kolmogorov_between_couplings"] = pairwise
    report["config"] = meta
    write_json(cfg.out_dir / "fig2_report.json", report)


def _cmd_duality_check(cfg: RunConfig) -> None:
    from . import boxspec

    m, n_states = cfg.values["m"], cfg.values["states"]
    model = _box_pair(cfg)
    spec = boxspec.diagonalize(model, m, n_states)
    if len(spec) < n_states:
        raise ConfigError(f"--states {n_states} asks for more levels than the "
                          f"{len(spec)} at cutoff --m {m}")
    meta = cfg.metadata()
    meta["coupling"] = model.coupling
    states = {}
    worst = 0.0
    for i in range(n_states):
        bose = spec.state(i, "boson")
        fermi = spec.state(i, "fermion")
        db = boxspec.spatial_density(bose)
        df = boxspec.spatial_density(fermi)
        spatial_equal = bool(np.array_equal(db.values, df.values))
        spatial_l1 = boxspec.l1_distance(db, df)
        mb = boxspec.momentum_density(bose)
        mf = boxspec.momentum_density(fermi)
        momentum_l1 = boxspec.l1_distance(mb, mf)
        worst = max(worst, spatial_l1)
        states[f"state={i}"] = {
            "energy": bose.energy,
            "spatial_identical": spatial_equal,
            "spatial_l1": spatial_l1,
            "momentum_l1": momentum_l1,
            "momentum_mass_boson": mb.mass,
            "momentum_tail_boson": mb.metadata["contact_tail"],
            "momentum_mass_fermion": mf.mass,
            "momentum_tail_fermion": mf.metadata["contact_tail"],
        }
    report = dict(
        config=meta,
        passed=bool(worst <= 1e-10),
        max_spatial_l1=worst,
        **states,
    )
    write_json(cfg.out_dir / "duality_report.json", report)
    if worst > 1e-10:
        raise RuntimeError(
            f"duality violated: spatial L1 {worst:.3e} between bosonic and "
            "fermionized densities"
        )


def _cmd_convergence(cfg: RunConfig) -> None:
    from . import boxspec

    m_list, n_levels = cfg.values["m_list"], cfg.values["n_levels"]
    # the verdicts compare consecutive cutoffs, each larger than the last
    if any(a >= b for a, b in zip(m_list, m_list[1:])):
        raise ConfigError(f"{_flag('m_list')}: must be strictly increasing, got {m_list}")
    model = _box_pair(cfg)
    rows_m, rows_level, rows_e = [], [], []
    cusp = {}
    energy_table = []
    for m in m_list:
        # n_levels >= 1, so state 0 is there for the cusp
        spec = boxspec.diagonalize(model, m, n_levels)
        energy_table.append(spec.energies)
        for lvl in range(len(spec)):
            rows_m.append(m)
            rows_level.append(lvl)
            rows_e.append(spec.energies[lvl])
        # the residual is already scale-normalized
        cusp[f"m={m}"] = float(boxspec.cusp_check(spec.state(0, "boson")).max())
        del spec  # one spectrum alive at a time
    meta = cfg.metadata()
    meta["coupling"] = model.coupling
    write_csv(
        cfg.out_dir / "convergence.csv",
        {"cutoff": rows_m, "level": rows_level, "energy": rows_e},
        meta,
    )
    # the levels every cutoff has: a small cutoff may have fewer than n_levels
    k = min(map(len, energy_table))
    table = np.array([e[:k] for e in energy_table])
    verdict = {
        "config": meta,
        "cusp_residual": cusp,
        "energies_nonincreasing": bool(
            np.all(np.diff(table, axis=0) <= 1e-12)
        ),
        "cusp_decreasing": bool(
            all(x > y for x, y in zip(cusp.values(), list(cusp.values())[1:]))
        ),
    }
    write_json(cfg.out_dir / "convergence_report.json", verdict)


def _cmd_eos(cfg: RunConfig) -> None:
    from . import eos

    beta, coupling, mu_grid, sweep, target = (
        cfg.values[k] for k in ("beta", "c", "mu_grid", "hbar_sweep", "density"))
    # the sweep runs last: check its inputs before anything is written
    if sweep:
        for hb in sweep:
            check_positive(_flag("hbar_sweep"), hb)
        check_positive(_flag("density"), target)
    meta = cfg.metadata()

    def point(mu: float):
        sol = eos.solve_yang_yang(beta, mu, coupling, cfg.hbar)
        return sol.pressure, sol.density, sol.iterations

    rows = _pmap(point, mu_grid, cfg.threads)
    write_csv(
        cfg.out_dir / "eos_isotherm.csv",
        {
            "mu": mu_grid,
            "pressure": [r[0] for r in rows],
            "density": [r[1] for r in rows],
            "iterations": [r[2] for r in rows],
        },
        meta,
    )
    coeffs = eos.fugacity_coefficients(beta, coupling, cfg.hbar)
    payload = dict(config=meta, beta=beta, coupling=coupling, **coeffs)
    write_json(cfg.out_dir / "eos_coefficients.json", payload)

    if sweep:
        ratios = _pmap(
            lambda hb: eos.virial_ratio(beta, coupling, target, hb), sweep, cfg.threads
        )
        write_csv(
            cfg.out_dir / "eos_virial_sweep.csv",
            {
                "hbar": sweep,
                "ratio_full": [r["full"] for r in ratios],
                "ratio_expansion": [r["expansion"] for r in ratios],
                "ratio_tabulated": [r["tabulated"] for r in ratios],
                "mu": [r["mu"] for r in ratios],
                "z": [r["z"] for r in ratios],
            },
            dict(meta, density_target=target),
        )


# Every subcommand: name -> (handler, help, schema).  A schema maps a key to
# (parser, default); a None default means the key is unset.  The parser
# and the config file both take each key as `_flag(key)`, and every value,
# flag or file, goes through the schema's parser.
_COMMANDS: Dict[str, Tuple[Callable[[RunConfig], None], str, Dict[str, tuple]]] = {
    "ring-spectrum": (
        _cmd_ring_spectrum,
        "enumerate periodic Bethe states below a cutoff",
        {"n": (_positive_count, 2), "lam": (float, 1.0), "c": (float, 1.0),
         "imax": (float, 10.0)},
    ),
    "box-spectrum": (
        _cmd_box_spectrum,
        "pair levels in a hard-wall box",
        {"lam": (float, 1.0), "m": (int, 30), "c": (float, None),
         "alpha": (float, None), "n_levels": (_positive_count, 10)},
    ),
    "fig1": (
        _cmd_fig1,
        "spatial/momentum densities, bosonic vs fermionized, ground and "
        "first excited states",
        {"alpha": (float, 5.0), "lam": (float, 1.0), "m": (int, 60),
         "n_grid": (int, 257), "n_k": (int, 481), "n_x": (int, 513)},
    ),
    "work": (
        _cmd_work,
        "two-point-measurement work distribution for one (model, protocol, "
        "beta)",
        {"geometry": (str, "box"), "protocol": (str, "adiabatic"),
         "n": (int, 2), "lam_i": (float, 1.0), "lam_f": (float, 2.0),
         "c": (float, 1.0), "c_f": (float, None), "beta": (float, 1.0),
         "imax": (float, 10.0), "m": (int, 14), "v": (float, 5.0),
         "tau": (float, 1.0), "merge_tol": (float, 1e-9)},
    ),
    "fig2": (
        _cmd_fig2,
        "work distributions for a moving wall across couplings and "
        "temperatures",
        {"c_list": (_floats, [0.1, 1.0, 10.0]),
         "beta_list": (_floats, [1.0, 0.1, 0.01]),
         "protocol": (str, "ramp"), "lam": (float, 1.0), "v": (float, 5.0),
         "tau": (float, 1.0), "m": (int, 14)},
    ),
    "duality-check": (
        _cmd_duality_check,
        "verify bosonic and fermionized pair states share densities but "
        "not momentum distributions",
        {"alpha": (float, 5.0), "lam": (float, 1.0), "m": (int, 40),
         "states": (_positive_count, 2)},
    ),
    "convergence": (
        _cmd_convergence,
        "basis-size scan: levels and cusp residuals",
        {"alpha": (float, 5.0), "lam": (float, 1.0),
         "m_list": (_ints, [20, 40, 60]), "n_levels": (_positive_count, 6)},
    ),
    "eos": (
        _cmd_eos,
        "pressure/density isotherm and cluster coefficients",
        {"beta": (float, 1.0), "c": (float, 1.0),
         "mu_grid": (_grid, np.linspace(-5.0, 0.0, 11)),
         "hbar_sweep": (_floats, None), "density": (float, 0.1)},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualgas",
        description="Spectra, work statistics and thermodynamics of "
        "contact-interacting 1-D gas pairs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, schema) in _COMMANDS.items():
        # a flag is taken whole: a prefix such as --c would otherwise
        # resolve to another flag (--config) on a command without --c
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config")
        for key in {**_GLOBAL_SCHEMA, **schema}:
            p.add_argument(_flag(key), dest=key)
    return parser


def _join_negative_values(argv: Sequence[str]) -> List[str]:
    """Rewrite `--opt -4:0:9` or `--opt -inf` as `--opt=-4:0:9` or `--opt=-inf`.

    argparse takes a token that starts with '-' for a flag unless it is a
    plain negative number; no dualgas option starts with a digit, '.', inf or nan.
    """
    out: List[str] = []
    for tok in argv:
        if (out and re.match(r"-(?:[0-9.]|inf|nan)", tok, re.IGNORECASE)
                and re.fullmatch(r"--[^=]+", out[-1])):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(
        _join_negative_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        cfg = _resolve(args)
        _COMMANDS[cfg.command][0](cfg)
    # LinAlgError subclasses ValueError, so it is caught first
    except (RuntimeError, ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"dualgas: numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"dualgas: config error: {exc}", file=sys.stderr)
        return 2
    return 0
