"""Outside-in layer tracing of the CLI, and the per-layer metrics it yields.

Run as a script, this is the traced child: it imports `dualgas.cli`,
replaces the public functions of `boxspec`, `work`, `eos`, `ringspec` and
`output` (and the writer names `cli` bound at import) with span
recorders, then calls `dualgas.cli.main(argv)` once per op in this one
process.  Calls made inside the package go through those module
attributes, so nested layers are caught too; nothing inside the package
is edited.  Spans stay in memory and are written once, at the end, with
the recorders' own cost measured in the same process (`span_cost`):

    python3 perfbench/tracer.py OPS_JSON SPANS_JSON

OPS_JSON holds a list of argv lists (each with its own `--out-dir`).
Imported as a module, `layer_metrics` turns a spans file into the
per-layer metrics; the importing process never imports `dualgas`.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# span record fields
NAME, START, END, PARENT, OP, RAISED, INFO = range(7)

WRAPPED_MODULES = ("boxspec", "work", "eos", "ringspec", "output")
CLI_WRITERS = ("write_csv", "write_json", "write_svg_heatmap")
# Called once per CSV cell: a span would cost about as much as the call,
# so its time stays in the self time of output.write_csv.
UNWRAPPED = {"output.format_value"}


def _csv_info(args, kwargs, result):
    columns = kwargs.get("columns", args[1] if len(args) > 1 else {})
    rows = len(next(iter(columns.values()))) if columns else 0
    return [rows, result.stat().st_size]


# Counts recorded at a boundary, from its arguments and result.  They run
# after the span closes, so their cost lands in the caller's self time.
_INFO: Dict[str, Callable] = {
    "boxspec.unit_pair_operators": lambda a, k, r: int(k.get("cutoff", a[0] if a else 0)),
    "boxspec.diagonalize": lambda a, k, r: int(r.basis.dim),
    "work.propagate_ramp": lambda a, k, r: int(r.n_rhs_evals),
    "work.merge_atoms": lambda a, k, r: [len(a[0]), len(r[0])],
    "ringspec.solve_bethe_batch": lambda a, k, r: int(r[0].shape[0]),
    "eos.solve_yang_yang": lambda a, k, r: int(r.iterations),
    "output.write_csv": _csv_info,
    "output.write_json": lambda a, k, r: r.stat().st_size,
    "output.write_svg_heatmap": lambda a, k, r: r.stat().st_size,
}


class Recorder:
    """Span store for one single-threaded process (parents come from a stack)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None
        # time spent in the _INFO counters, which no span covers
        self.info_s = 0.0

    def wrap(self, name: str, fn: Callable) -> Callable:
        info = _INFO.get(name)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = [name, 0.0, 0.0, parent, self.op, False, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                t = time.perf_counter()
                rec[INFO] = info(args, kwargs, result)
                self.info_s += time.perf_counter() - t
            return result

        return recorded


def span_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds a span recorder adds to one call: median over repeats of
    (wrapped - bare) time of a no-op, per call."""
    def noop():
        return None

    probe = Recorder()
    wrapped = probe.wrap("calibration", noop)
    costs = []
    for _ in range(repeats):
        probe.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _install(rec: Recorder, modules: Dict[str, object], cli) -> None:
    for short, mod in modules.items():
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and name not in UNWRAPPED):
                setattr(mod, attr, rec.wrap(name, obj))
    for attr in CLI_WRITERS:
        setattr(cli, attr, getattr(modules["output"], attr))


def _child(ops_path: str, spans_path: str) -> int:
    t0 = time.perf_counter()
    import importlib

    import dualgas.cli as cli

    import_s = time.perf_counter() - t0
    modules = {m: importlib.import_module(f"dualgas.{m}") for m in WRAPPED_MODULES}
    rec = Recorder()
    _install(rec, modules, cli)
    main = rec.wrap("cli.main", cli.main)
    with open(ops_path) as fh:
        ops = json.load(fh)
    codes = []
    for i, argv in enumerate(ops):
        rec.op = i
        try:
            codes.append(main(argv))
        except SystemExit as exc:  # argparse rejects its argv
            codes.append(exc.code if isinstance(exc.code, int) else 1)
        except Exception:
            # one failing op must not lose the spans of the others
            traceback.print_exc()
            codes.append(1)
    # what the recorders cost, measured in this process after the ops
    overhead_s = len(rec.spans) * span_cost() + rec.info_s
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "exit_codes": codes,
                   "overhead_s": overhead_s, "spans": rec.spans}, fh)
    return 0


# --------------------------------------------------------------------------
# Per-layer metrics from a spans file
# --------------------------------------------------------------------------


def _ancestors(spans: List[list], i: int):
    p = spans[i][PARENT]
    while p is not None:
        yield spans[p][NAME]
        p = spans[p][PARENT]


def _tally(spans: List[list]):
    """Per-function inclusive time, self time, calls, raises and counts."""
    child_time = defaultdict(float)
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    raised = defaultdict(int)
    info = defaultdict(list)
    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        calls[name] += 1
        raised[name] += rec[RAISED]
        self_s[name] += dur - child_time[i]
        # a call nested in a call of the same function is already counted
        if name not in _ancestors(spans, i):
            s[name] += dur
        if rec[INFO] is not None:
            info[name].append((rec[OP], rec[INFO]))
    return s, self_s, calls, raised, info


def layer_metrics(doc: dict) -> Dict[str, float]:
    """Per-layer metrics: `<module>.<function>.<stat>` plus a few ratios.

    `s` is inclusive time (calls nested in a call of the same function are
    not counted twice), `self_s` is time minus child spans, `calls` counts
    calls and `raised` the calls that raised.
    """
    spans = doc["spans"]
    s, self_s, calls, raised, info = _tally(spans)

    m: Dict[str, float] = {"setup.import_s": doc["import_s"]}
    for name in ("cli.main", "output.write_csv", "boxspec.diagonalize",
                 "work.propagate_ramp", "work.sudden_coupling_distribution",
                 "work.ramp_distribution", "work.adiabatic_box_distribution",
                 "work.adiabatic_ring_distribution", "ringspec.enumerate_states"):
        m[f"{name}.self_s"] = self_s[name]
    for name in ("cli.main", "output.write_svg_heatmap",
                 "boxspec.unit_pair_operators", "boxspec.contact_expectation",
                 "boxspec.momentum_density", "boxspec.spatial_density",
                 "boxspec.cusp_check", "work.merge_atoms",
                 "work.kolmogorov_distance", "ringspec.solve_bethe_batch",
                 "ringspec.spectral_tail_bound", "eos.solve_yang_yang",
                 "eos.virial_ratio", "eos.fugacity_coefficients"):
        m[f"{name}.s"] = s[name]
    for name in ("boxspec.unit_pair_operators", "boxspec.diagonalize",
                 "boxspec.momentum_density", "eos.solve_yang_yang"):
        m[f"{name}.calls"] = calls[name]
    m["eos.solve_yang_yang.raised"] = raised["eos.solve_yang_yang"]
    m["eos.solve_yang_yang.iterations"] = sum(
        v for _, v in info["eos.solve_yang_yang"])

    csv = [v for _, v in info["output.write_csv"]]
    m["output.write_csv.rows"] = sum(r for r, _ in csv)
    m["output.bytes"] = sum(b for _, b in csv) + sum(
        v for w in ("output.write_json", "output.write_svg_heatmap")
        for _, v in info[w])

    # a cache can only help within one op: each op is its own process
    cutoffs = info["boxspec.unit_pair_operators"]
    m["boxspec.unit_pair_operators.distinct_frac"] = (
        len(set(cutoffs)) / len(cutoffs) if cutoffs else 0.0)
    m["boxspec.diagonalize.dim_max"] = max(
        (v for _, v in info["boxspec.diagonalize"]), default=0)
    m["work.propagate_ramp.rhs_evals"] = sum(
        v for _, v in info["work.propagate_ramp"])
    merges = [v for _, v in info["work.merge_atoms"]]
    atoms_in = sum(a for a, _ in merges)
    m["work.merge_atoms.atoms_in"] = atoms_in
    m["work.merge_atoms.merge_ratio"] = (
        sum(b for _, b in merges) / atoms_in if atoms_in else 0.0)
    m["ringspec.solve_bethe_batch.rows"] = sum(
        v for _, v in info["ringspec.solve_bethe_batch"])

    # isotherm points are the density calls the CLI makes directly; the
    # virial sweep's root finding solves on top of them and is not counted
    points = sum(1 for rec in spans if rec[NAME] == "eos.density"
                 and rec[PARENT] is not None
                 and spans[rec[PARENT]][NAME] == "cli.main")
    isotherm_solves = sum(
        1 for i, rec in enumerate(spans) if rec[NAME] == "eos.solve_yang_yang"
        and "eos.virial_ratio" not in _ancestors(spans, i))
    m["eos.solves_per_point"] = isotherm_solves / points if points else 0.0

    # share of cli.main.s that is the recorders' own time: spans times the
    # per-span cost, plus the counters above
    m["trace.overhead_frac"] = doc["overhead_s"] / s["cli.main"]
    return m


def self_times(doc: dict) -> Dict[str, tuple]:
    """(self time, calls) of every traced function; they sum to cli.main.s."""
    _, self_s, calls, _, _ = _tally(doc["spans"])
    return {name: (self_s[name], calls[name]) for name in self_s}


if __name__ == "__main__":
    sys.exit(_child(*sys.argv[1:3]))
