"""Benchmark of the `python -m dualgas` CLI: end-to-end runs and traced layers.

    python3 perfbench/run.py --workload {spectra,tpm,thermo} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all     # smoke pass + every workload
    python3 perfbench/run.py --workload smoke   # smoke pass only

A workload (see workloads.py) is a fixed list of CLI commands, "ops".  A
pass runs every op once, each as a fresh process, as a user would.  One
benchmark process runs everything in sequence, one child at a time.

`--trace 0` measures, for the end-to-end metrics of BENCHMARK.json:
  wall_s       median over passes of the pass time (sum of op times);
               passes repeat until `--seconds` of them have run
  setup_s      median time of 7 fresh `python -m dualgas --help`, 4 before
               the passes and 3 after
  peak_rss_mb  median over passes of the largest ru_maxrss of any op
  ok_frac      ops that exited 0 and passed every check, over ops run
               (1 - fail_frac)
`--trace 1` runs one timed pass, then every op again in one traced child
(tracer.py) and reports the per-layer metrics of BENCHMARK.json.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Artifacts
and logs go under .perfbench_work/ in the checkout, emptied at each start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import checks
import smoke
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Run once, untimed, before anything is measured: it reports the versions
# and, by importing the package, loads what every op reads into the file
# cache and writes the package's bytecode.
_PROBE = """
import json, platform, numpy, scipy, dualgas.cli
def blas(mod):
    try:
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError, ValueError):
        return "unknown"
    return f"{dep.get('name')} {dep.get('version')}"
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}))
"""


def child_env() -> Dict[str, str]:
    """Environment for every child: this checkout's package, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in BLAS_VARS})
    return env


def run_child(cmd: List[str], env: Dict[str, str], log: Path) -> Tuple[float, float, int]:
    """Run cmd to completion: (wall seconds, peak RSS in MiB, exit code)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def dualgas_cmd(argv: List[str]) -> List[str]:
    return [sys.executable, "-m", "dualgas", *argv]


def environment(env: Dict[str, str], work: Path) -> dict:
    out = work / "probe.log"
    _, _, code = run_child([sys.executable, "-c", _PROBE], env, out)
    if code != 0:
        sys.exit(f"perfbench: cannot import numpy, scipy and dualgas; see {out}")
    versions = json.loads(out.read_text())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        **versions,
        **{var: env[var] for var in BLAS_VARS},
    }


def measure_setup(env: Dict[str, str], work: Path, count: int, tag: str) -> List[float]:
    times = []
    for i in range(count):
        log = work / f"setup_{tag}{i}.log"
        seconds, _, code = run_child(dualgas_cmd(["--help"]), env, log)
        if code != 0:
            sys.exit(f"perfbench: `python -m dualgas --help` exited {code}; "
                     f"see {log}")
        times.append(seconds)
    return times


def op_runner(env: Dict[str, str]):
    """run_op(argv, out, log): one op as a fresh process writing into out."""
    def run_op(argv: List[str], out: Path, log: Path):
        return run_child(dualgas_cmd([*argv, "--out-dir", str(out)]), env, log)
    return run_op


def run_pass(ops: List[List[str]], env: Dict[str, str], pass_dir: Path) -> List[dict]:
    """Every op once, each a fresh process; then (untimed) its checks."""
    run_op = op_runner(env)
    results = []
    for i, argv in enumerate(ops):
        out = pass_dir / f"op{i}"
        out.mkdir(parents=True)
        log = pass_dir / f"op{i}.log"
        seconds, rss, code = run_op(argv, out, log)
        fails = checks.check_op(argv, out) if code == 0 else [
            f"exit {code}: {_last_line(log)}"]
        results.append({"seconds": seconds, "rss_mb": rss, "exit": code,
                        "fails": fails, "digests": checks.digests(out)})
    return results


def _last_line(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def check_determinism(reference: List[dict], other: List[dict], label: str) -> None:
    """Artifacts of one invocation must be byte-identical on every run."""
    for ref, res in zip(reference, other):
        if ref["exit"] == 0 and res["exit"] == 0 and res["digests"] != ref["digests"]:
            differ = sorted(k for k in set(ref["digests"]) | set(res["digests"])
                            if ref["digests"].get(k) != res["digests"].get(k))
            res["fails"].append(f"{label}: artifacts differ from the first "
                                f"pass: {', '.join(differ)}")


def stats(values: List[float]) -> Tuple[float, float, float, int]:
    """(median, first quartile, third quartile, n); quartiles lie within the data."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3, len(values)


def print_ops(ops: List[List[str]], passes: List[List[dict]], label: str) -> None:
    for p, results in enumerate(passes):
        for argv, res in zip(ops, results):
            status = "ok" if not res["fails"] else "FAIL"
            print(f"{label} {p} {res['seconds']:7.2f} s {res['rss_mb']:7.1f} MiB  "
                  f"{status:<4} dualgas {' '.join(argv)}")
            for msg in res["fails"]:
                print(f"    {msg}")


def declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit, for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], kind: str) -> str:
    units = declared(kind)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not "
                           f"match the {kind} list of BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def timed(workload: str, seed: int, seconds: float, env, work: Path) -> dict:
    """Passes until `seconds` of passes have run, between setup samples."""
    ops = workloads.ops(workload, seed)
    # Set-up time drifts with the host's speed over tens of seconds, so
    # the samples are split between the start and the end of the run.
    setup = measure_setup(env, work, SETUP_SAMPLES - SETUP_SAMPLES // 2, "before")
    passes: List[List[dict]] = []
    measured = 0.0
    while not passes or measured < seconds:
        results = run_pass(ops, env, work / f"pass{len(passes)}")
        if passes:
            check_determinism(passes[0], results, f"pass {len(passes)}")
        passes.append(results)
        measured += sum(r["seconds"] for r in results)
    setup += measure_setup(env, work, SETUP_SAMPLES // 2, "after")
    return {"ops": ops, "setup": setup, "passes": passes}


def end_to_end(run: dict) -> Tuple[Dict[str, tuple], int, int]:
    """Per metric (median, q1, q3, n); ops attempted; ops failed."""
    passes = run["passes"]
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r["fails"])
    ok = 1.0 - failed / attempted
    table = {
        "wall_s": stats([sum(r["seconds"] for r in p) for p in passes]),
        "setup_s": stats(run["setup"]),
        "peak_rss_mb": stats([max(r["rss_mb"] for r in p) for p in passes]),
        "ok_frac": (ok, ok, ok, attempted),
    }
    return table, attempted, failed


def table_rows(workload: str, table: Dict[str, tuple], attempted: int,
               failed: int) -> List[tuple]:
    """Printable rows: every end-to-end metric, then fail_frac (n = ops run)."""
    units = declared("end_to_end")
    frac = failed / attempted
    return [(workload, k, units[k], v) for k, v in table.items()] + [
        (workload, "fail_frac", "ratio", (frac, frac, frac, attempted))]


def print_table(rows: List[Tuple[str, str, str, tuple]]) -> None:
    print(f"{'workload':<9} {'metric':<12} {'unit':<6} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'n':>3}")
    for workload, name, unit, (med, q1, q3, n) in rows:
        print(f"{workload:<9} {name:<12} {unit:<6} {med:10.4f} {q1:10.4f} "
              f"{q3:10.4f} {n:3d}")


def run_timed(workload: str, seed: int, seconds: float, env, work: Path) -> str:
    run = timed(workload, seed, seconds, env, work)
    print_ops(run["ops"], run["passes"], "pass")
    table, attempted, failed = end_to_end(run)
    print_table(table_rows(workload, table, attempted, failed))
    return result_line(failed == 0, attempted, failed,
                       {k: v[0] for k, v in table.items()}, "end_to_end")


def run_traced(workload: str, seed: int, env, work: Path) -> str:
    """One timed pass, then the same ops in-process in one traced child."""
    run = timed(workload, seed, 0.0, env, work)
    ops, timed_pass = run["ops"], run["passes"][0]
    traced_dir = work / "traced"
    traced_ops = []
    for i, argv in enumerate(ops):
        (traced_dir / f"op{i}").mkdir(parents=True)
        traced_ops.append([*argv, "--out-dir", str(traced_dir / f"op{i}")])
    ops_file, spans_file = work / "traced_ops.json", work / "spans.json"
    ops_file.write_text(json.dumps(traced_ops))
    _, _, code = run_child([sys.executable, str(HERE / "tracer.py"), str(ops_file),
                            str(spans_file)], env, work / "traced.log")
    if code != 0:
        sys.exit(f"perfbench: traced child exited {code}; see {work / 'traced.log'}")
    doc = json.loads(spans_file.read_text())
    traced = []
    for i, (argv, exit_code) in enumerate(zip(ops, doc["exit_codes"])):
        out = traced_dir / f"op{i}"
        fails = checks.check_op(argv, out) if exit_code == 0 else [f"exit {exit_code}"]
        traced.append({"seconds": 0.0, "rss_mb": 0.0, "exit": exit_code,
                       "fails": fails, "digests": checks.digests(out)})
    check_determinism(timed_pass, traced, "traced run")
    print_ops(ops, [timed_pass], "timed")
    for argv, res in zip(ops, traced):
        print(f"traced {'ok' if not res['fails'] else 'FAIL'} dualgas {' '.join(argv)}")
        for msg in res["fails"]:
            print(f"    {msg}")

    values = tracer.layer_metrics(doc)
    times = tracer.self_times(doc)
    by_module: Dict[str, float] = {}
    for name, (t, _) in times.items():
        module = "cli.main" if name == "cli.main" else name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + t
    print(f"cli.main.s {values['cli.main.s']:.3f} s = sum of self times: " + ", ".join(
        f"{module} {t:.3f} s" for module, t in sorted(by_module.items())))
    print(f"of which recorders: {doc['overhead_s']:.4f} s over {len(doc['spans'])} "
          f"spans (trace.overhead_frac {values['trace.overhead_frac']:.2e})")
    # a note only: the two runs differ in process start-up and first-call
    # costs and in the host's speed at the time, not just in the recorders
    wall = sum(r["seconds"] for r in timed_pass)
    in_process = wall - len(ops) * statistics.median(run["setup"])
    print(f"note: timed wall_s {wall:.3f} s minus {len(ops)} x setup_s = "
          f"{in_process:.3f} s, against traced cli.main.s")
    print("largest self times:")
    for name, (t, calls) in sorted(times.items(), key=lambda kv: -kv[1][0])[:12]:
        print(f"  {name:<40} {t:9.3f} s {calls:7d} calls")
    units = declared("per_layer")
    for name in units:
        print(f"layer {name:<44} {values[name]:14.6g} {units[name]}")
    attempted = 2 * len(ops)
    failed = sum(1 for r in timed_pass + traced if r["fails"])
    return result_line(failed == 0, attempted, failed, values, "per_layer")


def run_all(seed: int, seconds: float, env, work: Path) -> str:
    """Smoke pass, then a timed run of every workload; one summary table."""
    report = smoke.run_smoke(op_runner(env), work / "smoke")
    rows = []
    for name in workloads.WORKLOADS:
        (work / name).mkdir()
        run = timed(name, seed, seconds, env, work / name)
        print_ops(run["ops"], run["passes"], f"{name} pass")
        rows += table_rows(name, *end_to_end(run))
    print_table(rows)
    print(f"smoke: {len(report['ok'])} ok, known defects present: "
          f"{', '.join(report['known_defects']) or 'none'}; fixed: "
          f"{', '.join(report['fixed']) or 'none'}; unexpected: "
          f"{', '.join(report['unexpected']) or 'none'}")
    summary: Dict[str, dict] = {}
    for workload, name, _, (med, _, _, _) in rows:
        summary.setdefault(workload, {})[name] = med
    return json.dumps({"workloads": summary, "smoke": report})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "smoke", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "dualgas" / "cli.py").is_file():
        print(f"perfbench: no dualgas sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    record = environment(env, work)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    if args.workload == "smoke":
        line = json.dumps(smoke.run_smoke(op_runner(env), work))
    elif args.workload == "all":
        line = run_all(args.seed, args.seconds, env, work)
    elif args.trace:
        line = run_traced(args.workload, args.seed, env, work)
    else:
        line = run_timed(args.workload, args.seed, args.seconds, env, work)
    record["loadavg_after"] = list(os.getloadavg())
    print("env " + json.dumps(record, sort_keys=True))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
