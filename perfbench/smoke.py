"""Untimed smoke pass: every README command once, plus probes of known defects.

The pass is reported by name and kept out of every workload's metrics, so
a later fix of a known defect shows here as `fixed` and never as a change
in a workload's wall time.  Each entry runs as a fresh `python -m dualgas`
process; the artifacts of commands expected to succeed go through the same
checks as the workloads' ops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from checks import check_op

# Free-boson second cluster coefficient at beta = hbar = 1: the interacting
# b2 must lie between it and the hard-core value, never above.
FREE_BOSON_B2 = math.sqrt(math.pi / 2.0) / 2.0


@dataclass
class Entry:
    name: str
    argv: List[str]
    # None: the command must exit 0 and pass its checks.  Otherwise a
    # known defect: the description, and a test that it is still present,
    # given (exit code, log text, out dir).
    defect: Optional[str] = None
    present: Optional[Callable[[int, str, Path], bool]] = None


def _b2_above_free_boson(code: int, log: str, out: Path) -> bool:
    if code != 0:
        return False
    co = json.loads((out / "eos_coefficients.json").read_text())
    return co["b2"] > FREE_BOSON_B2


def _type_error(code: int, log: str, out: Path) -> bool:
    return code == 1 and "TypeError" in log


# The README's CLI section, verbatim apart from `--out-dir`.
ENTRIES = [
    Entry("readme-ring-spectrum",
          ["ring-spectrum", "--n", "2", "--lambda", "20", "--c", "10", "--imax", "9.5"]),
    Entry("readme-box-spectrum", ["box-spectrum", "--alpha", "5", "--m", "40"]),
    Entry("readme-work-ramp",
          ["work", "--geometry", "box", "--protocol", "ramp", "--v", "5",
           "--tau", "0.2", "--beta", "1", "--m", "14"]),
    Entry("readme-fig1", ["fig1", "--alpha", "5", "--m", "16"]),
    Entry("readme-fig2",
          ["fig2", "--c-list", "0.5,1", "--beta-list", "1,0.1", "--m", "8",
           "--threads", "3"]),
    Entry("readme-duality-check", ["duality-check", "--alpha", "5", "--m", "16"]),
    Entry("readme-convergence", ["convergence", "--m-list", "8,16,24"]),
    Entry("readme-eos",
          ["eos", "--beta", "1", "--c", "1", "--mu-grid", "-4:0:9",
           "--hbar-sweep", "1,0.3,0.1", "--density", "0.1"],
          defect="argparse reads the negative --mu-grid start as a flag "
                 "and exits 2; the workloads use --mu-grid=",
          present=lambda code, log, out: code == 2 and "expected one argument" in log),
    Entry("sudden-wall-finite-c",
          ["work", "--geometry", "box", "--protocol", "sudden-wall"],
          defect="tpm_distribution forwards cutoff= to a route that takes "
                 "cutoff_i/cutoff_f: exit 1 with a TypeError",
          present=_type_error),
    Entry("sudden-wall-hard-core",
          ["work", "--geometry", "box", "--protocol", "sudden-wall", "--c", "inf"],
          defect="as sudden-wall-finite-c, on the hard-core route",
          present=_type_error),
    Entry("eos-b2-free-boson-bound",
          ["eos", "--beta", "1", "--c", "1", "--mu-grid=-4:0:9",
           "--hbar-sweep", "1,0.3,0.1", "--density", "0.1"],
          defect=f"eos_coefficients.json b2 at beta = C = 1 exceeds the "
                 f"free-boson value sqrt(pi/2)/2 = {FREE_BOSON_B2:.4f}",
          present=_b2_above_free_boson),
]


def run_smoke(run_op: Callable, work: Path) -> dict:
    """Run every entry; `run_op(argv, out, log)` returns (seconds, rss_mb, code).

    Statuses: `ok`, `FAIL` (a command expected to succeed did not),
    `known-defect` (still present), `fixed` (the defect's command now exits
    0 and passes its checks) and `CHANGED` (neither).
    """
    report = {"commands": len(ENTRIES), "ok": [], "known_defects": [],
              "fixed": [], "unexpected": []}
    for i, entry in enumerate(ENTRIES):
        out = work / f"cmd{i}"
        out.mkdir(parents=True)
        log_path = work / f"cmd{i}.log"
        seconds, _, code = run_op(entry.argv, out, log_path)
        log = log_path.read_text(errors="replace")
        fails = check_op(entry.argv, out) if code == 0 else [f"exit {code}"]
        if entry.defect is None:
            status = "ok" if not fails else "FAIL"
        elif entry.present(code, log, out):
            status = "known-defect"
        else:
            status = "fixed" if not fails else "CHANGED"
        key = {"ok": "ok", "known-defect": "known_defects",
               "fixed": "fixed"}.get(status, "unexpected")
        report[key].append(entry.name)
        print(f"smoke  {status:<12} {seconds:7.2f} s  exit {code}  "
              f"{entry.name}: dualgas {' '.join(entry.argv)}", flush=True)
        if status == "known-defect":
            print(f"         defect: {entry.defect}", flush=True)
        for msg in fails if status in ("FAIL", "CHANGED") else []:
            print(f"         {msg}", flush=True)
    return report
