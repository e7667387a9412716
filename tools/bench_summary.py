"""Summarise paired benchmark runs of a parent and a change as BENCH_<label>.json.

Each side is a directory of record files that ``bench/run.py`` wrote
(``<workload>-seed<seed>-trace0.json``, normally a checkout's ``bench/out``).
Runs of the two sides with the same workload and seed form a pair.  For every
workload and end-to-end metric the summary holds each side's median and
quartiles (inclusive method) over its runs, and a verdict against the
metric's bound in ``BENCHMARK.json``, in the direction it gives:

- ``change_better_in`` is the number of pairs in which the change was better;
- ``worse_by`` is (change median - parent median) / parent median, its sign
  flipped where higher is better, so that it is positive when the change is
  worse;
- the verdict is ``worse`` when ``worse_by`` exceeds the bound, else
  ``unresolved`` when the parent's IQR / median exceeds the bound, unless
  every change run beats every parent run, else ``within bound``;
- ``gain`` holds when the change wins at least 9/10 of the pairs and its
  median is better than the parent's by more than the parent's IQR.

Each verdict is also printed, one line per workload and metric.  The machine
line comes from the records, with ``OPENBLAS_NUM_THREADS`` as this process
sees it, so run this in the environment the benchmark ran in.  Standard
library only:

    python tools/bench_summary.py --label <label> \\
        --parent ../parent/bench/out --change bench/out --out BENCH_<label>.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_records(directory: Path) -> dict:
    """{(workload, seed): record} for the untraced records in ``directory``."""
    records = {}
    for path in sorted(directory.glob("*-seed*-trace0.json")):
        record = json.loads(path.read_text())
        if not record.get("smoke"):
            records[(record["workload"], record["seed"])] = record
    return records


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def verdict(before, after, better: str, bound: float) -> dict:
    """The verdict on one metric from its paired runs, ``before[i]`` the
    parent's and ``after[i]`` the change's run of pair i; ``better`` is
    "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    # costs: the values signed so that lower is better
    cost_before = [sign * v for v in before]
    cost_after = [sign * v for v in after]
    p, c = spread(cost_before), spread(cost_after)
    pm, cm, iqr = p["median"], c["median"], p["q3"] - p["q1"]
    worse_by = (cm - pm) / abs(pm) if pm else math.copysign(math.inf, cm) if cm else 0.0
    wins = sum(a < b for a, b in zip(cost_after, cost_before))
    if worse_by > bound:
        result = "worse"
    elif iqr > bound * abs(pm) and not max(cost_after) < min(cost_before):
        result = "unresolved"
    else:
        result = "within bound"
    return {"worse_by": worse_by, "bound": bound, "verdict": result,
            "change_better_in": f"{wins}/{len(before)}",
            "gain": 10 * wins >= 9 * len(before) and pm - cm > iqr}


def summarise(parent: dict, change: dict, metrics: dict) -> dict:
    """Per workload with two or more pairs: its seeds and, for each metric
    of ``metrics`` ({name: (better, bound)}), each side's spread and the
    verdict."""
    workloads = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if len(seeds) < 2:
            continue
        entry = {"seeds": seeds, "parent": {}, "change": {}, "verdict": {}}
        for metric, (better, bound) in metrics.items():
            before = [parent[(workload, s)]["metrics"][metric] for s in seeds]
            after = [change[(workload, s)]["metrics"][metric] for s in seeds]
            entry["parent"][metric] = spread(before)
            entry["change"][metric] = spread(after)
            entry["verdict"][metric] = verdict(before, after, better, bound)
        workloads[workload] = entry
    return workloads


def machine_line(records) -> dict:
    machines = {json.dumps(r["machine"], sort_keys=True) for r in records}
    if len(machines) != 1:
        raise SystemExit(f"the records come from {len(machines)} different machine lines")
    m = json.loads(machines.pop())
    return {"nproc": m["nproc"], "numpy": m["numpy"], "python": m["python"],
            "blas": m["blas"], "blas_threads": m["blas_threads"],
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    parent, change = load_records(args.parent), load_records(args.change)
    workloads = summarise(parent, change, metrics)
    if not workloads:
        raise SystemExit("no workload has two or more paired runs")
    runs = [parent[(w, s)] for w, e in workloads.items() for s in e["seeds"]]
    runs += [change[(w, s)] for w, e in workloads.items() for s in e["seeds"]]
    seconds = sorted({r["seconds"] for r in runs})
    summary = {"label": args.label, "machine": machine_line(runs),
               "seconds_per_run": seconds, "note": args.note, "workloads": workloads}
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for workload, entry in workloads.items():
        for metric in metrics:
            p, c = entry["parent"][metric], entry["change"][metric]
            v = entry["verdict"][metric]
            print(f"{workload:9s} {metric:10s} {p['median']:.4g} -> {c['median']:.4g} "
                  f"(parent IQR {p['q3'] - p['q1']:.3g}; change better in "
                  f"{v['change_better_in']}) worse by {v['worse_by']:+.1%} "
                  f"(bound {v['bound']:.0%}): {v['verdict']}"
                  f"{'; gain' if v['gain'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
