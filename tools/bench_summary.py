"""Summarise paired benchmark runs of a parent and a change as BENCH_<label>.json.

Each side is a directory of record files that ``bench/run.py`` wrote
(``<workload>-seed<seed>-trace0.json``, normally a checkout's ``bench/out``).
Runs of the two sides with the same workload and seed form a pair.  For every
workload and end-to-end metric the summary holds each side's median and
quartiles (inclusive method) over its runs, and in how many pairs the change
was better, in the direction ``BENCHMARK.json`` gives.  The machine line comes
from the records, with ``OPENBLAS_NUM_THREADS`` as this process sees it, so
run this in the environment the benchmark ran in.  Standard library only:

    python tools/bench_summary.py --label pr23 \\
        --parent ../parent/bench/out --change bench/out --out BENCH_pr23.json
"""

from __future__ import annotations

import argparse
import json
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


def summarise(parent: dict, change: dict, better: dict) -> dict:
    workloads = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if len(seeds) < 2:
            continue
        entry = {"seeds": seeds, "parent": {}, "change": {}, "change_better_in": {}}
        for metric, direction in better.items():
            before = [parent[(workload, s)]["metrics"][metric] for s in seeds]
            after = [change[(workload, s)]["metrics"][metric] for s in seeds]
            entry["parent"][metric] = spread(before)
            entry["change"][metric] = spread(after)
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (a - b) < 0 for a, b in zip(after, before))
            entry["change_better_in"][metric] = f"{wins}/{len(seeds)}"
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
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = load_records(args.parent), load_records(args.change)
    workloads = summarise(parent, change, better)
    if not workloads:
        raise SystemExit("no workload has two or more paired runs")
    runs = [parent[(w, s)] for w, e in workloads.items() for s in e["seeds"]]
    runs += [change[(w, s)] for w, e in workloads.items() for s in e["seeds"]]
    seconds = sorted({r["seconds"] for r in runs})
    summary = {"label": args.label, "machine": machine_line(runs),
               "seconds_per_run": seconds, "note": args.note, "workloads": workloads}
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    for workload, entry in workloads.items():
        for metric in better:
            p, c = entry["parent"][metric], entry["change"][metric]
            print(f"{workload:9s} {metric:10s} {p['median']:.4g} -> {c['median']:.4g} "
                  f"(parent IQR {p['q3'] - p['q1']:.3g}; change better in "
                  f"{entry['change_better_in'][metric]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
