#!/usr/bin/env python3
"""Benchmark of graphonsp: the sweep, operator and motifs workloads.

    python3 bench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

A run, set-up included, lasts about ``--seconds``.  ``--trace 0`` times
passes of the workload with tracing off and prints the end-to-end metrics.
``--trace 1`` runs untraced passes for half the remaining time and traced
passes for the other half, and prints the per-layer metrics, the tracing
overhead among them.  ``--workload all`` runs the three workloads one after
another, each in its own process.  ``--smoke`` runs at tiny sizes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
report the machine, every correctness check and each metric with its unit;
a fuller copy, and with ``--trace 1`` the spans, is written under bench/out/.

The library is imported from ``src/`` beside this directory, never from an
installed copy; without it the run exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("sweep", "operator", "motifs")

SETUP_PROBES = 5
MIN_PASSES = 3

END_TO_END_UNITS = {
    "run_s": "s",
    "run_s_p90": "s",
    "cpu_s": "s",
    "peak_mb": "MB",
    "setup_s": "s",
    "pass_rate": "ratio",
}


def _named(name, key):
    return lambda s: s["names"].get(name, {}).get(key, 0)


def _counter(name, key):
    return lambda s: s["names"].get(name, {}).get("counters", {}).get(key, 0)


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


# name -> (unit, value from one traced pass's summary).  The peak, failure and
# overhead metrics come from the run as a whole and are filled in separately.
PER_LAYER = {
    "kernels.eval.calls": ("count", _named("kernels.eval", "calls")),
    "kernels.eval.busy_s": ("s", _named("kernels.eval", "busy_s")),
    "kernels.eval.points": ("count", _counter("kernels.eval", "points")),
    "sampling.sample_graph.calls": ("count", _named("sampling.sample_graph", "calls")),
    "sampling.sample_graph.busy_s": ("s", _named("sampling.sample_graph", "busy_s")),
    "sampling.sample_graph.self_s": ("s", _named("sampling.sample_graph", "self_s")),
    "sampling.sample_graph.peak_mb": ("MB", None),
    "sampling.pairs": ("count", _counter("sampling.sample_graph", "pairs")),
    "sampling.scaled_adjacency.busy_s": ("s", _named("sampling.scaled_adjacency", "busy_s")),
    "sampling.scaled_adjacency.bytes": ("bytes", _counter("sampling.scaled_adjacency", "bytes")),
    "galerkin.build_fg_shift.calls": ("count", _named("galerkin.build_fg_shift", "calls")),
    "galerkin.build_fg_shift.busy_s": ("s", _named("galerkin.build_fg_shift", "busy_s")),
    "galerkin.build_fg_shift.peak_mb": ("MB", None),
    "galerkin.compute_tilde_w.busy_s": ("s", _named("galerkin.compute_tilde_w", "busy_s")),
    "galerkin.weight_correct.busy_s": ("s", _named("galerkin.weight_correct", "busy_s")),
    "galerkin.fredholm_solve.busy_s": ("s", _named("galerkin.fredholm_solve", "busy_s")),
    "galerkin.raw_bytes": ("bytes", _counter("galerkin.compute_tilde_w", "raw_bytes")),
    "chebyshev.project_signal.calls": ("count", _named("chebyshev.project_signal", "calls")),
    "chebyshev.project_signal.busy_s": ("s", _named("chebyshev.project_signal", "busy_s")),
    "chebyshev.resample.calls": ("count", _named("chebyshev.resample", "calls")),
    "chebyshev.resample.busy_s": ("s", _named("chebyshev.resample", "busy_s")),
    "filtering.apply_graph_filter.busy_s": ("s", _named("filtering.apply_graph_filter", "busy_s")),
    "filtering.matvec_flops": ("flop", _counter("filtering.apply_graph_filter", "matvec_flops")),
    "filtering.design_filter.busy_s": ("s", _named("filtering.design_filter", "busy_s")),
    "filtering.design_filter.rank_ratio": (
        "ratio", _ratio(_counter("filtering.design_filter", "rank_ratio"),
                        _named("filtering.design_filter", "calls"))),
    "filtering.fg_filter_operator.busy_s": ("s", _named("filtering.fg_filter_operator", "busy_s")),
    "filtering.filter_pipeline.busy_s": ("s", _named("filtering.filter_pipeline", "busy_s")),
    "homdensity.hom_count.calls": ("count", _named("homdensity.hom_count", "calls")),
    "homdensity.hom_count.busy_s": ("s", _named("homdensity.hom_count", "busy_s")),
    "homdensity.hom_count.failed": ("count", None),
    "homdensity.hom_density_graphon.busy_s": (
        "s", _named("homdensity.hom_density_graphon", "busy_s")),
    "homdensity.mc_samples_per_s": (
        "1/s", _ratio(_counter("homdensity.hom_density_graphon", "samples"),
                      _named("homdensity.hom_density_graphon", "busy_s"))),
    "steps.apply_empirical_operator.calls": (
        "count", _named("steps.apply_empirical_operator", "calls")),
    "steps.apply_empirical_operator.busy_s": (
        "s", _named("steps.apply_empirical_operator", "busy_s")),
    "experiments.run_filter_convergence.busy_s": (
        "s", _named("experiments.run_filter_convergence", "busy_s")),
    "experiments.run_lowpass.busy_s": ("s", _named("experiments.run_lowpass", "busy_s")),
    "experiments.cells": ("count", lambda s: s["cells"]),
    "experiments.parallelism": (
        "ratio", _ratio(lambda s: s["pool_worker_busy_s"], lambda s: s["pool_wall_s"])),
    "cli.dispatch.busy_s": ("s", _named("cli.dispatch", "busy_s")),
    "cli.dispatch.self_s": ("s", _named("cli.dispatch", "self_s")),
    "trace.overhead_s": ("s", None),
}

# The seed-shape claims of the benchmark's README, as shares computed from
# the traced passes: numerator span names, denominator span names (None for
# the summed thread-busy time of the pass).
SHAPE = {
    "weight_correct_of_build_fg_shift": (("galerkin.weight_correct",),
                                         ("galerkin.build_fg_shift",)),
    "sample_graph_and_eval_of_busy": (("sampling.sample_graph", "kernels.eval"), None),
    "hom_count_of_busy": (("homdensity.hom_count",), None),
    "galerkin_of_busy": (("galerkin.",), None),
}


def import_library():
    """Put the checkout's src/ first on the path and import graphonsp from it."""
    if not (SRC / "graphonsp" / "__init__.py").is_file():
        sys.exit(f"error: graphonsp sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphonsp
    if Path(graphonsp.__file__).resolve().parent != SRC / "graphonsp":
        sys.exit(f"error: graphonsp was imported from {graphonsp.__file__}, not {SRC}")


@contextlib.contextmanager
def work_dir():
    path = OUT_DIR / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def machine_info():
    import numpy as np
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Threads OpenBLAS uses, asked of the library numpy loaded."""
    import ctypes
    import glob
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def setup_probe(args):
    """Child mode: time import, graphon construction and input generation."""
    start = time.perf_counter()
    import_library()
    from workloads import WORKLOADS
    with work_dir() as wd:
        WORKLOADS[args.workload].setup(args.seed, args.smoke, wd)
        elapsed = time.perf_counter() - start
    print(repr(elapsed))


def measure_setup(args, probes):
    """Set-up times of fresh interpreters, started one at a time, since an
    import can be timed only once per process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(probes):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: set-up probe exited with code {proc.returncode}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def timed_passes(wl, state, refs, checks, deadline, min_passes, before=None, after=None):
    """Run passes until the next one would end past ``deadline`` (a
    perf_counter reading).  Only the pass itself is timed; the hooks and the
    checks of its outputs run outside the timed span."""
    walls, cpus = [], []
    while True:
        if before is not None:
            before()
        c0, t0 = time.process_time(), time.perf_counter()
        out = wl.run_pass(state)
        t1, c1 = time.perf_counter(), time.process_time()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        if after is not None:
            after()
        wl.check(state, refs, out, checks)
        del out
        if (len(walls) >= min_passes
                and time.perf_counter() + statistics.median(walls) > deadline):
            return walls, cpus


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(wl, state, refs, checks, args, setup_times):
    walls, cpus = timed_passes(wl, state, refs, checks, args.deadline, args.min_passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "run_s": statistics.median(walls),
        "run_s_p90": p90(walls),
        "cpu_s": statistics.median(cpus),
        "peak_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setup_times),
        "pass_rate": (checks.attempted - checks.failed) / checks.attempted,
    }
    detail = {"passes": len(walls), "run_s_samples": walls, "cpu_s_samples": cpus,
              "setup_s_samples": setup_times}
    return values, detail


def per_layer(wl, state, refs, checks, args, wd):
    """Untraced passes for half the remaining time, then one traced set-up
    and traced passes; per-layer values are medians over the traced passes."""
    import tracing

    now = time.perf_counter()
    plain, _ = timed_passes(wl, state, refs, checks, (now + args.deadline) / 2, 1)
    tracer = tracing.Tracer()
    main_thread = threading.get_ident()
    summaries, pass_spans = [], []

    def collect():
        tracer.active = False
        pass_spans.append(tracer.spans)
        summaries.append(tracing.summarize(setup_spans + tracer.spans, main_thread))
        tracer.spans = []

    def start():
        tracer.active = True

    hom_failed_before = checks.failed_in_layer("homdensity.hom_count")
    tracer.install()
    try:
        # One traced set-up, so that work done there (the motifs graph
        # sample) shows in the layers; its spans join every traced pass.
        tracer.active = True
        wl.setup(args.seed, args.smoke, wd)
        tracer.active = False
        setup_spans, tracer.spans = tracer.spans, []
        traced, _ = timed_passes(wl, state, refs, checks, args.deadline, 1, start, collect)
        peaks = tracer.replay_peaks()
    finally:
        tracer.active = False
        tracer.uninstall()

    values = {}
    for name, (_, value_of) in PER_LAYER.items():
        if value_of is not None:
            values[name] = statistics.median(value_of(s) for s in summaries)
    values["sampling.sample_graph.peak_mb"] = peaks.get("sampling.sample_graph", 0.0)
    values["galerkin.build_fg_shift.peak_mb"] = peaks.get("galerkin.build_fg_shift", 0.0)
    values["homdensity.hom_count.failed"] = (
        checks.failed_in_layer("homdensity.hom_count") - hom_failed_before) / len(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    shape = {}
    for key, (num, den) in SHAPE.items():
        shares = []
        for s in summaries:
            d = (tracing.outer_busy(s, den) if den else s["thread_busy_s"])
            shares.append(tracing.outer_busy(s, num) / d if d else 0.0)
        shape[key] = statistics.median(shares)
    detail = {"untraced_passes": len(plain), "traced_passes": len(traced),
              "untraced_run_s_samples": plain, "traced_run_s_samples": traced,
              "shape": shape,
              "layers": [{k: v for k, v in s.items() if k != "by_id"} for s in summaries],
              "setup_spans": [list(sp) for sp in setup_spans],
              "spans": [[list(sp) for sp in spans] for spans in pass_spans]}
    return values, detail


def run_workload(args):
    if not args.trace:
        setup_times = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    import_library()
    from workloads import KNOWN_DEFECTS, WORKLOADS, Checks

    wl = WORKLOADS[args.workload]
    checks = Checks()
    with work_dir() as wd:
        state = wl.setup(args.seed, args.smoke, wd)
        refs = wl.oracles(state)
        if args.trace:
            values, detail = per_layer(wl, state, refs, checks, args, wd)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values, detail = end_to_end(wl, state, refs, checks, args, setup_times)
            units = END_TO_END_UNITS

    machine = machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, e in checks.results.items():
        status = "ok  " if not e["failed"] else "FAIL"
        note = f" [known defect: {KNOWN_DEFECTS[name]}]" if name in KNOWN_DEFECTS else ""
        detail_text = f": {e['detail']}" if e["detail"] else ""
        print(f"check {status} {name} ({e['ok']}/{e['ok'] + e['failed']} passes)"
              f"{detail_text}{note}")
    error_rate = checks.failed / checks.attempted
    print(f"error_rate {error_rate!r} ({checks.failed} failed of {checks.attempted} checks)")
    if args.trace:
        print(f"passes: {detail['untraced_passes']} untraced, "
              f"{detail['traced_passes']} traced")
        for key, share in detail["shape"].items():
            print(f"shape {key} {share!r}")
    else:
        print(f"passes: {detail['passes']}")
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                   "seconds": args.seconds, "machine": machine, "checks": checks.results,
                   "error_rate": error_rate, "metrics": values, "units": units,
                   "detail": detail}, fh)
    print(f"record: {record.relative_to(BENCH_DIR.parent)}")

    result = {
        "correct": not checks.unexpected_failures(),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process, so that peak memory stays per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a minimum of passes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.min_passes = 2 if args.smoke else MIN_PASSES
    # The whole run, set-up included, ends about --seconds after it started.
    args.deadline = START + args.seconds
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
