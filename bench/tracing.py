"""Outside-in tracing of graphonsp: every public library function is rebound
to a wrapper that records a span, and the library source stays untouched.

A span is (id, parent id, name, thread id, start, end, counters).  The parent
is the innermost open span on the same thread, so a span opened in a worker
thread of the experiments pool starts a new root on that thread.  Spans are
kept in memory and written out by the caller when the run ends.

Counters are computed from array sizes of the arguments and results (the
"computed" counts: points, pairs, bytes, flops), so they repeat exactly for
identical inputs.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
import tracemalloc

import graphonsp
from graphonsp import (chebyshev, cli, experiments, filtering, galerkin,
                       homdensity, kernels, sampling, steps)

MODULES = (kernels, sampling, steps, chebyshev, galerkin, filtering,
           homdensity, experiments, cli)

# CSV writers stay unwrapped so that writing the experiment files counts in
# cli.dispatch's self time, next to argument parsing.
UNTRACED = frozenset({"records_to_csv", "curves_to_csv"})

# name -> f(result, *args, **kwargs) -> {counter: value}
COUNTERS = {
    "kernels.eval": lambda out, w, x, y: {"points": int(getattr(out, "size", 1))},
    "sampling.sample_graph": lambda g, *a, **k: {"pairs": g.n * (g.n - 1) // 2},
    "sampling.scaled_adjacency": lambda s, g: {"bytes": int(s.entries.nbytes)},
    "galerkin.compute_tilde_w": lambda o, w, p, n_pad: {"raw_bytes": int(o.entries.nbytes)},
    # dense matvecs of the iterated shift: 2*N^2 flops each, order-1 of them
    "filtering.apply_graph_filter":
        lambda y, s, h, x: {"matvec_flops": 2 * s.n * s.n * (h.order - 1)},
    "filtering.design_filter":
        lambda r, w_op, order, d, *a, **k: {"rank_ratio": r.rank_used / order},
    "homdensity.hom_density_graphon": lambda e, *a, **k: {"samples": e.samples},
}

# Calls whose memory peak is measured by replaying the largest one alone
# under tracemalloc after the traced passes; name -> size of a call.
PEAK_REPLAY = {
    "sampling.sample_graph": lambda w, n, *a, **k: n,
    "galerkin.build_fg_shift": lambda w, p, n: p * n,
}


class Tracer:
    """Collects spans while ``active``; inactive wrappers call straight through."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.largest = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        sizer = PEAK_REPLAY.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if sizer is not None:
                self._note_largest(name, sizer(*args, **kwargs), fn, args, kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if counter is not None and result is not None:
                    extra = counter(result, *args, **kwargs)
                self.spans.append((sid, parent, name, threading.get_ident(),
                                   start, end, extra))

        return traced

    def _note_largest(self, name, size, fn, args, kwargs):
        with self._lock:
            if name not in self.largest or size > self.largest[name][0]:
                self.largest[name] = (size, fn, args, kwargs)

    def install(self):
        """Rebind every public graphonsp function, wherever it is imported,
        and ``Graphon.eval`` on the class."""
        wrappers = {}
        for mod in MODULES + (graphonsp,):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("graphonsp.")
                        or obj.__name__ in UNTRACED):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self.wrap(name, obj)
                setattr(mod, attr, wrappers[obj])
                self._restore.append((mod, attr, obj))
        cls = kernels.Graphon
        self._restore.append((cls, "eval", cls.eval))
        cls.eval = self.wrap("kernels.eval", cls.eval)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def replay_peaks(self):
        """Peak traced memory (MB) of the largest call of each PEAK_REPLAY
        function, replayed alone with tracing off."""
        was_active, self.active = self.active, False
        peaks = {}
        try:
            for name, (_, fn, args, kwargs) in sorted(self.largest.items()):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    fn(*args, **kwargs)
                    peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                finally:
                    tracemalloc.stop()
        finally:
            self.active = was_active
        return peaks


# Functions that run the experiments' thread pool from the main thread; their
# self time there is mostly waiting on pool.map.
POOL_RUNNERS = ("experiments.run_filter_convergence", "experiments.run_lowpass",
                "experiments.run_consensus")


def summarize(spans, main_thread):
    """Per-name calls, busy and self seconds and counter sums for one pass,
    plus the pool figures and the thread-busy total the shares divide by."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    names = {}
    for sid, parent, name, tid, start, end, extra in spans:
        entry = names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "counters": {}})
        dur = end - start
        entry["calls"] += 1
        entry["busy_s"] += dur
        entry["self_s"] += dur - child_time.get(sid, 0.0)
        for key, val in (extra or {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + val

    pool_spans = [s for s in spans if s[2] in POOL_RUNNERS and s[3] == main_thread]
    pool_wall = sum(s[5] - s[4] for s in pool_spans)
    worker_roots = [s for s in spans if s[1] is None and s[3] != main_thread]
    worker_busy = sum(s[5] - s[4] for s in worker_roots
                      if any(p[4] <= s[4] and s[5] <= p[5] for p in pool_spans))
    root_busy = sum(s[5] - s[4] for s in spans if s[1] is None)
    pool_wait = sum(names[n]["self_s"] for n in POOL_RUNNERS if n in names)
    return {
        "names": names,
        "pool_wall_s": pool_wall,
        "pool_worker_busy_s": worker_busy,
        "cells": sum(1 for s in spans
                     if s[2] == "sampling.sample_graph" and s[3] != main_thread),
        "thread_busy_s": root_busy - pool_wait,
        "by_id": by_id,
    }


def outer_busy(summary, prefixes):
    """Busy seconds of spans whose name starts with one of ``prefixes`` and
    that have no ancestor matching them, so nested calls count once."""
    by_id = summary["by_id"]

    def matches(span):
        return span[2].startswith(prefixes)

    total = 0.0
    for span in by_id.values():
        if not matches(span):
            continue
        parent = span[1]
        while parent is not None and not matches(by_id[parent]):
            parent = by_id[parent][1]
        if parent is None:
            total += span[5] - span[4]
    return total
