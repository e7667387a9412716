"""The three benchmark workloads and the oracles that check their outputs.

Each workload has four steps.  ``setup`` builds the program's inputs from the
workload seed; it is what ``setup_s`` times.  ``oracles`` computes reference
values with the benchmark's own code, untimed.  ``run_pass`` is one timed
pass.  ``check`` compares a pass's outputs with the references.  Only
``run_pass`` and ``setup`` call into graphonsp; the oracles use numpy and
plain Python, so they stay independent of the code they check.

Why each workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass

import numpy as np

from graphonsp import (cli, experiments, filtering, galerkin, homdensity,
                       kernels, sampling, steps)

# Failures the benchmark reports but that are known defects of the program,
# each with the ROADMAP item that fixes it.  They count in ``failed`` and in
# the error rate; they do not make a run ``correct: false``.
KNOWN_DEFECTS = {
    "hom_count[path8]": "int64 overflow in hom_count (ROADMAP open item 3)",
    "hom_density_graph[path8]": "int64 overflow in hom_count (ROADMAP open item 3)",
}


class Checks:
    """Named pass/fail results, accumulated over the passes of a run."""

    def __init__(self):
        self.results = {}

    def add(self, name, ok, detail="", layer=None):
        entry = self.results.setdefault(
            name, {"ok": 0, "failed": 0, "layer": layer, "detail": ""})
        entry["ok" if ok else "failed"] += 1
        if not ok or not entry["detail"]:
            entry["detail"] = detail

    @property
    def attempted(self):
        return sum(e["ok"] + e["failed"] for e in self.results.values())

    @property
    def failed(self):
        return sum(e["failed"] for e in self.results.values())

    def unexpected_failures(self):
        return [n for n, e in self.results.items()
                if e["failed"] and n not in KNOWN_DEFECTS]

    def failed_in_layer(self, layer):
        return sum(e["failed"] for e in self.results.values() if e["layer"] == layer)


def _derived_seeds(seed, count):
    return [int(v) for v in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def _max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


# --------------------------------------------------------------------- sweep

# The CLI's default reference models, which the experiment runs use.
SWEEP_GRAPHONS = ("er:0.5", "sinprod:0.5,0.5,3.5", "expdist:10")


@dataclass
class SweepState:
    conv_argv: list
    low_argv: list
    out_dir: object
    graphons: tuple
    n_values: tuple
    conv_seeds: tuple
    orders: int
    chosen_order: int


class Sweep:
    """The two CLI runs the ROADMAP names, in-process through cli.dispatch."""

    name = "sweep"

    def setup(self, seed, smoke, work_dir):
        n_values = (20, 40, 80) if smoke else (100, 400, 1600)
        seeds = _derived_seeds(seed, 6)
        conv_seeds = tuple(seeds[:2] if smoke else seeds[:5])
        out_dir = work_dir / "sweep"
        out_dir.mkdir(parents=True, exist_ok=True)
        conv_argv = ["experiment:convergence",
                     "--seeds", ",".join(map(str, conv_seeds)),
                     "--out-dir", str(out_dir)]
        if smoke:
            conv_argv += ["--n-values", ",".join(map(str, n_values))]
        low_argv = ["experiment:lowpass", "--n", "50" if smoke else "2000",
                    "--seeds", str(seeds[5]), "--out-dir", str(out_dir)]
        return SweepState(conv_argv=conv_argv, low_argv=low_argv, out_dir=out_dir,
                          graphons=SWEEP_GRAPHONS, n_values=n_values,
                          conv_seeds=conv_seeds, orders=8, chosen_order=5)

    def oracles(self, st):
        return {"digest": None}

    def run_pass(self, st):
        with contextlib.redirect_stdout(io.StringIO()):
            rc_conv = cli.dispatch(st.conv_argv)
            rc_low = cli.dispatch(st.low_argv)
        return rc_conv, rc_low

    def check(self, st, refs, out, checks):
        rc_conv, rc_low = out
        checks.add("convergence exit code", rc_conv == 0, f"exit {rc_conv}", "cli.dispatch")
        checks.add("lowpass exit code", rc_low == 0, f"exit {rc_low}", "cli.dispatch")
        files = sorted(p for p in st.out_dir.iterdir() if p.is_file())
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        conv = _read_records(st.out_dir / "convergence.csv")
        low = _read_records(st.out_dir / "lowpass.csv")
        curves = [p for p in files if p.name.endswith("_curves.csv")]
        shutil.rmtree(st.out_dir)
        st.out_dir.mkdir()

        want_conv = len(st.graphons) * len(st.n_values) * len(st.conv_seeds)
        good_conv = [r for r in conv if math.isfinite(r["l2_discrepancy"])]
        checks.add("convergence records", len(conv) == want_conv == len(good_conv),
                   f"{len(good_conv)} finite of {len(conv)}, want {want_conv}",
                   "experiments.run_filter_convergence")
        want_low = len(st.graphons) * st.orders
        good_low = [r for r in low if math.isfinite(r["residual"])
                    and (r["order"] != st.chosen_order or math.isfinite(r["l2_discrepancy"]))]
        checks.add("lowpass records", len(low) == want_low == len(good_low),
                   f"{len(good_low)} finite of {len(low)}, want {want_low}",
                   "experiments.run_lowpass")
        checks.add("lowpass curve files", len(curves) == len(st.graphons),
                   f"{len(curves)} files", "experiments.run_lowpass")
        for label in st.graphons:
            ok, detail = _falls_with_n(good_conv, label, st.n_values)
            checks.add(f"discrepancy falls with N [{label}]", ok, detail,
                       "experiments.run_filter_convergence")
        if refs["digest"] is None:
            refs["digest"] = digest.hexdigest()
        else:
            checks.add("outputs byte-identical across passes",
                       digest.hexdigest() == refs["digest"], "", "cli.dispatch")


def _read_records(path):
    if not path.is_file():
        return []
    with open(path, newline="") as fh:
        return [{"graphon": r["graphon"], "n": int(r["n"]), "order": int(r["order"]),
                 "residual": float(r["residual"]),
                 "l2_discrepancy": float(r["l2_discrepancy"])}
                for r in csv.DictReader(fh)]


def _falls_with_n(records, label, n_values):
    """The paper's convergence claim on the per-N mean discrepancy: it is
    lower at the largest N than at the smallest, and it never rises from one
    N to the next by more than two standard errors.  The second clause admits
    seed noise once the discrepancy reaches the floor set by the p=10, n=5
    graphon reference; at 400 -> 1600 that happens on about one seed set in
    twenty for expdist:10."""
    stats = []
    for n in n_values:
        vals = np.array([r["l2_discrepancy"] for r in records
                         if r["graphon"] == label and r["n"] == n])
        if vals.size < 2:
            return False, f"N={n}: {vals.size} records"
        stats.append((vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)))
    means = [m for m, _ in stats]
    ok = means[-1] < means[0] and all(
        b[0] <= a[0] + 2 * math.hypot(a[1], b[1]) for a, b in zip(stats, stats[1:]))
    return ok, "means " + ", ".join(f"{m:.5f}" for m in means)


# ------------------------------------------------------------------ operator

# f(y) = y touches only operator columns 0-1.  The tolerances sit above the
# errors measured at p=1000, n=100 (<= 5e-15 for the analytic kernels, 2.4e-6
# for expdist:10, whose Chebyshev series converges only algebraically).
OPERATOR_SPECS = {
    "er:0.5": 1e-12,
    "expsum:0.5": 1e-12,
    "sinprod:0.5,0.5,3.5": 1e-12,
    "expdist:10": 1e-5,
}

# The benchmark's own kernel formulas, for the quadrature references.
KERNELS = {
    "er:0.5": lambda x, y: np.full(np.broadcast(x, y).shape, 0.5),
    "expsum:0.5": lambda x, y: np.exp(-0.5 * (x + y)),
    "sinprod:0.5,0.5,3.5": lambda x, y: 0.5 + 0.5 * np.sin(3.5 * np.pi * x * y),
    "expdist:10": lambda x, y: np.exp(-10.0 * np.abs(x - y)),
}


@dataclass
class OperatorState:
    graphons: dict
    f: object
    ideal: object
    p: int
    n: int
    t_points: int
    orders: tuple
    pipeline_order: int
    passes: int = 0


class Operator:
    """FG shift build, Fredholm solve, filter design and the filter pipeline
    on four analytic kernels; no sampling and no randomness.

    A pass runs the chain for one kernel, taking the four in turn, so that a
    run holds four times as many passes; the chain costs nearly the same on
    each kernel because the weight correction dominates it.
    """

    name = "operator"

    def setup(self, seed, smoke, work_dir):
        p, n = (20, 10) if smoke else (1000, 100)
        ideal = np.zeros(n)
        ideal[:4] = [1.0, 5.0, 5.0, 10.0]
        return OperatorState(
            graphons={s: cli.parse_graphon_spec(s) for s in OPERATOR_SPECS},
            f=experiments.input_function("y"),
            ideal=filtering.IdealResponse(ideal), p=p, n=n, t_points=200,
            orders=tuple(range(1, 9)), pipeline_order=5)

    def oracles(self, st):
        x = (np.linspace(-1.0, 1.0, st.t_points) + 1.0) / 2.0
        a = 0.5
        refs = {
            "er:0.5": np.full_like(x, 0.5 / 2),
            "expsum:0.5": np.exp(-a * x) * (1 - (1 + a) * np.exp(-a)) / a**2,
        }
        for spec in ("sinprod:0.5,0.5,3.5", "expdist:10"):
            refs[spec] = _gauss_legendre_split(KERNELS[spec], x)
        return refs

    def run_pass(self, st):
        specs = list(st.graphons)
        spec = specs[st.passes % len(specs)]
        st.passes += 1
        w = st.graphons[spec]
        op = galerkin.build_fg_shift(w, st.p, st.n)
        solved = galerkin.fredholm_solve(w, st.f, st.p, st.n, st.t_points)
        designs = [filtering.design_filter(op, k, st.ideal) for k in st.orders]
        pipe = filtering.filter_pipeline(w, st.f, st.pipeline_order, st.ideal,
                                         st.p, st.n, st.t_points)
        return spec, solved, designs, pipe

    def check(self, st, refs, out, checks):
        spec, solved, designs, pipe = out
        err = _max_abs(solved, refs[spec])
        checks.add(f"fredholm_solve vs reference [{spec}]", err <= OPERATOR_SPECS[spec],
                   f"max abs error {err:.3e}", "galerkin.fredholm_solve")
        checks.add(f"design residuals finite [{spec}]",
                   all(math.isfinite(d.residual) for d in designs), "",
                   "filtering.design_filter")
        chosen = designs[st.orders.index(st.pipeline_order)]
        same = (np.allclose(pipe.coeffs.h, chosen.coeffs.h, rtol=1e-9, atol=1e-12)
                and math.isclose(pipe.residual, chosen.residual, rel_tol=1e-9,
                                 abs_tol=1e-12)
                and bool(np.all(np.isfinite(pipe.graphon_output))))
        checks.add(f"filter_pipeline matches design_filter [{spec}]", same, "",
                   "filtering.filter_pipeline")


def _gauss_legendre_split(kern, x, nodes=64):
    """g(x) = int_0^1 W(x,y) y dy by Gauss-Legendre on [0,x] and [x,1], so a
    kink of W on the diagonal never falls inside a panel."""
    t, wt = np.polynomial.legendre.leggauss(nodes)
    out = np.empty_like(x)
    for i, xi in enumerate(x):
        total = 0.0
        for lo, hi in ((0.0, xi), (xi, 1.0)):
            if hi > lo:
                y = (hi - lo) / 2 * t + (hi + lo) / 2
                total += (hi - lo) / 2 * float(np.sum(wt * kern(xi, y) * y))
        out[i] = total
    return out


# -------------------------------------------------------------------- motifs

@dataclass
class MotifsState:
    graph: object
    empirical: object
    mc_graphons: dict
    motifs: dict
    signal: object
    mc_samples: int
    mc_seeds: tuple


def _motifs():
    k = homdensity.MAX_MOTIF_NODES
    return {
        "edge": homdensity.edge_motif(),
        "path3": homdensity.path3_motif(),
        "triangle": homdensity.triangle_motif(),
        "cycle4": homdensity.Motif(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
        "path8": homdensity.Motif(k, tuple((i, i + 1) for i in range(k - 1))),
    }


MC_MOTIFS = ("triangle", "cycle4")


class Motifs:
    """Exact homomorphism counts on a sampled graph, Monte-Carlo densities
    on analytic and empirical graphons, and the empirical step operator."""

    name = "motifs"

    def setup(self, seed, smoke, work_dir):
        graph_seed, signal_seed, mc_seed = _derived_seeds(seed, 3)
        n = 40 if smoke else 800
        w = cli.parse_graphon_spec("sinprod:0.5,0.5,3.5")
        graph = sampling.sample_graph(w, n, graph_seed)
        empirical = kernels.empirical_graphon(graph)
        mc_graphons = {"er:0.5": cli.parse_graphon_spec("er:0.5"),
                       "sinprod:0.5,0.5,3.5": w, "empirical": empirical}
        mc_seeds = tuple(_derived_seeds(mc_seed, len(mc_graphons) * len(MC_MOTIFS)))
        return MotifsState(
            graph=graph, empirical=empirical, mc_graphons=mc_graphons,
            motifs=_motifs(),
            signal=np.random.default_rng(signal_seed).standard_normal(n),
            mc_samples=2_000 if smoke else 1_000_000, mc_seeds=mc_seeds)

    def oracles(self, st):
        adj = st.graph.adjacency.astype(float)
        n = st.graph.n
        deg = adj.sum(axis=1)
        a2 = adj @ adj
        exact = {
            "edge": int(adj.sum()),
            "path3": int((deg**2).sum()),
            "triangle": int(round(float(np.trace(a2 @ adj)))),
            "cycle4": int(round(float(np.sum(a2 * a2)))),  # tr A^4, A symmetric
            "path8": _exact_walks(st.graph.adjacency, len(st.motifs["path8"].edges)),
        }
        k = {name: m.k for name, m in st.motifs.items()}
        density = {name: exact[name] / n ** k[name] for name in exact}
        nystrom = _nystrom_kernel(KERNELS["sinprod:0.5,0.5,3.5"])
        mc_refs = {}
        for name, power in (("triangle", 3), ("cycle4", 4)):
            mc_refs[("er:0.5", name)] = 0.5 ** power
            mc_refs[("sinprod:0.5,0.5,3.5", name)] = float(
                np.trace(np.linalg.matrix_power(nystrom, power)))
            mc_refs[("empirical", name)] = density[name]
        return {"exact": exact, "density": density, "mc": mc_refs,
                "step": (adj / n) @ st.signal}

    def run_pass(self, st):
        counts = {name: homdensity.hom_count(m, st.graph) for name, m in st.motifs.items()}
        dens = {name: homdensity.hom_density_graph(m, st.graph)
                for name, m in st.motifs.items()}
        mc = {}
        seeds = iter(st.mc_seeds)
        for gname, w in st.mc_graphons.items():
            for mname in MC_MOTIFS:
                mc[(gname, mname)] = homdensity.hom_density_graphon(
                    st.motifs[mname], w, st.mc_samples, next(seeds))
        stepped = steps.apply_empirical_operator(st.empirical, steps.lift(st.signal))
        return counts, dens, mc, stepped

    def check(self, st, refs, out, checks):
        counts, dens, mc, stepped = out
        for name, want in refs["exact"].items():
            checks.add(f"hom_count[{name}]", counts[name] == want,
                       f"got {counts[name]}, exact {want}", "homdensity.hom_count")
            ref = refs["density"][name]
            checks.add(f"hom_density_graph[{name}]",
                       math.isclose(dens[name], ref, rel_tol=1e-12),
                       f"got {dens[name]:.6g}, exact {ref:.6g}",
                       "homdensity.hom_density_graph")
        for key, est in mc.items():
            ref = refs["mc"][key]
            dev = abs(est.estimate - ref)
            checks.add(f"hom_density_graphon within 5 sigma [{key[0]}, {key[1]}]",
                       dev <= 5 * est.stderr + 1e-12,
                       f"|est-ref|={dev:.3g}, sigma={est.stderr:.3g}",
                       "homdensity.hom_density_graphon")
        got = np.asarray(stepped.coeffs)
        ref = refs["step"]
        checks.add("apply_empirical_operator equals S @ x",
                   np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()),
                   f"max abs diff {_max_abs(got, ref):.3e}",
                   "steps.apply_empirical_operator")


def _exact_walks(adjacency, length):
    """1^T A^length 1 with Python integers, which never overflow."""
    nbrs = [np.flatnonzero(row).tolist() for row in adjacency]
    v = [1] * len(nbrs)
    for _ in range(length):
        v = [sum(v[j] for j in row) for row in nbrs]
    return sum(v)


def _nystrom_kernel(kern, nodes=100):
    """Symmetric Nystrom matrix sqrt(w_i) W(x_i, x_j) sqrt(w_j) on
    Gauss-Legendre nodes in [0,1]; tr(K^k) is the cycle density t(C_k, W)."""
    t, wt = np.polynomial.legendre.leggauss(nodes)
    x = (t + 1) / 2
    s = np.sqrt(wt / 2)
    return s[:, None] * kern(x[:, None], x[None, :]) * s[None, :]


WORKLOADS = {w.name: w for w in (Sweep(), Operator(), Motifs())}
