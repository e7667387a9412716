"""Empirical studies: filter design residuals per graphon, graph-versus-
graphon filter outputs, and the convergence of graph filters to graphon
filters as the sample size grows.

Graph signals are initialized as x_i = f(mu_i) from the stored sorted
latent values, making the node signal the sampled counterpart of the
continuous input.  Discrepancies are measured on a common uniform
resample grid: the graph output enters as the piecewise-constant strip
interpolant of the output vector, the graphon output as the resampled
Chebyshev series.  Independent (graphon, N, seed) cells run in a thread
pool and are merged in key order, so records are reproducible
bit-identically from the configuration.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chebyshev import map_domain_inverse, project_apply_resample
from .filtering import (FilterCoeffs, IdealResponse, apply_graph_filter,
                        design_filter, fg_filter_operator)
from .galerkin import build_fg_shift
from .kernels import Graphon
from .sampling import sample_graph, scaled_adjacency

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "ExperimentCurves",
    "run_lowpass",
    "run_consensus",
    "run_filter_convergence",
    "records_to_csv",
    "curves_to_csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by the experiment drivers.

    ``graphons`` maps labels to kernels.  ``ideal`` is the ideal response
    diagonal (length = basis size) used by the design experiments;
    ``filter_taps`` is the fixed tap vector used by the convergence sweep.
    """

    graphons: Dict[str, Graphon]
    node_counts: Sequence[int] = (2000,)
    seeds: Sequence[int] = (0, 1, 2, 3, 4)
    orders: Sequence[int] = tuple(range(1, 9))
    chosen_order: int = 5
    ideal: Optional[Sequence[float]] = None
    filter_taps: Sequence[float] = (0.5, 0.3, 0.2)
    panels: int = 10
    basis: int = 5
    input_id: str = "x_plus_sin"
    resample_points: int = 200
    sorted_latent: bool = True
    svd_tol: float = 1e-8

    def input_function(self):
        return input_function(self.input_id)


def input_function(input_id: str):
    """Fixed input vocabulary: 'y', 'x_plus_sin', or 'const:<v>'."""
    if input_id == "y":
        return lambda x: np.asarray(x, dtype=float)
    if input_id == "x_plus_sin":
        return lambda x: np.asarray(x) + np.sin(np.asarray(x))
    if input_id.startswith("const:"):
        v = float(input_id.split(":", 1)[1])
        return lambda x: np.full_like(np.asarray(x, dtype=float), v)
    raise ValueError(f"unknown input function {input_id!r}")


@dataclass(frozen=True)
class ExperimentRecord:
    graphon: str
    n: int
    seed: int
    order: int
    residual: float
    l2_discrepancy: float


@dataclass(frozen=True)
class ExperimentCurves:
    """Output curves on the common grid for one (graphon, n, seed) cell."""

    graphon: str
    n: int
    seed: int
    grid: np.ndarray
    ideal: np.ndarray
    graphon_pred: np.ndarray
    graph_empirical: np.ndarray


def _common_grid(t_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform u-grid on [-1,1] inclusive and its [0,1] image."""
    u = np.linspace(-1.0, 1.0, t_points)
    return u, map_domain_inverse(u)


def _strip_interpolant(values: np.ndarray, xgrid: np.ndarray) -> np.ndarray:
    n = len(values)
    idx = np.minimum((xgrid * n).astype(int), n - 1)
    return values[idx]


def _l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _design_cell(cfg: ExperimentConfig, label: str, ideal: IdealResponse):
    """Design residuals over the order sweep plus curves at the chosen order."""
    w = cfg.graphons[label]
    f = cfg.input_function()
    w_op = build_fg_shift(w, cfg.panels, cfg.basis)
    designs = {k: design_filter(w_op, k, ideal, cfg.svd_tol) for k in cfg.orders}
    chosen = designs[cfg.chosen_order]

    _, xgrid = _common_grid(cfg.resample_points)
    h_mat = fg_filter_operator(w_op, chosen.coeffs)
    graphon_pred = project_apply_resample(h_mat, f, cfg.panels, cfg.resample_points)
    ideal_curve = project_apply_resample(ideal.matrix(), f, cfg.panels,
                                         cfg.resample_points)

    records: List[ExperimentRecord] = []
    curves: List[ExperimentCurves] = []
    for n in cfg.node_counts:
        for seed in cfg.seeds:
            g = sample_graph(w, n, seed, cfg.sorted_latent)
            s = scaled_adjacency(g)
            x = f(g.latent)
            y = apply_graph_filter(s, chosen.coeffs, x)
            graph_curve = _strip_interpolant(y, xgrid)
            disc = _l2(graph_curve, graphon_pred)
            for k in cfg.orders:
                records.append(ExperimentRecord(
                    graphon=label, n=n, seed=seed, order=k,
                    residual=designs[k].residual,
                    l2_discrepancy=disc if k == cfg.chosen_order else float("nan")))
            curves.append(ExperimentCurves(
                graphon=label, n=n, seed=seed, grid=xgrid, ideal=ideal_curve,
                graphon_pred=graphon_pred, graph_empirical=graph_curve))
    return records, curves


def _run_design_experiment(cfg: ExperimentConfig, ideal: IdealResponse):
    labels = sorted(cfg.graphons)
    with ThreadPoolExecutor(max_workers=min(4, len(labels))) as pool:
        results = list(pool.map(lambda lb: _design_cell(cfg, lb, ideal), labels))
    records: List[ExperimentRecord] = []
    curves: List[ExperimentCurves] = []
    for rec, cur in results:
        records.extend(rec)
        curves.extend(cur)
    return records, curves


def run_lowpass(cfg: ExperimentConfig):
    """Low-pass design study; default ideal response diag([1,5,5,10,0,...])."""
    d = cfg.ideal if cfg.ideal is not None else _default_lowpass(cfg.basis)
    return _run_design_experiment(cfg, IdealResponse(d))


def run_consensus(cfg: ExperimentConfig):
    """Consensus design study: preserve only the constant frequency."""
    d = np.zeros(cfg.basis)
    d[0] = 1.0
    return _run_design_experiment(cfg, IdealResponse(d))


def _default_lowpass(basis: int) -> np.ndarray:
    d = np.zeros(basis)
    d[: min(4, basis)] = [1.0, 5.0, 5.0, 10.0][: min(4, basis)]
    return d


def run_filter_convergence(cfg: ExperimentConfig):
    """Discrepancy between graph- and graphon-filter outputs as N grows.

    Uses the fixed taps from the configuration on both sides and reports
    one record per (graphon, N, seed) plus per-N means.
    """
    counts = list(cfg.node_counts)
    if sorted(counts) != counts or len(set(counts)) != len(counts):
        raise ValueError("node counts must be strictly increasing")
    f = cfg.input_function()
    taps = FilterCoeffs(np.asarray(cfg.filter_taps, dtype=float))
    _, xgrid = _common_grid(cfg.resample_points)

    references = {}
    for label in sorted(cfg.graphons):
        w_op = build_fg_shift(cfg.graphons[label], cfg.panels, cfg.basis)
        h_mat = fg_filter_operator(w_op, taps)
        references[label] = project_apply_resample(h_mat, f, cfg.panels,
                                                   cfg.resample_points)

    cells = [(label, n, seed)
             for label in sorted(cfg.graphons)
             for n in counts
             for seed in cfg.seeds]

    def run_cell(cell):
        label, n, seed = cell
        g = sample_graph(cfg.graphons[label], n, seed, cfg.sorted_latent)
        y = apply_graph_filter(scaled_adjacency(g), taps, f(g.latent))
        disc = _l2(_strip_interpolant(y, xgrid), references[label])
        return ExperimentRecord(graphon=label, n=n, seed=seed,
                                order=taps.order, residual=float("nan"),
                                l2_discrepancy=disc)

    with ThreadPoolExecutor(max_workers=4) as pool:
        records = list(pool.map(run_cell, cells))

    means: Dict[Tuple[str, int], float] = {}
    for label in sorted(cfg.graphons):
        for n in counts:
            vals = [r.l2_discrepancy for r in records
                    if r.graphon == label and r.n == n]
            means[(label, n)] = float(np.mean(vals))
    return records, means


def records_to_csv(records: Sequence[ExperimentRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["graphon", "n", "seed", "order", "residual",
                         "l2_discrepancy"])
        for r in records:
            writer.writerow([r.graphon, r.n, r.seed, r.order,
                             repr(r.residual), repr(r.l2_discrepancy)])


def _safe_label(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in ".-" else "-" for ch in label)


def curves_to_csv(curves: Sequence[ExperimentCurves], directory, stem: str):
    """Write one companion `<stem>_..._curves.csv` per cell and return the paths."""
    paths = []
    for c in curves:
        path = (Path(directory)
                / f"{stem}_{_safe_label(c.graphon)}_n{c.n}_s{c.seed}_curves.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["grid_point", "ideal", "graphon_pred",
                             "graph_empirical"])
            for g, i, pred, emp in zip(c.grid, c.ideal, c.graphon_pred,
                                       c.graph_empirical):
                writer.writerow([repr(float(g)), repr(float(i)),
                                 repr(float(pred)), repr(float(emp))])
        paths.append(path)
    return paths
