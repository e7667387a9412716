"""Empirical studies: filter design residuals per graphon, graph-versus-
graphon filter outputs, and the convergence of graph filters to graphon
filters as the sample size grows.

Graph signals are initialized as x_i = f(mu_i) from the stored latent
values, making the node signal the sampled counterpart of the continuous
input.  Discrepancies are measured on a common uniform resample grid: the
graph output enters as the piecewise-constant strip interpolant of the
output vector taken in latent order (node of rank r on strip r), the
graphon output as the resampled Chebyshev series.  Independent (graphon,
N, seed) cells run in a pool of one thread per CPU, at most four, merged
in key order: records are bit-identical from the configuration alone.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chebyshev import map_domain_inverse, project_apply_resample
from .filtering import (_ORDER_FLOOR, FilterCoeffs, IdealResponse,
                        apply_graph_filter, design_filter, fg_filter_operator)
from .galerkin import OperatorMatrix, build_fg_shift
from .kernels import Graphon, _cell_index
from .sampling import sample_graph

__all__ = [
    "DESIGN_ORDERS",
    "ExperimentConfig",
    "ExperimentRecord",
    "ExperimentCurves",
    "run_lowpass",
    "run_consensus",
    "run_filter_convergence",
    "records_to_csv",
    "curves_to_csv",
]

# The design studies fit every order in this sweep: 1..8, every order that
# design_filter allows at each basis size, which all read one QR factor per
# operator, filtering._power_qr's.
DESIGN_ORDERS = tuple(range(1, _ORDER_FLOOR + 1))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Inputs shared by the experiment drivers.

    ``graphons`` maps labels to kernels.  ``ideal`` is the low-pass study's
    ideal response diagonal (length = basis size); the design studies
    report curves at ``chosen_order``, one of ``DESIGN_ORDERS``;
    ``filter_taps`` is the fixed tap vector used by the convergence sweep.
    """

    graphons: Dict[str, Graphon]
    node_counts: Sequence[int] = (2000,)
    seeds: Sequence[int] = (0, 1, 2, 3, 4)
    chosen_order: int = 5
    ideal: Optional[Sequence[float]] = None
    filter_taps: Sequence[float] = (0.5, 0.3, 0.2)
    panels: int = 10
    basis: int = 5
    input_id: str = "x_plus_sin"
    resample_points: int = 200
    sorted_latent: bool = True


def input_function(input_id: str):
    """Fixed input vocabulary: 'y', 'x_plus_sin', or 'const:<v>'."""
    if input_id == "y":
        return lambda x: np.asarray(x, dtype=float)
    if input_id == "x_plus_sin":
        return lambda x: np.asarray(x) + np.sin(np.asarray(x))
    if input_id.startswith("const:"):
        v = float(input_id.split(":", 1)[1])
        if not np.isfinite(v):
            raise ValueError(f"input {input_id!r}: the constant must be finite")
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


@dataclass(frozen=True, eq=False)
class ExperimentCurves:
    """Output curves on the common grid for one (graphon, n, seed) cell."""

    graphon: str
    n: int
    seed: int
    grid: np.ndarray
    ideal: np.ndarray
    graphon_pred: np.ndarray
    graph_empirical: np.ndarray


def _l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _filter_cells(cfg: ExperimentConfig,
                  filters: Dict[str, Tuple[OperatorMatrix, FilterCoeffs]]):
    """Sample and filter every (graphon, N, seed) cell in one thread pool.

    ``filters`` maps each label to its FG shift operator and taps.  Returns
    the input function, the uniform resample grid on [0,1], each label's
    graphon reference curve on that grid and, in key order, each cell's key
    with the strip interpolant of its graph output, nodes in latent order.
    ValueError on a repeated seed or node count, before any graph is sampled.
    """
    for name, values in (("seeds", cfg.seeds), ("node counts", cfg.node_counts)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must be distinct, got {list(values)}")
    f = input_function(cfg.input_id)
    xgrid = map_domain_inverse(np.linspace(-1.0, 1.0, cfg.resample_points))
    references = {label: project_apply_resample(fg_filter_operator(op, taps), f,
                                                cfg.panels, cfg.resample_points)
                  for label, (op, taps) in filters.items()}
    cells = [(label, n, seed) for label in sorted(filters)
             for n in cfg.node_counts for seed in cfg.seeds]

    def run(cell):
        label, n, seed = cell
        g = sample_graph(cfg.graphons[label], n, seed, cfg.sorted_latent)
        y = apply_graph_filter(g, filters[label][1], f(g.latent))
        return y[np.argsort(g.latent, kind="stable")][_cell_index(xgrid, n)]

    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        return f, xgrid, references, list(zip(cells, pool.map(run, cells)))


def _run_design_experiment(cfg: ExperimentConfig, ideal: Optional[Sequence[float]],
                           lead: Sequence[float]):
    """Design residuals over the order sweep for each graphon, plus the
    graph-versus-graphon curves of the chosen-order design per cell.  The
    ideal diagonal is ``ideal``, or ``lead`` zero-padded to the basis size.
    ValueError, before any graph is sampled, if two labels would share one
    curve file name.
    """
    safe = {}
    for label in cfg.graphons:
        other = safe.setdefault(_safe_label(label), label)
        if other != label:
            raise ValueError(f"graphons {other!r} and {label!r} would write "
                             "the same curve files")
    if cfg.chosen_order not in DESIGN_ORDERS:
        raise ValueError(f"chosen order {cfg.chosen_order} is not one of the "
                         f"swept orders {DESIGN_ORDERS}")
    # the operators check the basis size before it shapes the diagonal
    ops = {label: build_fg_shift(w, cfg.panels, cfg.basis)
           for label, w in cfg.graphons.items()}
    ideal = IdealResponse(np.pad(lead, (0, cfg.basis))[:cfg.basis]
                          if ideal is None else ideal)
    designs = {label: {k: design_filter(op, k, ideal) for k in DESIGN_ORDERS}
               for label, op in ops.items()}
    f, xgrid, preds, cells = _filter_cells(
        cfg, {label: (op, designs[label][cfg.chosen_order].coeffs)
              for label, op in ops.items()})
    ideal_curve = project_apply_resample(ideal.matrix(), f, cfg.panels,
                                         cfg.resample_points)
    records: List[ExperimentRecord] = []
    curves: List[ExperimentCurves] = []
    for (label, n, seed), graph_curve in cells:
        disc = _l2(graph_curve, preds[label])
        for k in DESIGN_ORDERS:
            records.append(ExperimentRecord(
                graphon=label, n=n, seed=seed, order=k,
                residual=designs[label][k].residual,
                l2_discrepancy=disc if k == cfg.chosen_order else float("nan")))
        curves.append(ExperimentCurves(
            graphon=label, n=n, seed=seed, grid=xgrid, ideal=ideal_curve,
            graphon_pred=preds[label], graph_empirical=graph_curve))
    return records, curves


def run_lowpass(cfg: ExperimentConfig):
    """Low-pass design study; default ideal response diag([1,5,5,10,0,...])."""
    return _run_design_experiment(cfg, cfg.ideal, (1.0, 5.0, 5.0, 10.0))


def run_consensus(cfg: ExperimentConfig):
    """Consensus design study: preserve only the constant frequency; its
    ideal response is fixed, so a set ``cfg.ideal`` is a ValueError."""
    if cfg.ideal is not None:
        raise ValueError("the consensus study's ideal response is fixed; "
                         "it takes no ideal")
    return _run_design_experiment(cfg, None, (1.0,))


def run_filter_convergence(cfg: ExperimentConfig):
    """Discrepancy between graph- and graphon-filter outputs as N grows.

    Uses the fixed taps from the configuration on both sides and reports
    one record per (graphon, N, seed) plus per-N means.
    """
    if list(cfg.node_counts) != sorted(cfg.node_counts):
        raise ValueError("node counts must be increasing")
    taps = FilterCoeffs(cfg.filter_taps)
    _, _, references, cells = _filter_cells(
        cfg, {label: (build_fg_shift(w, cfg.panels, cfg.basis), taps)
              for label, w in cfg.graphons.items()})
    records: List[ExperimentRecord] = []
    groups: Dict[Tuple[str, int], List[float]] = {}
    for (label, n, seed), graph_curve in cells:
        disc = _l2(graph_curve, references[label])
        records.append(ExperimentRecord(graphon=label, n=n, seed=seed,
                                        order=taps.order, residual=float("nan"),
                                        l2_discrepancy=disc))
        groups.setdefault((label, n), []).append(disc)
    means = {key: float(np.mean(vals)) for key, vals in groups.items()}
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
