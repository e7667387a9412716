"""Polynomial filters over graph and graphon shift operators.

Graph-side filtering iterates the shift action and never materializes
matrix powers (the graph can have thousands of nodes); graphon-side
filtering works with the small Fourier-Galerkin operator, where powers
are formed explicitly.

Filter design solves min_h || sum_{k=1}^{K} h_k W^k - D ||_F by least
squares on the vectorized system whose k-th column is vec(W^k).  The
power-polynomial columns make the system ill-conditioned, so the solve
goes through a truncated-SVD pseudoinverse.  Only the positive powers
enter the design: the shift operator is what the graph can actually
implement, and the reported unreachability bounds (e.g. a constant
kernel cannot touch any nonconstant frequency) hold in that space.  The
returned coefficient vector carries a leading h_0 = 0 so it applies
directly with the k-from-zero filter conventions below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import project_apply_resample
from .galerkin import OperatorMatrix, build_fg_shift
from .sampling import ShiftOperator, apply_shift

__all__ = [
    "FilterCoeffs",
    "IdealResponse",
    "DesignResult",
    "apply_graph_filter",
    "fg_filter_operator",
    "truncated_svd_pinv",
    "design_filter",
    "frequency_response",
    "filter_pipeline",
    "PipelineResult",
]


@dataclass(frozen=True)
class FilterCoeffs:
    """Polynomial filter taps; index k holds the coefficient of the k-th power."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 1 or h.size < 1 or not np.all(np.isfinite(h)):
            raise ValueError("filter coefficients must be a nonempty finite vector")
        object.__setattr__(self, "h", h)

    @property
    def order(self):
        return len(self.h)


@dataclass(frozen=True)
class IdealResponse:
    """Diagonal of the ideal graphon filter matrix D."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))

    def matrix(self):
        return np.diag(self.d)


@dataclass(frozen=True)
class DesignResult:
    coeffs: FilterCoeffs
    residual: float
    rank_used: int


def apply_graph_filter(s: ShiftOperator, h: FilterCoeffs, x: np.ndarray) -> np.ndarray:
    """y = sum_k h_k S^k x by iterated shift application."""
    x = np.asarray(x, dtype=float)
    if x.shape != (s.n,):
        raise ValueError(f"signal length {x.shape} does not match operator size {s.n}")
    y = h.h[0] * x
    v = x
    for k in range(1, h.order):
        v = apply_shift(s, v)
        y = y + h.h[k] * v
    return y


def fg_filter_operator(w_op: OperatorMatrix, h: FilterCoeffs) -> np.ndarray:
    """Explicit matrix polynomial sum_k h_k W^k with W^0 the identity."""
    n = w_op.size
    out = np.zeros((n, n))
    power = np.eye(n)
    for k in range(h.order):
        out += h.h[k] * power
        if k + 1 < h.order:
            power = power @ w_op.entries
    return out


def _truncated_svd(a: np.ndarray, rel_tol: float):
    """Thin SVD factors (u, s, vt) of a, keeping only the singular values
    above rel_tol * sigma_max (none when a is zero)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("pseudoinverse requires a nonempty matrix")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > rel_tol * s[0]
    return u[:, keep], s[keep], vt[keep]


def truncated_svd_pinv(a: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below
    rel_tol * sigma_max zeroed."""
    u, s, vt = _truncated_svd(a, rel_tol)
    return (vt.T / s) @ u.T


def design_filter(w_op: OperatorMatrix, order: int, d: IdealResponse,
                  rel_tol: float = 1e-8) -> DesignResult:
    """Least-squares fit of the filter polynomial to the ideal response.

    Solves h = A^+ b with A = [vec(W) ... vec(W^order)] and b = vec(diag(d))
    via the truncated-SVD pseudoinverse (the minimum-norm minimizer on the
    retained subspace; rank deficiency is handled by truncation, and only
    the residual is contracted).  The residual ||A h - b||_2 equals the
    Frobenius misfit of the filter matrix against D.
    """
    if order < 1:
        raise ValueError("filter order must be at least 1")
    n = w_op.size
    if len(d.d) != n:
        raise ValueError(f"ideal response length {len(d.d)} does not match "
                         f"operator size {n}")
    cols = np.empty((n * n, order))
    power = np.eye(n)
    for k in range(order):
        power = power @ w_op.entries
        cols[:, k] = power.reshape(-1)
    b = d.matrix().reshape(-1)
    u, s, vt = _truncated_svd(cols, rel_tol)
    h_tail = (vt.T / s) @ (u.T @ b)
    residual = float(np.linalg.norm(cols @ h_tail - b))
    coeffs = FilterCoeffs(np.concatenate([[0.0], h_tail]))
    return DesignResult(coeffs=coeffs, residual=residual, rank_used=len(s))


def frequency_response(h_op: np.ndarray) -> np.ndarray:
    """Response of the filter matrix to all frequencies at once: H @ 1."""
    h_op = np.asarray(h_op, dtype=float)
    if h_op.ndim != 2 or h_op.shape[0] != h_op.shape[1]:
        raise ValueError("frequency response requires a square matrix")
    return h_op @ np.ones(h_op.shape[1])


@dataclass(frozen=True)
class PipelineResult:
    coeffs: FilterCoeffs
    residual: float
    graphon_output: np.ndarray
    response: np.ndarray


def filter_pipeline(w, f, order: int, d: IdealResponse, p: int, n: int,
                    t_points: int) -> PipelineResult:
    """Project the input, design the filter, apply it, and resample.

    Returns the designed coefficients, the design residual, the filtered
    output at t_points uniform points, and the frequency response H @ 1.
    """
    w_op = build_fg_shift(w, p, n)
    design = design_filter(w_op, order, d)
    h_mat = fg_filter_operator(w_op, design.coeffs)
    return PipelineResult(coeffs=design.coeffs,
                          residual=design.residual,
                          graphon_output=project_apply_resample(h_mat, f, p, t_points),
                          response=frequency_response(h_mat))
