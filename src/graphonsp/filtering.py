"""Polynomial filters over graph and graphon shift operators.

Graph-side filtering iterates the shift action and never materializes
matrix powers (the graph can have thousands of nodes); graphon-side
filtering works with the small Fourier-Galerkin operator, where powers
are formed explicitly, per call.

Filter design solves min_h || sum_{k=1}^{K} h_k W^k - D ||_F by least
squares on the vectorized system whose k-th column is vec(W^k).  The
power-polynomial columns make the system ill-conditioned, so the solve
goes through a truncated-SVD pseudoinverse.  One QR of the order-8 power
matrix A_8 = QR serves every order up to 8: A_K = Q R[:, :K], so A_K and
R[:, :K] share their singular values and right singular vectors, and the
pseudoinverse solve is a K x K SVD of R's leading columns against Q^T b,
with the same rank rule as an SVD of A_K itself.  That factor, one per
operator, is the module's only cache.  Only the positive powers
enter the design: the shift operator is what the graph can actually
implement, and the reported unreachability bounds (e.g. a constant
kernel cannot touch any nonconstant frequency) hold in that space.  The
returned coefficient vector carries a leading h_0 = 0 so it applies
directly with the k-from-zero filter conventions below.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .chebyshev import project_apply_resample
from .galerkin import OperatorMatrix, build_fg_shift
from .kernels import _real_copy
from .sampling import Graph, apply_shift

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


def _finite_vector(values, what: str) -> np.ndarray:
    """``values`` as a read-only float vector of its own; ValueError unless
    real, nonempty, 1-D and finite."""
    v = _real_copy(values, what)
    if v.ndim != 1 or v.size < 1 or not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be a nonempty finite vector")
    return v


@dataclass(frozen=True, eq=False)
class FilterCoeffs:
    """Polynomial filter taps; index k holds the coefficient of the k-th power."""

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", _finite_vector(self.h, "filter coefficients"))

    @property
    def order(self):
        return len(self.h)


@dataclass(frozen=True, eq=False)
class IdealResponse:
    """Diagonal of the ideal graphon filter matrix D."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _finite_vector(self.d, "ideal response"))

    def matrix(self):
        return np.diag(self.d)


@dataclass(frozen=True, eq=False)
class DesignResult:
    coeffs: FilterCoeffs
    residual: float
    rank_used: int


def apply_graph_filter(g: Graph, h: FilterCoeffs, x: np.ndarray) -> np.ndarray:
    """y = sum_k h_k S^k x, S = A/N, by iterated shift application."""
    x = _real_copy(x, "signal")
    if x.shape != (g.n,):
        raise ValueError(f"signal length {x.shape} does not match operator size {g.n}")
    y = h.h[0] * x
    v = x
    for k in range(1, h.order):
        v = apply_shift(g, v)
        y = y + h.h[k] * v
    return y


# orders up to this are allowed at every basis size, and served by one QR
# factor per operator; experiments.DESIGN_ORDERS is 1.._ORDER_FLOOR, swept
# also at basis sizes 1 and 2
_ORDER_FLOOR = 8


def _powers(w_op: OperatorMatrix):
    """W^0 = I, W^1, W^2, ...: each power the one before times W, formed
    per call and dropped by the caller."""
    return itertools.accumulate(itertools.repeat(w_op.entries), np.matmul,
                                initial=np.eye(w_op.size))


def _stacked_qr(w_op: OperatorMatrix, order: int):
    """(Q, R), read-only, of A = [vec(W^1) ... vec(W^order)] = QR, Q with
    min(n^2, order) orthonormal columns; ValueError if a power is not finite."""
    a = np.empty((w_op.size ** 2, order))
    # W^0 is not a column, and islice forms no power past W^order
    for k, power in enumerate(itertools.islice(_powers(w_op), 1, order + 1), start=1):
        if not np.all(np.isfinite(power)):
            raise ValueError(f"power W^{k} of the shift operator is not finite")
        a[:, k - 1] = power.reshape(-1)
    q, r = np.linalg.qr(a)
    q.flags.writeable = False
    r.flags.writeable = False
    return q, r


@functools.lru_cache(maxsize=1)
def _power_qr(w_op: OperatorMatrix):
    """(Q, R) of the order-_ORDER_FLOOR power matrix of the last operator.

    Every design of order <= 8 on the operator reads it: 8 * 8n^2 bytes of Q
    and 8 * min(n^2, 8) * 8 of R, 640 kB at n=100.  The stacked matrix is
    not kept.  The key is the operator object itself, which is sound
    because ``OperatorMatrix`` compares by identity and its entries are a
    read-only copy; the factor, and its operator, stay alive until a factor
    of another operator evicts them.  A non-finite power raises, and
    ``lru_cache`` keeps no exception.
    """
    return _stacked_qr(w_op, _ORDER_FLOOR)


def fg_filter_operator(w_op: OperatorMatrix, h: FilterCoeffs) -> np.ndarray:
    """Explicit matrix polynomial sum_k h_k W^k with W^0 the identity."""
    # zip takes a tap first, so no power is formed past the last tap
    return sum(hk * power for hk, power in zip(h.h, _powers(w_op)))


def _truncated_svd(a: np.ndarray, rel_tol: float):
    """(V_r / sigma_r, U_r, r) of the thin SVD of a, keeping the r singular
    values above rel_tol * sigma_max (none when a is zero): A^+ is
    (V_r / sigma_r) U_r^T."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("pseudoinverse requires a nonempty matrix")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > rel_tol * s[0]
    return vt[keep].T / s[keep], u[:, keep], int(keep.sum())


def truncated_svd_pinv(a: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Moore-Penrose pseudoinverse, singular values below rel_tol * sigma_max zeroed."""
    v_scaled, u, _ = _truncated_svd(a, rel_tol)
    return v_scaled @ u.T


def design_filter(w_op: OperatorMatrix, order: int, d: IdealResponse,
                  rel_tol: float = 1e-8) -> DesignResult:
    """Least-squares fit of the filter polynomial to the ideal response.

    Solves h = A^+ b with A = [vec(W) ... vec(W^order)] and b = vec(diag(d))
    via the truncated-SVD pseudoinverse (the minimum-norm minimizer on the
    retained subspace; rank deficiency is handled by truncation, and only
    the residual is contracted).  With A = QR, A^+ b = R^+ (Q^T b), so the
    SVD is of R's order x order block alone, and its rank is the number of
    singular values above rel_tol * sigma_max, those of A.  The residual
    ||Q (R h) - b||_2 equals the Frobenius misfit of the filter matrix
    against D.

    Orders up to 8 read one factor of the order-8 matrix per operator,
    cached by ``_power_qr``; so a single design of a lower order forms the
    powers up to W^8 (three extra n^3 products at order 5, ~0.1 ms at
    n=100).  A higher order factors its own matrix and caches nothing.

    The order is refused above max(n^2, 8) before any power is formed.  n^2
    is the row count of A, and by Cayley-Hamilton its rank is at most n
    already, so further columns cannot lower the residual; orders up to 8,
    the design studies' sweep, are cheap at any n and always allowed.
    ValueError if a power of W is not finite.
    """
    bound = max(w_op.size ** 2, _ORDER_FLOOR)
    if not 1 <= order <= bound:
        raise ValueError(f"filter order must lie in 1..{bound} (the larger of n^2 "
                         f"and {_ORDER_FLOOR} at basis size {w_op.size}), got {order}")
    if len(d.d) != w_op.size:
        raise ValueError(f"ideal response length {len(d.d)} does not match "
                         f"operator size {w_op.size}")
    q, r = _power_qr(w_op) if order <= _ORDER_FLOOR else _stacked_qr(w_op, order)
    r = r[:, :order]
    b = d.matrix().reshape(-1)
    v_scaled, u, rank = _truncated_svd(r, rel_tol)
    h_tail = v_scaled @ (u.T @ (q.T @ b))
    residual = float(np.linalg.norm(q @ (r @ h_tail) - b))
    coeffs = FilterCoeffs(np.concatenate([[0.0], h_tail]))
    return DesignResult(coeffs=coeffs, residual=residual, rank_used=rank)


def frequency_response(h_op: np.ndarray) -> np.ndarray:
    """Response of the filter matrix to all frequencies at once: H @ 1."""
    h_op = np.asarray(h_op, dtype=float)
    if h_op.ndim != 2 or h_op.shape[0] != h_op.shape[1]:
        raise ValueError("frequency response requires a square matrix")
    return h_op @ np.ones(h_op.shape[1])


@dataclass(frozen=True, eq=False)
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
    The shift operator is ``build_fg_shift``'s: when ``w`` was just built
    at (p, n) it is that same object, and a design of order <= 8 on it
    reads the QR factor the earlier designs formed.  The filter matrix
    forms its powers afresh.
    """
    w_op = build_fg_shift(w, p, n)
    design = design_filter(w_op, order, d)
    h_mat = fg_filter_operator(w_op, design.coeffs)
    return PipelineResult(coeffs=design.coeffs,
                          residual=design.residual,
                          graphon_output=project_apply_resample(h_mat, f, p, t_points),
                          response=frequency_response(h_mat))
