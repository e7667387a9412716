"""Fourier-Galerkin shift operator of a graphon.

Construction follows the expansion method: project the kernel onto first-
kind Chebyshev polynomials with the extrema quadrature (which carries the
orthogonality weight in both variables), then cancel the surplus weight in
the second variable with the Chebyshev series of sqrt(1-v^2),

    sqrt(1-v^2) = 2/pi - (4/pi) * sum_{l>=1} c_{2l}(v) / (4l^2 - 1).

The product identity c_d * c_{2l} = (c_{d+2l} + c_{|d-2l|})/2 turns that
series into a column recombination of the raw matrix: column degree d
receives -1/(4l^2-1) times the raw columns at degrees d+2l and |d-2l|.
Reflections landing exactly on degree 0 are excluded; this keeps a
constant kernel's corrected operator supported on the single (1,1) entry,
so its range is the constant functions and the consensus response is
exactly reachable, matching the behaviour the design experiments rely on.

The p-panel rule resolves raw degrees 0..p only (higher ones are exact
zeros), so the recombination is a fixed (p+1) x n matrix C, built in
closed form by ``_weight_correction``:

    C[k, d] = (2/pi) * (delta_kd - [k > 0 and k - d even] * (a_{|k-d|/2} + a_{(k+d)/2}))

with a_0 = 0 and a_l = 1/(4l^2-1).  The factor [k > 0] is the reflection
rule above: no term lands on raw degree 0.  The raw matrix is
never formed; the corrected n x n block is B[:, :n]^T K (B C), with K the
kernel at the quadrature nodes and B the weighted Chebyshev basis of
degrees 0..p there.  The raw matrix of ``compute_tilde_w`` is
B[:, :r]^T K B[:, :r].

The returned shift operator acts on unit-series coefficient vectors
(entry i multiplies c_{i-1}): rows are scaled by 1/(2*normalizer) so that
the matrix represents g = T f on [0,1] including the domain-map Jacobian.

Two one-entry caches serve callers that work at one (p, n) in a row.
``_factors`` keeps the nodes and the two factors, keyed by (p, n), for the
next kernel.  ``_shift`` keeps the last shift operator, keyed by (graphon,
p, n), so that ``build_fg_shift``, ``fredholm_solve`` and
``filtering.filter_pipeline`` on one graphon evaluate its kernel once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .chebyshev import (QuadratureRule, _check_basis_size, cheb_basis_matrix,
                        coefficient_normalizers, map_domain_inverse,
                        project_apply_resample)
from .kernels import _BLOCK_VALUES, Graphon

__all__ = [
    "OperatorMatrix",
    "compute_tilde_w",
    "build_fg_shift",
    "fredholm_solve",
    "resolvent_eigs",
    "operator_to_csv",
]


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Square operator matrix in the Chebyshev basis."""

    entries: np.ndarray

    @property
    def size(self):
        return self.entries.shape[0]


@functools.lru_cache(maxsize=1)
def _factors(p: int, n: int):
    """The p-panel rule's nodes mapped to [0,1] and the two factors of the
    corrected product: B's first n columns and B C, where
    B[m, i] = weight_m * c_i(node_m) for degrees i = 0..p.  All three are
    read-only.

    They depend on (p, n) alone.  One entry is kept, (p+1)(2n+1) * 8 bytes
    (1.6 MB at p=1000, n=100): callers build several operators at one
    (p, n) in a row, and the kernel changes between them while (p, n) does
    not; the operator of one kernel is cached apart, keyed by (graphon, p,
    n), by ``_shift``.  B itself, (p+1)^2 entries, is dropped on return:
    the left factor is a copy of its columns, since a view would keep all
    of B alive.
    """
    rule = QuadratureRule(p)
    x = map_domain_inverse(rule.nodes)
    basis = cheb_basis_matrix(rule.nodes, p + 1)
    basis *= rule.weights[:, None]
    left = basis[:, :n].copy()
    right = basis @ _weight_correction(p, n)
    for arr in (x, left, right):
        arr.flags.writeable = False
    return x, left, right


def _galerkin(w: Graphon, x: np.ndarray, left: np.ndarray,
              right: np.ndarray) -> np.ndarray:
    """left^T K right, with K[a, b] = W(x_a, x_b).  With the nodes and
    factors of ``_factors`` it is the corrected block, and the raw block
    when ``right`` is ``left``.

    K is written a block of rows of ~``_BLOCK_VALUES`` entries at a time
    from ``w.func``, so that the closure's temporaries stay block-sized
    instead of (p+1)^2; W is evaluated per entry, so the blocks do not change
    its bits.
    """
    m = x.shape[0]
    kernel = np.empty((m, m))
    rows = max(1, _BLOCK_VALUES // m)
    for r0 in range(0, m, rows):
        kernel[r0:r0 + rows] = w.func(x[r0:r0 + rows, None], x[None, :])
    return left.T @ kernel @ right


def _weight_correction(p: int, n: int) -> np.ndarray:
    """The (p+1) x n matrix C mapping raw columns (degrees 0..p) to the
    weight-corrected columns (degrees 0..n-1); see the module docstring."""
    k = np.arange(p + 1)[:, None]
    d = np.arange(n)[None, :]
    a = np.zeros(p + 1)
    a[1:] = 1.0 / (4.0 * np.arange(1, p + 1) ** 2 - 1.0)
    live = (k > 0) & ((k + d) % 2 == 0)
    c = (k == d) - live * (a[np.abs(k - d) // 2] + a[(k + d) // 2])
    return (2.0 / np.pi) * c


def compute_tilde_w(w: Graphon, p: int, n_pad: int) -> OperatorMatrix:
    """Raw double-quadrature matrix: tilde[i,j] is the extrema-rule value of

        int int W((u+1)/2, (v+1)/2) c_{i-1}(u) c_{j-1}(v) w(u) w(v) du dv.

    The p-panel rule folds degree 2p-k onto degree k, so entries above
    degree p absorb low-degree kernel mass instead of their own (which has
    already decayed).  Only degrees <= p are therefore evaluated; the rest
    of the requested n_pad x n_pad matrix is stored as exact zeros.
    """
    if n_pad < 1:
        raise ValueError("padded size must be positive")
    n_live = min(n_pad, p + 1)
    entries = np.zeros((n_pad, n_pad))
    x, left, _ = _factors(p, n_live)
    entries[:n_live, :n_live] = _galerkin(w, x, left, left)
    entries.flags.writeable = False
    return OperatorMatrix(entries=entries)


@functools.lru_cache(maxsize=1)
def _shift(w: Graphon, p: int, n: int) -> np.ndarray:
    """The read-only entries of the shift operator of ``w`` at (p, n).

    One entry is kept: a build, the Fredholm solve and the filter pipeline
    that follow it on the same graphon at the same (p, n) evaluate the
    kernel once between them.  The key is the graphon object itself
    (``Graphon`` compares by identity), which is sound because a graphon's
    values are immutable after construction; the cache holds a strong
    reference, so the object's id cannot be reused while it is cached.  It
    keeps alive one n x n array and the last graphon with what its closure
    holds: for an empirical graphon, the graph's packed adjacency rows
    (32 MB at ``sampling.MAX_NODES``).
    """
    corrected = _galerkin(w, *_factors(p, n))
    entries = corrected / (2.0 * coefficient_normalizers(n))[:, None]
    entries.flags.writeable = False
    return entries


def build_fg_shift(w: Graphon, p: int, n: int) -> OperatorMatrix:
    """Fourier-Galerkin shift operator: tilde sums with the weight correction
    C folded in, then normalization onto unit-series coefficients.

    The entries are shared, read-only, with the last build of the same
    graphon object at the same (p, n); see ``_shift``."""
    _check_basis_size(p, n)
    return OperatorMatrix(entries=_shift(w, p, n))


def fredholm_solve(w: Graphon, f, p: int, n: int, t_points: int) -> np.ndarray:
    """Approximate g(x) = int_0^1 W(x,y) f(y) dy at t_points uniform points.

    ``f`` is a closure on [0,1]; the returned values sit on the uniform
    grid x = (u+1)/2 with u running over [-1,1] inclusive.  The operator is
    ``build_fg_shift``'s, so it is reused when ``w`` was just built at
    (p, n).
    """
    return project_apply_resample(build_fg_shift(w, p, n).entries, f, p, t_points)


def resolvent_eigs(o: OperatorMatrix) -> np.ndarray:
    """Eigenvalue estimates of the finite operator, |lambda| descending.

    Computed on the symmetric part (O + O^T)/2 since the continuous
    operator is self-adjoint; finite quadrature and the coefficient
    normalization can break matrix symmetry, which is reported.
    """
    m = o.entries
    asym = float(np.abs(m - m.T).max())
    if asym > 1e-8:
        warnings.warn(f"operator asymmetry {asym:.3e}; eigenvalues are taken "
                      "from the symmetrized part", stacklevel=2)
    eigs = np.linalg.eigvalsh((m + m.T) / 2.0)
    return eigs[np.argsort(-np.abs(eigs), kind="stable")]


def operator_to_csv(o: OperatorMatrix, path) -> None:
    np.savetxt(path, o.entries, delimiter=",")
