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
rule above, unchanged: no term lands on raw degree 0.  The raw matrix is
never formed; the corrected n x n block is basis[:, :n]^T K (basis C), with
K the kernel at the quadrature nodes and basis the weighted Chebyshev basis
of degrees 0..p there.

The returned shift operator acts on unit-series coefficient vectors
(entry i multiplies c_{i-1}): rows are scaled by 1/(2*normalizer) so that
the matrix represents g = T f on [0,1] including the domain-map Jacobian.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chebyshev import (QuadratureRule, _check_basis_size, cheb_basis_matrix,
                        coefficient_normalizers, map_domain_inverse,
                        project_apply_resample)
from .kernels import Graphon

__all__ = [
    "OperatorMatrix",
    "compute_tilde_w",
    "build_fg_shift",
    "fredholm_solve",
    "resolvent_eigs",
    "operator_to_csv",
]


@dataclass(frozen=True)
class OperatorMatrix:
    """Square operator matrix in the Chebyshev basis."""

    entries: np.ndarray

    @property
    def size(self):
        return self.entries.shape[0]


def _kernel_and_basis(w: Graphon, p: int):
    """Kernel K at the p-panel rule's nodes (mapped to [0,1]) and the weighted
    basis B[m, i] = weight_m * c_i(node_m) for degrees i = 0..p."""
    rule = QuadratureRule(p)
    x = map_domain_inverse(rule.nodes)
    kernel = w.eval(x[:, None], x[None, :])
    basis = rule.weights[:, None] * cheb_basis_matrix(rule.nodes, p + 1)
    return kernel, basis


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
    kernel, basis = _kernel_and_basis(w, p)
    n_live = min(n_pad, p + 1)
    basis = basis[:, :n_live]
    entries = np.zeros((n_pad, n_pad))
    entries[:n_live, :n_live] = basis.T @ kernel @ basis
    entries.flags.writeable = False
    return OperatorMatrix(entries=entries)


def build_fg_shift(w: Graphon, p: int, n: int) -> OperatorMatrix:
    """Fourier-Galerkin shift operator: tilde sums with the weight correction
    C folded in, then normalization onto unit-series coefficients."""
    _check_basis_size(p, n)
    kernel, basis = _kernel_and_basis(w, p)
    corrected = basis[:, :n].T @ kernel @ (basis @ _weight_correction(p, n))
    entries = corrected / (2.0 * coefficient_normalizers(n))[:, None]
    entries.flags.writeable = False
    return OperatorMatrix(entries=entries)


def fredholm_solve(w: Graphon, f, p: int, n: int, t_points: int) -> np.ndarray:
    """Approximate g(x) = int_0^1 W(x,y) f(y) dy at t_points uniform points.

    ``f`` is a closure on [0,1]; the returned values sit on the uniform
    grid x = (u+1)/2 with u running over [-1,1] inclusive.
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
