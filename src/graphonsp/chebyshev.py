"""First-kind Chebyshev polynomials and the extrema-node weighted quadrature.

The quadrature rule used throughout is the (P+1)-point extrema rule with
halved endpoints,

    int_{-1}^{1} f(u) / sqrt(1 - u^2) du  ~=  (pi/P) * sum~ f(cos(pi*m/P)),

where sum~ halves the first and last terms.  It integrates cos(k*theta)
exactly to zero for 0 < k < 2P, so it is exact for polynomial-times-weight
integrands of degree up to 2P-1.

Coefficient vectors are stored in the unit-series convention: entry i
multiplies c_{i-1} directly, so resampling needs no extra constants.  Raw
weighted projections carry the factors pi (degree 0) and pi/2 (degree >= 1)
from int c_k^2 / sqrt(1-u^2); projection divides them out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .kernels import _check_range

__all__ = [
    "ChebCoeffVector",
    "QuadratureRule",
    "cheb_eval",
    "cheb_basis_matrix",
    "coefficient_normalizers",
    "quad_integrate",
    "project_signal",
    "resample",
    "project_apply_resample",
    "map_domain_inverse",
]

@dataclass(frozen=True, eq=False)
class ChebCoeffVector:
    """Chebyshev coefficients; entry i multiplies the degree-(i-1) polynomial."""

    coeffs: np.ndarray

    def __len__(self):
        return len(self.coeffs)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Extrema-node rule: P panels, P+1 nodes cos(pi*m/P) from +1 down to -1."""

    p: int
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("need at least one panel")
        m = np.arange(self.p + 1)
        nodes = np.cos(np.pi * m / self.p)
        weights = np.full(self.p + 1, np.pi / self.p)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def cheb_eval(degree: int, u) -> float:
    """c_k(u) = cos(k * arccos(u)) for u in [-1, 1]: column k of the basis matrix."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    u = np.asarray(u, dtype=float)
    _check_range(u, -1.0, 1.0, "Chebyshev argument must lie in [-1, 1]")
    # the basis matrix's own expression, for one column only
    out = np.cos(np.arccos(u) * degree)
    return float(out) if out.ndim == 0 else out


def cheb_basis_matrix(u, n: int) -> np.ndarray:
    """Matrix B with B[m, i] = c_i(u_m) = cos(i * arccos(u_m)) for degrees
    i = 0..n-1, u flattened; ValueError unless every u_m lies in [-1, 1]."""
    u = np.asarray(u, dtype=float)
    _check_range(u, -1.0, 1.0, "Chebyshev argument must lie in [-1, 1]")
    angles = np.outer(np.arccos(u), np.arange(n))
    return np.cos(angles, out=angles)


def coefficient_normalizers(n: int) -> np.ndarray:
    """[pi, pi/2, pi/2, ...]: the weighted self-inner-products int c_k^2 w."""
    g = np.full(n, np.pi / 2)
    g[0] = np.pi
    return g


def quad_integrate(rule: QuadratureRule, f) -> float:
    """Weighted integral of f against 1/sqrt(1-u^2) by the extrema rule."""
    return float(np.dot(rule.weights, f(rule.nodes)))


def _check_basis_size(p: int, n: int) -> None:
    """ValueError unless p >= 1 and 1 <= n <= p+1, written so that NaN fails too."""
    if not p >= 1:
        raise ValueError("need at least one panel")
    if not n >= 1:
        raise ValueError(f"basis size must be at least 1, got {n}")
    if not n <= p + 1:
        raise ValueError(f"{p} panels cannot resolve a basis of size {n} (aliasing); "
                         "need n <= p+1")


@functools.lru_cache(maxsize=1)
def _projector(p: int, n: int):
    """The p-panel ``QuadratureRule`` and its basis matrix at degrees
    0..n-1, read-only.  One entry is kept, (p+1)(n+2) * 8 bytes (0.8 MB at
    p=1000, n=100): a Fredholm solve and a filter pipeline at one (p, n)
    project with the same pair."""
    rule = QuadratureRule(p)
    basis = cheb_basis_matrix(rule.nodes, n)
    basis.flags.writeable = False
    return rule, basis


@functools.lru_cache(maxsize=1)
def _resampler(t_points: int, n: int):
    """The read-only basis matrix at degrees 0..n-1 on t_points uniform
    points of [-1, 1].  One entry is kept, t_points * n * 8 bytes (160 kB
    at t_points=200, n=100)."""
    basis = cheb_basis_matrix(np.linspace(-1.0, 1.0, t_points), n)
    basis.flags.writeable = False
    return basis


def project_signal(f, p: int, n_basis: int) -> ChebCoeffVector:
    """Project a function on [-1,1] onto the first n_basis Chebyshev polynomials.

    Entry i is the quadrature of f * c_{i-1} * weight divided by the
    normalizer, so that project -> resample is the identity on polynomials
    of degree < n_basis once p is large enough to resolve them.
    """
    _check_basis_size(p, n_basis)
    rule, basis = _projector(p, n_basis)
    raw = basis.T @ (rule.weights * np.asarray(f(rule.nodes), dtype=float))
    return ChebCoeffVector(coeffs=raw / coefficient_normalizers(n_basis))


def resample(g, t_points: int) -> np.ndarray:
    """Evaluate sum_i g_i c_{i-1} at t_points uniform points on [-1, 1]."""
    if t_points < 2:
        raise ValueError("need at least two resample points")
    coeffs = g.coeffs if isinstance(g, ChebCoeffVector) else np.asarray(g, dtype=float)
    return _resampler(t_points, len(coeffs)) @ coeffs


def project_apply_resample(matrix: np.ndarray, f, p: int, t_points: int) -> np.ndarray:
    """Project f (a function on [0,1]) onto the first matrix.shape[1]
    Chebyshev polynomials, apply the coefficient-space matrix, and resample
    the result at t_points uniform points."""
    coeffs = project_signal(lambda u: f(map_domain_inverse(u)), p, matrix.shape[1])
    return resample(matrix @ coeffs.coeffs, t_points)


def map_domain_inverse(u):
    """x = (u + 1)/2, mapping [-1,1] onto [0,1]."""
    u = np.asarray(u, dtype=float)
    _check_range(u, -1.0, 1.0, "map_domain_inverse expects arguments in [-1, 1]")
    out = (u + 1.0) / 2.0
    return float(out) if out.ndim == 0 else out

