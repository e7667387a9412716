"""Step-function lifting between vectors and functions on an interval.

The lifting map sends a length-N vector x to the step function
f_a(t) = sum_i x_i * b_i(t) where b_i has amplitude N on the i-th of N
equal strips (strip i covers [i/N, (i+1)/N) on the unit domain, with the
final strip closed).  With this amplitude the operator matrix of an
empirical graphon paired against the basis is exactly the adjacency
matrix, which makes lifted operator application agree with the scaled
adjacency matrix to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Graphon

__all__ = [
    "StepSignal",
    "lift",
    "unlift",
    "step_operator_matrix",
    "apply_empirical_operator",
]


@dataclass(frozen=True)
class StepSignal:
    """Coefficients of a step function in the amplitude-N strip basis.

    ``domain`` is "unit" for [0,1] or "symmetric" for [-1,1].  Evaluation
    at a point in the strip i returns coeffs[i] * N (the basis amplitude
    convention), so the coefficients themselves are recovered by unlift.
    """

    coeffs: np.ndarray
    domain: str = "unit"

    def __len__(self):
        return len(self.coeffs)

    def strip_index(self, t):
        """Index of the strip containing t (half-open cells, last closed)."""
        t = np.asarray(t, dtype=float)
        if self.domain == "symmetric":
            lo, hi = -1.0, 1.0
            pos = (t + 1.0) / 2.0
        else:
            lo, hi = 0.0, 1.0
            pos = t
        if np.any(t < lo) or np.any(t > hi):
            raise ValueError(f"point outside the {self.domain} domain")
        n = len(self.coeffs)
        return np.minimum((pos * n).astype(int), n - 1)

    def evaluate(self, t):
        """Value of the lifted function: coeffs[strip(t)] * N."""
        return self.coeffs[self.strip_index(t)] * len(self.coeffs)


def lift(x, domain: str = "unit") -> StepSignal:
    """Lift a vector into the step basis; unlift(lift(x)) == x exactly."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("lift expects a nonempty vector")
    if domain not in ("unit", "symmetric"):
        raise ValueError(f"unknown domain {domain!r}")
    c = x.copy()
    c.flags.writeable = False
    return StepSignal(coeffs=c, domain=domain)


def unlift(f: StepSignal) -> np.ndarray:
    """Return the coefficient vector of a step signal."""
    return f.coeffs.copy()


def step_operator_matrix(w: Graphon) -> np.ndarray:
    """Operator matrix of a grid graphon in the amplitude-N strip basis.

    Entry (i, j) is the double integral of the kernel against b_i(x) b_j(y).
    Because the grid cells align with the strips the integral is a cell sum:
    value * (1/N^2) * N^2 = value, so for a 0/1 empirical graphon this is
    the adjacency matrix exactly, with no floating error.
    """
    if w.kind != "grid":
        raise ValueError("step basis requires a grid graphon; analytic kernels "
                         "go through the Chebyshev path")
    return w.grid.copy()


def apply_empirical_operator(w: Graphon, f: StepSignal) -> StepSignal:
    """Apply the empirical-graphon Fredholm operator to a step signal.

    Returns lift((1/N) * M * unlift(f)) with M the step operator matrix;
    equals scaled-adjacency application on the corresponding graph.
    """
    m = step_operator_matrix(w)
    if len(f) != m.shape[0]:
        raise ValueError(f"signal length {len(f)} does not match grid side {m.shape[0]}")
    y = (m @ f.coeffs) / m.shape[0]
    return lift(y, domain=f.domain)
