"""Step-function lifting between vectors and functions on [0, 1].

The lifting map sends a length-N vector x to the step function
f_a(t) = sum_i x_i * b_i(t) where b_i has amplitude N on the i-th of N
equal strips (strip i covers [i/N, (i+1)/N), with the final strip closed:
the grid graphon's cell rule).  With this amplitude the operator matrix of
an empirical graphon paired against the basis is exactly the adjacency
matrix, and lifted operator application runs the same row-block product
as ``apply_shift``: it equals the scaled adjacency's action bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Graphon, _cell_index, _check_range, _real_copy
from .sampling import _scaled_matvec

__all__ = [
    "StepSignal",
    "lift",
    "unlift",
    "step_operator_matrix",
    "apply_empirical_operator",
]


@dataclass(frozen=True, eq=False)
class StepSignal:
    """Coefficients of a step function on [0, 1] in the amplitude-N strip basis.

    Evaluation at a point in strip i returns coeffs[i] * N (the basis
    amplitude convention), so the coefficients themselves are recovered by
    unlift.
    """

    coeffs: np.ndarray

    def __len__(self):
        return len(self.coeffs)

    def evaluate(self, t):
        """Value of the lifted function: coeffs[strip(t)] * N."""
        t = np.asarray(t, dtype=float)
        _check_range(t, 0.0, 1.0, "point outside [0, 1]")
        n = len(self.coeffs)
        return self.coeffs[_cell_index(t, n)] * n


def lift(x) -> StepSignal:
    """Lift a vector into the step basis; unlift(lift(x)) == x exactly."""
    c = _real_copy(x, "signal")
    if c.ndim != 1 or c.size == 0:
        raise ValueError("lift expects a nonempty vector")
    return StepSignal(coeffs=c)


def unlift(f: StepSignal) -> np.ndarray:
    """Return the coefficient vector of a step signal."""
    return f.coeffs.copy()


def _require_grid(w: Graphon) -> None:
    if w.cells is None:
        raise ValueError("step basis requires a grid graphon; analytic kernels "
                         "go through the Chebyshev path")


def step_operator_matrix(w: Graphon) -> np.ndarray:
    """Operator matrix of a grid graphon in the amplitude-N strip basis.

    Entry (i, j) is the double integral of the kernel against b_i(x) b_j(y).
    Because the grid cells align with the strips the integral is a cell sum:
    value * (1/N^2) * N^2 = value: for an empirical graphon, the boolean
    adjacency itself.  Returns a read-only view of a float grid's cells, not
    a copy, and an empirical graphon's adjacency unpacked into a fresh
    read-only boolean matrix.
    """
    _require_grid(w)
    return w.grid


def apply_empirical_operator(w: Graphon, f: StepSignal) -> StepSignal:
    """Apply the empirical-graphon Fredholm operator to a step signal:
    lift(M * fl(1/N) @ unlift(f)) for the step operator matrix M, by the row-
    block loop of ``apply_shift`` on the graphon's cells, packed or not,
    whose result on the graph it equals bit for bit."""
    _require_grid(w)
    return lift(_scaled_matvec(w.cells, f.coeffs))
