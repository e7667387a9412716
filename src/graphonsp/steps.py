"""Step-function lifting between vectors and functions on [0, 1].

The lifting map sends a length-N vector x to the step function
f_a(t) = sum_i x_i * b_i(t) where b_i has amplitude N on the i-th of N
equal strips (strip i covers [i/N, (i+1)/N), with the final strip closed:
the grid graphon's cell rule).  With this amplitude the operator matrix of
an empirical graphon paired against the basis is exactly the adjacency
matrix, which makes lifted operator application agree with the scaled
adjacency matrix to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Graphon, _cell_index, _check_range

__all__ = [
    "StepSignal",
    "lift",
    "unlift",
    "step_operator_matrix",
    "apply_empirical_operator",
]


@dataclass(frozen=True)
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
    c = np.array(x, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("lift expects a nonempty vector")
    c.flags.writeable = False
    return StepSignal(coeffs=c)


def unlift(f: StepSignal) -> np.ndarray:
    """Return the coefficient vector of a step signal."""
    return f.coeffs.copy()


def step_operator_matrix(w: Graphon) -> np.ndarray:
    """Operator matrix of a grid graphon in the amplitude-N strip basis.

    Entry (i, j) is the double integral of the kernel against b_i(x) b_j(y).
    Because the grid cells align with the strips the integral is a cell sum:
    value * (1/N^2) * N^2 = value, so for a 0/1 empirical graphon this is
    the adjacency matrix exactly, with no floating error.  Returns the
    graphon's own read-only grid, not a copy.
    """
    if w.grid is None:
        raise ValueError("step basis requires a grid graphon; analytic kernels "
                         "go through the Chebyshev path")
    return w.grid


def apply_empirical_operator(w: Graphon, f: StepSignal) -> StepSignal:
    """Apply the empirical-graphon Fredholm operator to a step signal.

    Returns lift((1/N) * M * unlift(f)) with M the step operator matrix;
    equals scaled-adjacency application on the corresponding graph.
    """
    m = step_operator_matrix(w)
    if len(f) != m.shape[0]:
        raise ValueError(f"signal length {len(f)} does not match grid side {m.shape[0]}")
    y = (m @ f.coeffs) / m.shape[0]
    return lift(y)
