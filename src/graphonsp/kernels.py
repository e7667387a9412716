"""Graphon kernels: bounded symmetric functions on the unit square.

A graphon is evaluated pointwise on [0,1]^2 and is either analytic (a
closure) or a piecewise-constant grid induced by an adjacency matrix.
Values are immutable after construction, so graphons are safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graphon",
    "erdos_renyi",
    "sin_product",
    "exp_sum",
    "exp_distance",
    "grid_graphon",
    "empirical_graphon",
    "l2_distance",
    "grid_to_csv",
    "grid_from_csv",
]

_FLOAT_MAX = np.finfo(float).max


def _cell_index(t, m: int):
    """Index of the cell holding t when [0, 1] is cut into m equal cells.

    Cell i is [i/m, (i+1)/m); the last cell is closed at 1.0, so every t in
    [0, 1] has a cell.
    """
    return np.minimum((t * m).astype(int), m - 1)


def _check_range(values, lo, hi, message: str) -> None:
    """ValueError(message) unless every value lies in [lo, hi]; written so
    that NaN fails too, and so do infinities since every bound here is finite."""
    v = np.asarray(values)
    if not np.all((v >= lo) & (v <= hi)):
        raise ValueError(message)


@dataclass(frozen=True)
class Graphon:
    """Symmetric kernel W : [0,1]^2 -> [0,1].

    Either analytic (``func`` holds a vectorized closure) or a grid
    (``grid`` holds a square symmetric M x M matrix of cell values, and
    ``func`` is None).  A grid graphon takes the value of the cell pair
    holding (x, y), where cell i is [i/M, (i+1)/M) in each coordinate and
    the last cell is closed at 1.0, so evaluation is total on the square.
    """

    label: str
    func: object = None
    grid: np.ndarray = field(default=None, repr=False)

    def eval(self, x, y):
        """Evaluate W(x, y).  Accepts scalars or broadcastable arrays.

        ValueError if any argument is NaN or lies outside [0, 1].
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        for arg in (x, y):
            _check_range(arg, 0.0, 1.0, "graphon arguments must lie in [0, 1]")
        if self.grid is not None:
            m = self.grid.shape[0]
            out = self.grid[_cell_index(x, m), _cell_index(y, m)]
        else:
            out = self.func(x, y)
        if np.ndim(out) == 0 and np.ndim(x) == 0 and np.ndim(y) == 0:
            return float(out)
        return np.broadcast_to(out, np.broadcast_shapes(x.shape, y.shape)).astype(float)


def erdos_renyi(p: float) -> Graphon:
    """Constant kernel W(x,y) = p.  Requires p in [0, 1]."""
    _check_range(p, 0.0, 1.0, f"er: edge probability must be in [0,1], got {p}")
    return Graphon(f"er:{p:g}", lambda x, y: np.broadcast_to(float(p), np.broadcast_shapes(np.shape(x), np.shape(y))))


def sin_product(a: float, b: float, c: float) -> Graphon:
    """W(x,y) = a + b*sin(c*pi*x*y).  Requires b >= 0, a-b >= 0, a+b <= 1
    (so W lies in [0, 1]) and c*pi finite (else W is NaN where x*y = 0)."""
    _check_range([b, a - b, 1 - (a + b)], 0.0, 1.0,
                 f"sinprod: need b >= 0, a-b >= 0 and a+b <= 1, got a={a}, b={b}")
    _check_range(float(c) * math.pi, -_FLOAT_MAX, _FLOAT_MAX,
                 f"sinprod: c*pi must be finite, got c={c}")
    return Graphon(f"sinprod:{a:g},{b:g},{c:g}",
                   lambda x, y: a + b * np.sin(c * np.pi * np.asarray(x) * np.asarray(y)))


def exp_sum(alpha: float) -> Graphon:
    """W(x,y) = exp(-alpha*(x+y)).  Requires alpha finite and >= 0."""
    _check_range(alpha, 0.0, _FLOAT_MAX,
                 f"expsum: decay rate must be finite and nonnegative, got {alpha}")
    return Graphon(f"expsum:{alpha:g}",
                   lambda x, y: np.exp(-alpha * (np.asarray(x) + np.asarray(y))))


def exp_distance(alpha: float) -> Graphon:
    """W(x,y) = exp(-alpha*|x-y|).  Requires alpha finite and >= 0."""
    _check_range(alpha, 0.0, _FLOAT_MAX,
                 f"expdist: decay rate must be finite and nonnegative, got {alpha}")
    return Graphon(f"expdist:{alpha:g}",
                   lambda x, y: np.exp(-alpha * np.abs(np.asarray(x) - np.asarray(y))))


def grid_graphon(grid: np.ndarray, label: str = "grid") -> Graphon:
    """Wrap a square symmetric matrix of values in [0,1] as a grid graphon
    that holds its own read-only copy of the values."""
    grid = np.array(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError("grid graphon requires a square matrix")
    _check_range(grid, 0.0, 1.0, "grid graphon values must be finite and lie in [0, 1]")
    if not np.allclose(grid, grid.T):
        raise ValueError("grid graphon requires a symmetric matrix")
    grid.flags.writeable = False
    return Graphon(label=label, grid=grid)


def empirical_graphon(graph) -> Graphon:
    """Piecewise-constant graphon induced by a graph's adjacency matrix.

    Cell (i, j) holds 1 if the edge exists and 0 otherwise; diagonal cells
    are 0 because the graphs here are simple.
    """
    return grid_graphon(graph.adjacency, label=f"empirical:{graph.n}")


def l2_distance(w1: Graphon, w2: Graphon, grid_side: int) -> float:
    """L2 distance on [0,1]^2 by the midpoint rule on a grid_side^2 mesh.

    Exact for piecewise-constant integrands aligned with the mesh;
    symmetric in its arguments and zero iff the kernels agree on the mesh.
    """
    if grid_side < 1:
        raise ValueError("grid_side must be positive")
    mids = (np.arange(grid_side) + 0.5) / grid_side
    x = mids[:, None]
    y = mids[None, :]
    diff = w1.eval(x, y) - w2.eval(x, y)
    return float(math.sqrt(np.mean(diff ** 2)))


def grid_to_csv(w: Graphon, path) -> None:
    """Write a grid graphon as a dense CSV of reals, one row per line, no header."""
    if w.grid is None:
        raise ValueError("only grid graphons serialize to CSV")
    np.savetxt(path, w.grid, delimiter=",")


def grid_from_csv(path, label: str = "file") -> Graphon:
    """Read a grid graphon from a dense headerless CSV."""
    grid = np.loadtxt(path, delimiter=",", ndmin=2)
    return grid_graphon(grid, label=label)
