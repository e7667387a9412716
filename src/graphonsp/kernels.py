"""Graphon kernels: bounded symmetric functions on the unit square.

A graphon is evaluated pointwise on [0,1]^2 by one closure: an analytic
formula, or the cell lookup of a piecewise-constant grid, a bit lookup in
the packed rows when it is a graph's adjacency.  Values are immutable after
construction, so graphons are safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
import warnings
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

# values per block wherever an array is filled a block at a time: kernel
# values in sample_graph and galerkin's K, draws in hom_density_graphon's
# runs, float64 adjacency entries in hom_count; so that a block and the
# closure's temporaries stay ~1 MB and in cache
_BLOCK_VALUES = 2 ** 16


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


def _real_copy(values, what: str) -> np.ndarray:
    """A read-only float64 copy of ``values``, bit for bit for real input;
    ValueError("<what> must be real") for complex input, whose imaginary
    part a cast to float would drop."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} must be real")
    copy = np.array(values, dtype=float)
    copy.flags.writeable = False
    return copy


@dataclass(frozen=True, eq=False)
class Graphon:
    """Symmetric kernel W : [0,1]^2 -> [0,1], evaluated by the vectorized
    closure ``func`` of two float arrays.  A grid graphon's ``func`` takes the
    value of the cell pair holding (x, y), where cell i is [i/M, (i+1)/M) in
    each coordinate and the last cell is closed at 1.0, so evaluation is total
    on the square.  ``cells`` keeps its square symmetric M x M float cells,
    or for an empirical graphon the graph's packed adjacency rows (uint8,
    M x ceil(M/8), one bit per cell), read-only, for ``steps``; ``grid``
    reads them as an M x M matrix.  ``eval`` is the checked public entry;
    inside the library every kernel value comes from ``func`` on points the
    caller made in [0, 1].
    """

    label: str
    func: object
    cells: np.ndarray = field(default=None, repr=False)

    @property
    def grid(self):
        """The M x M cells of a grid graphon, None for an analytic one; see
        ``_cells``."""
        return None if self.cells is None else _cells(self.cells)

    def eval(self, x, y):
        """Evaluate W(x, y).  Accepts scalars or broadcastable arrays.

        ValueError if any argument is NaN or lies outside [0, 1].
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        for arg in (x, y):
            _check_range(arg, 0.0, 1.0, "graphon arguments must lie in [0, 1]")
        out = self.func(x, y)
        if np.ndim(out) == 0 and np.ndim(x) == 0 and np.ndim(y) == 0:
            return float(out)
        return np.broadcast_to(out, np.broadcast_shapes(x.shape, y.shape)).astype(float)


def erdos_renyi(p: float) -> Graphon:
    """Constant kernel W(x,y) = p.  Requires p in [0, 1]."""
    _check_range(p, 0.0, 1.0, f"er: edge probability must be in [0,1], got {p}")
    value = float(p)
    return Graphon(f"er:{p:g}", lambda x, y: value)


def sin_product(a: float, b: float, c: float) -> Graphon:
    """W(x,y) = a + b*sin(c*pi*x*y).  Requires b >= 0, a-b >= 0, a+b <= 1
    (so W lies in [0, 1]) and c*pi finite (else W is NaN where x*y = 0)."""
    # Python floats, so that a - b with infinite a and b is NaN without a warning
    a, b, c = float(a), float(b), float(c)
    _check_range([b, a - b, 1 - (a + b)], 0.0, 1.0,
                 f"sinprod: need b >= 0, a-b >= 0 and a+b <= 1, got a={a}, b={b}")
    _check_range(c * math.pi, -_FLOAT_MAX, _FLOAT_MAX,
                 f"sinprod: c*pi must be finite, got c={c}")
    return Graphon(f"sinprod:{a:g},{b:g},{c:g}",
                   lambda x, y: a + b * np.sin(c * np.pi * x * y))


def exp_sum(alpha: float) -> Graphon:
    """W(x,y) = exp(-alpha*(x+y)).  Requires alpha finite and >= 0."""
    _check_range(alpha, 0.0, _FLOAT_MAX,
                 f"expsum: decay rate must be finite and nonnegative, got {alpha}")

    def w(x, y):
        # alpha*(x+y) may overflow to inf for a huge finite alpha; exp(-inf)
        # = 0 is then the right value
        with np.errstate(over="ignore"):
            return np.exp(-alpha * (x + y))

    return Graphon(f"expsum:{alpha:g}", w)


def exp_distance(alpha: float) -> Graphon:
    """W(x,y) = exp(-alpha*|x-y|).  Requires alpha finite and >= 0."""
    _check_range(alpha, 0.0, _FLOAT_MAX,
                 f"expdist: decay rate must be finite and nonnegative, got {alpha}")
    return Graphon(f"expdist:{alpha:g}",
                   lambda x, y: np.exp(-alpha * np.abs(x - y)))


def _cells(cells: np.ndarray, r0: int = 0, r1=None) -> np.ndarray:
    """Rows r0..r1-1 of a grid's M x M cells, all of them by default: the
    one reader of a grid's rows.  Float cells come back as a read-only view,
    and packed rows unpacked into fresh read-only booleans, M per row."""
    rows = cells[r0:r1]
    if rows.dtype == np.uint8:
        rows = np.unpackbits(rows, axis=1, count=len(cells)).view(bool)
    rows.flags.writeable = False
    return rows


def _grid_graphon(grid: np.ndarray, label: str) -> Graphon:
    """Graphon of a nonempty square symmetric grid of floats, or of a graph's
    packed adjacency rows (uint8), which this makes read-only."""
    grid.flags.writeable = False
    m = len(grid)
    if grid.dtype != np.uint8:
        return Graphon(label, lambda x, y: grid[_cell_index(x, m), _cell_index(y, m)], grid)
    flat, stride = grid.reshape(-1), grid.shape[1]

    def bit(x, y):
        # cell (i, j) is bit 7 - j % 8 of byte j // 8 of row i
        j = _cell_index(y, m)
        return flat[_cell_index(x, m) * stride + (j >> 3)] >> (7 - (j & 7)) & 1

    return Graphon(label, bit, grid)


def grid_graphon(grid: np.ndarray, label: str = "grid") -> Graphon:
    """Wrap a square symmetric matrix of values in [0,1] as a grid graphon
    that holds its own read-only copy of the values, symmetrised exactly."""
    grid = _real_copy(grid, "grid graphon values")
    if grid.size == 0:
        raise ValueError("grid graphon requires a nonempty matrix")
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError("grid graphon requires a square matrix")
    _check_range(grid, 0.0, 1.0, "grid graphon values must be finite and lie in [0, 1]")
    if not np.allclose(grid, grid.T):
        raise ValueError("grid graphon requires a symmetric matrix")
    return _grid_graphon((grid + grid.T) / 2, label)  # a symmetric grid keeps its bits


def empirical_graphon(graph) -> Graphon:
    """Piecewise-constant graphon induced by a graph's adjacency matrix.

    Cell (i, j) holds 1 if the edge exists and 0 otherwise.  The cells are
    the graph's own read-only packed rows, not a copy; ``Graph`` has checked
    that they are symmetric with a zero diagonal.
    """
    return _grid_graphon(graph.packed, f"empirical:{graph.n}")


def l2_distance(w1: Graphon, w2: Graphon, grid_side: int) -> float:
    """L2 distance on [0,1]^2 by the midpoint rule on a grid_side^2 mesh.

    Exact for piecewise-constant integrands aligned with the mesh;
    symmetric in its arguments and zero iff the kernels agree on the mesh.
    """
    if not (isinstance(grid_side, numbers.Integral) and grid_side >= 1):
        raise ValueError(f"grid_side must be an integer >= 1, got {grid_side!r}")
    mids = (np.arange(grid_side) + 0.5) / grid_side
    x, y = mids[:, None], mids[None, :]
    # float, over the mesh: packed cells' closures give uint8, constant ones a float
    diff = np.subtract(w1.func(x, y), w2.func(x, y), dtype=float,
                       out=np.empty((grid_side, grid_side)))
    return float(math.sqrt(np.mean(diff ** 2)))


def grid_to_csv(w: Graphon, path) -> None:
    """Write a grid graphon as a dense CSV of reals, one row per line, no header."""
    if w.cells is None:
        raise ValueError("only grid graphons serialize to CSV")
    np.savetxt(path, w.grid, delimiter=",")


def grid_from_csv(path, label: str = "file") -> Graphon:
    """Read a grid graphon from a dense headerless CSV, skipping lines of
    whitespace or comments only (``_read_csv``)."""
    return grid_graphon(_read_csv(path, ndmin=2), label=label)


def _read_csv(path, ndmin: int) -> np.ndarray:
    """The numbers of a headerless CSV: the one reader of grid and latent
    files.  Lines that hold only whitespace before any '#' comment are
    skipped, so a file of nothing else gives an empty array, without numpy's
    warning; its caller refuses that."""
    with open(path) as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt((line for line in fh if line.partition("#")[0].strip()),
                          delimiter=",", ndmin=ndmin)
