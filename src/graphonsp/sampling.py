"""Kernel-based random graphs and the scaled adjacency shift operator.

Sampling is reproducible: the generator is numpy's PCG64 seeded with the
given 64-bit value, and draws are consumed in a fixed order -- first the
N latent uniforms, then one uniform per node pair (i, j), i < j, in
row-major order.  Identical (graphon, n, seed, sorted) inputs therefore
yield bit-identical graphs.

The pair draws are taken in row blocks of at most 2**16 pairs and 64
rows, each block's kernel values evaluated at once.  A run of ``random``
calls on one PCG64 generator yields the same doubles as a single call for
their total, and W is evaluated per pair, so the blocks change neither the stream order nor
the graph: it is the one a single draw over all pairs gives.

A graph is stored as packed rows, one bit per node pair: N x ceil(N/8)
bytes in the ``np.packbits`` layout, 1/8 of a boolean matrix.  Each row
block is packed as it is sampled, its columns left of the block read back
from the bits of the rows above, so no N x N array exists at any point.
A graph is its own shift S = A/N, applied a row block of S at a time from
the packed rows, so no N x N float or boolean matrix is ever stored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import _BLOCK_VALUES, Graphon, _cells, _check_range, _read_csv

__all__ = [
    "Graph",
    "MAX_NODES",
    "sample_graph",
    "scaled_adjacency",
    "apply_shift",
    "graph_to_edgelist",
    "graph_from_edgelist",
]

# graphs are stored as packed rows, N^2/8 bytes (32 MB at this bound), and
# S = A/N is never stored whole; the studies top out at N=2000
MAX_NODES = 16384

# rows per row block of sample_graph at most, beside its bound of
# _BLOCK_VALUES pairs, so that a block's unpacked rows take at most 64 N bytes
_BLOCK_ROWS = 64

# float64 values of S per row block of apply_shift (256 KB)
_SHIFT_BLOCK_ENTRIES = 2 ** 15

# cells read per kernels._cells call in apply_shift and edge_count, several
# rows at a time, so that small unpacking calls do not dominate at small N
_UNPACK_BITS = 2 ** 18

_SYMMETRY_TILE = 256  # side of the tiles Graph compares with their mirror images


def _check_simple(adj) -> None:
    """ValueError unless ``adj`` is a nonempty square boolean array that is
    symmetric with a zero diagonal; the check is O(N^2)."""
    if not (isinstance(adj, np.ndarray) and adj.dtype == bool and adj.ndim == 2
            and adj.shape[0] == adj.shape[1] > 0):
        raise ValueError("Graph needs a nonempty square boolean adjacency array")
    n = adj.shape[0]
    # tile by tile, so each transposed read stays in cache (~10x faster at N=4096)
    b = _SYMMETRY_TILE
    if adj.diagonal().any() or not all(
            np.array_equal(adj[i:i + b, j:j + b], adj[j:j + b, i:i + b].T)
            for i in range(0, n, b) for j in range(i, n, b)):
        raise ValueError("Graph needs a symmetric adjacency with zero diagonal")


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Undirected simple graph with optional latent positions.

    ``Graph(adjacency, latent=None)`` takes a dense boolean adjacency and
    raises ValueError unless it is a nonempty square boolean array, and then
    unless it is symmetric with a zero diagonal, an O(N^2) check made once,
    here; ``sample_graph`` and ``graph_from_edgelist`` build a graph so and
    skip the check.  The graph keeps only ``packed``, the read-only rows of
    the adjacency in the ``np.packbits`` layout (uint8, N x ceil(N/8), the
    bits past column N-1 zero), and ``latent``; N is the row count.
    ``adjacency`` unpacks a fresh read-only boolean N x N matrix on each
    access.  ``latent`` holds the node positions mu_i, the uniform samples
    used to generate the graph (nondecreasing when sampled with sorting
    enabled): a read-only float copy of the one given, which must hold N
    finite values in [0, 1], or None.  ``_store`` is the one place that
    sets the fields, for every way of building a graph.
    """

    packed: np.ndarray
    latent: Optional[np.ndarray] = None

    def __init__(self, adjacency: np.ndarray, latent: Optional[np.ndarray] = None):
        _check_simple(adjacency)
        self._store(np.packbits(adjacency, axis=1), latent)

    def _store(self, packed: np.ndarray, latent) -> None:
        """Set the fields: ``packed`` made read-only, and ``latent`` stored as
        a read-only float copy, ValueError unless it holds N finite values in
        [0, 1]; None stays None."""
        if latent is not None:
            latent = np.array(latent, dtype=float)
            if latent.shape != (len(packed),):
                raise ValueError(f"expected {len(packed)} latent values, one per "
                                 f"node, got shape {latent.shape}")
            _check_range(latent, 0.0, 1.0,
                         "latent values must be finite and lie in [0, 1]")
            latent.flags.writeable = False
        packed.flags.writeable = False
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "latent", latent)

    @property
    def n(self) -> int:
        return self.packed.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """A fresh read-only N x N boolean matrix, N^2 bytes."""
        return _cells(self.packed)

    @classmethod
    def _built_simple(cls, packed: np.ndarray, latent) -> "Graph":
        """A Graph of packed rows that its builder made symmetric with a zero
        diagonal, without the O(N^2) check; ``latent`` is checked as always.

        For ``sample_graph`` and ``graph_from_edgelist`` only, which write
        each edge and its mirror image together and never the diagonal.
        """
        g = object.__new__(cls)
        g._store(packed, latent)
        return g

    def edge_count(self) -> int:
        rows = max(1, _UNPACK_BITS // self.n)
        return sum(np.count_nonzero(_cells(self.packed, r0, r0 + rows))
                   for r0 in range(0, self.n, rows)) // 2


def _coerce_seed(seed) -> np.uint64:
    """The generator seed for an integer in [0, 2**64); ValueError otherwise."""
    value = int(seed)
    if value != seed or not 0 <= value < 2 ** 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return np.uint64(value)


def sample_graph(w: Graphon, n: int, seed: int, sorted_latent: bool = True) -> Graph:
    """Draw a graph from the kernel model: n latent uniforms, then one
    Bernoulli trial per pair with parameter W(mu_i, mu_j).

    ``sorted_latent`` orders the latent samples ascending before edge
    generation, so node i holds the i-th smallest; without it nodes keep
    their draw order.  Either way node i sits at ``latent[i]``.
    """
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must lie in 1..{MAX_NODES}, got {n}")
    rng = np.random.default_rng(_coerce_seed(seed))
    latent = rng.random(n)
    if sorted_latent:
        latent = np.sort(latent)
    packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    # One work buffer per call, carved into a block's draws, its uniforms,
    # its pair mask and its unpacked rows, so that the blocks allocate only
    # the kernel values.  Measured on glibc over one convergence and one
    # low-pass study in their 2-worker pool: blocks that allocate and free
    # these arrays page-fault ~33,000 times, one buffer ~6,000 times.
    pairs = max(_BLOCK_VALUES, n)  # a block's rows times its width is at most this
    work = np.empty(2 * pairs + (pairs + _BLOCK_ROWS * n) // 8 + 1)
    flags = work[2 * pairs:].view(bool)
    cols = np.arange(n)
    r0 = 0
    while r0 < n:
        # Rows [r0, r1) against columns r0+1..n-1.  The block's pairs i < j
        # form its upper triangle and take their draws in row-major order;
        # the cells below it (j <= i) get an infinite draw, never an edge.
        width = n - 1 - r0
        r1 = min(n, r0 + max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // max(width, 1))))
        k = r1 - r0
        probs = w.func(latent[r0:r1, None], latent[None, r0 + 1:])
        upper = np.greater_equal(cols[:width], cols[:k, None],
                                 out=flags[:k * width].reshape(k, width))
        count = np.count_nonzero(upper)
        draws = work[:k * width].reshape(k, width)
        draws.fill(np.inf)
        draws[upper] = rng.random(count, out=work[pairs:pairs + count])
        rows = flags[pairs:pairs + k * n].reshape(k, n)
        np.less(draws, probs, out=rows[:, r0 + 1:])
        # the block's own columns: the mirror image of its upper triangle
        rows[:, r0] = False
        rows[:, r0:r1] |= rows[:, r0:r1].T.copy()
        # the columns left of it: the rows above, read over columns [r0, r1)
        above = np.unpackbits(packed[:r0, r0 // 8:(r1 + 7) // 8], axis=1)
        rows[:, :r0] = above[:, r0 % 8:r0 % 8 + k].T
        packed[r0:r1] = np.packbits(rows, axis=1)
        r0 = r1
    return Graph._built_simple(packed, latent)


def scaled_adjacency(g: Graph) -> Graph:
    """S = A/N; symmetric with zero diagonal and entries in [0, 1/N].

    A graph is its own shift, so this returns ``g`` itself.
    """
    return g


def apply_shift(g: Graph, x: np.ndarray) -> np.ndarray:
    """One diffusion step S @ x from the packed rows; S is never stored."""
    return _scaled_matvec(g.packed, x)


def _scaled_matvec(m: np.ndarray, x) -> np.ndarray:
    """S @ x for S = A * fl(1/N), where A is a graph's packed rows (uint8,
    N x ceil(N/8)) or a float N x N grid: A / N for a graph, within 1 ulp of
    it per entry for a float grid.  One reused buffer holds a row block of
    ~256 KB of S at a time: the one loop behind ``apply_shift`` and the step
    operator.  ``kernels._cells`` reads the rows ~2**18 cells at a time,
    whole row blocks per call, so the blocks and the bits do not depend on it.

    Every block but the last has a multiple of 8 rows; the last holds the
    rows left over.  Measured with OpenBLAS 0.3.31 (numpy 2.4.6): the blocks
    give the same bits at 1, 2, 3, 4 and 8 threads, which the dense product
    does not at N = 707, 781 and 2001, and they give the dense product's
    bits at the sizes the studies use (100, 400, 500, 1600, 2000) but not at
    N = 2001, whose last block has one row.  Other BLAS builds are untested.
    """
    x = np.asarray(x, dtype=float)
    n = m.shape[0]
    if x.shape != (n,):
        raise ValueError(f"signal length {x.shape} does not match operator size {n}")
    rows = max(8, _SHIFT_BLOCK_ENTRIES // (8 * n) * 8)
    span = rows * max(1, _UNPACK_BITS // (rows * n))
    block = np.empty((min(rows, n), n))
    out = np.empty(n)
    for s0 in range(0, n, span):
        cells = _cells(m, s0, s0 + span)
        for r0 in range(0, len(cells), rows):
            k = min(rows, len(cells) - r0)
            np.multiply(cells[r0:r0 + k], 1.0 / n, out=block[:k], dtype=float)
            np.matmul(block[:k], x, out=out[s0 + r0:s0 + r0 + k])
    return out


def graph_to_edgelist(g: Graph, path, latent_path=None) -> None:
    """Write 'n <N>' then one 0-based 'i j' line per edge, i < j, and the
    latent positions to ``latent_path`` if given.  ValueError if it is given
    for a graph without latent positions or names the same file as ``path``,
    and OSError if either file cannot be opened, in each case leaving no
    file that this call created."""
    if latent_path is not None and g.latent is None:
        raise ValueError("graph has no latent positions to write")
    latent_created = latent_path is not None and not os.path.exists(latent_path)
    if latent_path is not None:
        open(latent_path, "a").close()  # fails before anything is written
    try:
        if (latent_path is not None and os.path.exists(path)
                and os.path.samefile(path, latent_path)):
            raise ValueError(f"edge list {str(path)!r} and latent positions "
                             f"{str(latent_path)!r} name the same file")
        fh = open(path, "w")
    except (OSError, ValueError):
        if latent_created:  # the file itself, when latent_path is a symlink
            os.remove(os.path.realpath(latent_path))
        raise
    names = np.array([str(k) for k in range(g.n)], dtype=object)
    with fh:
        fh.write(f"n {g.n}\n")
        for i in range(g.n - 1):  # one write per row: its edges to j > i
            js = names[i + 1:][_cells(g.packed, i, i + 1)[0, i + 1:]]
            if js.size:
                fh.write(f"{i} " + f"\n{i} ".join(js) + "\n")
    if latent_path is not None:
        np.savetxt(latent_path, g.latent, delimiter=",")


def _edgelist_ints(path, lineno, fields):
    try:
        return [int(v) for v in fields]
    except ValueError:
        raise ValueError(f"{path}:{lineno}: expected integers, got "
                         f"{' '.join(fields)!r}") from None


def graph_from_edgelist(path, latent_path=None) -> Graph:
    """Read the format ``graph_to_edgelist`` writes, validating every line.

    ValueError names the line of a malformed header, a node count outside
    1..MAX_NODES, a line that is not two integers, an index outside 0..n-1,
    a self-loop or a repeated edge.  It names the latent CSV when that file
    does not hold exactly n finite values in [0, 1], read as ``grid_from_csv``
    reads a grid: lines of whitespace or comments only are skipped.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "n":
            raise ValueError(f"malformed edge list header in {path}")
        (n,) = _edgelist_ints(path, 1, header[1:])
        if not 1 <= n <= MAX_NODES:
            raise ValueError(f"{path}:1: node count must lie in 1..{MAX_NODES}, "
                             f"got {n}")
        # the packed rows, one bit per node pair, as a flat byte string
        stride = (n + 7) // 8
        bits = bytearray(n * stride)
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected two node indices, "
                                 f"got {line.strip()!r}")
            i, j = _edgelist_ints(path, lineno, fields)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"{path}:{lineno}: edge ({i}, {j}) has a node "
                                 f"outside 0..{n - 1}")
            if i == j:
                raise ValueError(f"{path}:{lineno}: self-loop on node {i}")
            if bits[i * stride + (j >> 3)] & 0x80 >> (j & 7):
                raise ValueError(f"{path}:{lineno}: duplicate edge ({i}, {j})")
            bits[i * stride + (j >> 3)] |= 0x80 >> (j & 7)
            bits[j * stride + (i >> 3)] |= 0x80 >> (i & 7)
    packed = np.frombuffer(bits, dtype=np.uint8).reshape(n, stride)
    try:
        latent = None if latent_path is None else _read_csv(latent_path, ndmin=1)
        return Graph._built_simple(packed, latent)
    except ValueError as exc:  # only the latent file can be at fault here
        raise ValueError(f"{latent_path}: {exc}") from None
