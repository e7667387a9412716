"""Kernel-based random graphs and the scaled adjacency shift operator.

Sampling is reproducible: the generator is numpy's PCG64 seeded with the
given 64-bit value, and draws are consumed in a fixed order -- first the
N latent uniforms, then one uniform per node pair (i, j), i < j, in
row-major order.  Identical (graphon, n, seed, sorted) inputs therefore
yield bit-identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import Graphon

__all__ = [
    "Graph",
    "ShiftOperator",
    "MAX_NODES",
    "sample_graph",
    "scaled_adjacency",
    "apply_shift",
    "graph_to_edgelist",
    "graph_from_edgelist",
]

# dense storage keeps the linear algebra simple; the experiments top out at N=2000
MAX_NODES = 4096


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with optional latent positions.

    ``adjacency`` is a dense symmetric boolean matrix with zero diagonal.
    ``latent`` holds the uniform samples used to generate the graph
    (nondecreasing when sampling was done with sorting enabled).
    """

    n: int
    adjacency: np.ndarray
    latent: Optional[np.ndarray] = None

    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2


@dataclass(frozen=True)
class ShiftOperator:
    """Scaled adjacency matrix S = A/N of a simple graph."""

    n: int
    entries: np.ndarray


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
    generation; it defaults on because the empirical-graphon convergence
    analysis assumes ordered samples.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if n > MAX_NODES:
        raise ValueError(f"dense storage is limited to {MAX_NODES} nodes, got {n}")
    rng = np.random.default_rng(_coerce_seed(seed))
    latent = rng.random(n)
    if sorted_latent:
        latent = np.sort(latent)
    adj = np.zeros((n, n), dtype=bool)
    if n > 1:
        iu, ju = np.triu_indices(n, k=1)  # row-major over i < j
        probs = w.eval(latent[iu], latent[ju])
        draws = rng.random(iu.size)
        adj[iu, ju] = draws < probs
        adj |= adj.T
    adj.flags.writeable = False
    latent.flags.writeable = False
    return Graph(n=n, adjacency=adj, latent=latent)


def scaled_adjacency(g: Graph) -> ShiftOperator:
    """S = A/N; symmetric with zero diagonal and entries in [0, 1/N]."""
    entries = g.adjacency.astype(float) / g.n
    entries.flags.writeable = False
    return ShiftOperator(n=g.n, entries=entries)


def apply_shift(s: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """One diffusion step S @ x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (s.n,):
        raise ValueError(f"signal length {x.shape} does not match operator size {s.n}")
    return s.entries @ x


def graph_to_edgelist(g: Graph, path, latent_path=None) -> None:
    """Write 'n <N>' then one 0-based 'i j' line per edge, i < j."""
    iu, ju = np.triu_indices(g.n, k=1)
    mask = g.adjacency[iu, ju]
    with open(path, "w") as fh:
        fh.write(f"n {g.n}\n")
        for i, j in zip(iu[mask], ju[mask]):
            fh.write(f"{i} {j}\n")
    if latent_path is not None and g.latent is not None:
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
    a self-loop or a repeated edge.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "n":
            raise ValueError(f"malformed edge list header in {path}")
        (n,) = _edgelist_ints(path, 1, header[1:])
        if not 1 <= n <= MAX_NODES:
            raise ValueError(f"{path}:1: node count must lie in 1..{MAX_NODES}, "
                             f"got {n}")
        adj = np.zeros((n, n), dtype=bool)
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
            if adj[i, j]:
                raise ValueError(f"{path}:{lineno}: duplicate edge ({i}, {j})")
            adj[i, j] = adj[j, i] = True
    latent = None
    if latent_path is not None:
        latent = np.loadtxt(latent_path, delimiter=",")
    adj.flags.writeable = False
    return Graph(n=n, adjacency=adj, latent=latent)
