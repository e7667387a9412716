"""Homomorphism counting and homomorphism densities.

hom(F, G) counts all maps V(F) -> V(G) sending motif edges to graph edges,
not necessarily injectively; t(F, G) = hom(F, G) / N^K.  The graphon
analogue t(F, W) integrates the product of kernel values over the motif
edges and is estimated by Monte Carlo, since the integral dimension grows
with the motif size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .kernels import Graphon
from .sampling import Graph, _coerce_seed

__all__ = [
    "Motif",
    "MAX_MOTIF_NODES",
    "edge_motif",
    "triangle_motif",
    "path3_motif",
    "hom_count",
    "hom_density_graph",
    "hom_density_graphon",
    "GraphonDensityEstimate",
]

MAX_MOTIF_NODES = 8
_MC_BATCH = 100_000


@dataclass(frozen=True)
class Motif:
    """Simple undirected pattern graph on k nodes."""

    k: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("motif needs at least one node")
        seen = set()
        edges = []
        for a, b in self.edges:
            if a == b:
                raise ValueError("motif edges must join distinct nodes")
            if not (0 <= a < self.k and 0 <= b < self.k):
                raise ValueError(f"motif edge ({a},{b}) out of range for k={self.k}")
            key = (min(a, b), max(a, b))
            if key not in seen:
                seen.add(key)
                edges.append(key)
        object.__setattr__(self, "edges", tuple(edges))


def edge_motif() -> Motif:
    return Motif(2, ((0, 1),))


def triangle_motif() -> Motif:
    return Motif(3, ((0, 1), (1, 2), (0, 2)))


def path3_motif() -> Motif:
    """Path on three nodes (two edges)."""
    return Motif(3, ((0, 1), (1, 2)))


def hom_count(f: Motif, g: Graph) -> int:
    """Number of adjacency-preserving maps V(F) -> V(G).

    Evaluated as a tensor contraction of adjacency factors over the motif
    vertices (einsum picks a contraction order), equivalent to brute-force
    enumeration of all N^K maps.  Isolated motif vertices contribute a
    free factor of N each.
    """
    if f.k > MAX_MOTIF_NODES:
        raise ValueError(f"motif on {f.k} nodes exceeds the enumeration bound "
                         f"of {MAX_MOTIF_NODES}")
    if not f.edges:
        return g.n ** f.k
    adj = g.adjacency.astype(np.int64)
    letters = "abcdefgh"
    touched = set()
    subscripts = []
    operands = []
    for a, b in f.edges:
        subscripts.append(letters[a] + letters[b])
        operands.append(adj)
        touched.update((a, b))
    ones = np.ones(g.n, dtype=np.int64)
    for v in range(f.k):
        if v not in touched:
            subscripts.append(letters[v])
            operands.append(ones)
    total = np.einsum(",".join(subscripts) + "->", *operands, optimize=True)
    return int(total)


def hom_density_graph(f: Motif, g: Graph) -> float:
    """t(F, G) = hom(F, G) / N^K, always in [0, 1]."""
    return hom_count(f, g) / float(g.n) ** f.k


@dataclass(frozen=True)
class GraphonDensityEstimate:
    estimate: float
    stderr: float
    samples: int


def hom_density_graphon(f: Motif, w: Graphon, samples: int,
                        seed: int) -> GraphonDensityEstimate:
    """Monte-Carlo estimate of t(F, W) with its sample standard error.

    Averages the product of kernel values over the motif edges at i.i.d.
    uniform K-tuples.  Samples are drawn in batches with derived seeds, so
    batches could run in parallel and merge by weighted average; the
    sequential evaluation here keeps the estimate deterministic per seed.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    streams = np.random.SeedSequence(_coerce_seed(seed)).spawn(
        (samples + _MC_BATCH - 1) // _MC_BATCH)
    total = 0.0
    total_sq = 0.0
    done = 0
    for stream in streams:
        count = min(_MC_BATCH, samples - done)
        rng = np.random.default_rng(stream)
        pts = rng.random((count, f.k))
        vals = np.ones(count)
        for a, b in f.edges:
            vals *= w.eval(pts[:, a], pts[:, b])
        total += float(vals.sum())
        total_sq += float((vals ** 2).sum())
        done += count
    mean = total / samples
    if samples > 1:
        var = max(total_sq / samples - mean ** 2, 0.0) * samples / (samples - 1)
        stderr = float(np.sqrt(var / samples))
    else:
        stderr = float("inf")
    return GraphonDensityEstimate(estimate=mean, stderr=stderr, samples=samples)
