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

    Evaluated as one einsum contraction of adjacency factors over the motif
    vertices (einsum picks the contraction order), equivalent to brute-force
    enumeration of all N^K maps.  Isolated motif vertices contribute a free
    factor of N each.

    Every entry of every intermediate tensor, and the final count, is a sum
    of nonnegative integer products that counts maps of a subset of the
    motif vertices, so none exceeds N^K.  When N^K < 2^53 the contraction
    runs in float64 through BLAS: every partial sum is an integer that
    float64 represents exactly, so nothing rounds.  Otherwise it runs the
    same subscripts on Python integers (object dtype), which never wrap or
    round; this costs one Python multiply-add per term, so a long cycle on
    a large graph is slow here, but the count is exact.
    """
    if f.k > MAX_MOTIF_NODES:
        raise ValueError(f"motif on {f.k} nodes exceeds the enumeration bound "
                         f"of {MAX_MOTIF_NODES}")
    if not f.edges:
        return g.n ** f.k
    dtype = np.float64 if g.n ** f.k < 2 ** 53 else object
    adj = g.adjacency.astype(dtype)
    letters = "abcdefgh"
    touched = set()
    subscripts = []
    operands = []
    for a, b in f.edges:
        subscripts.append(letters[a] + letters[b])
        operands.append(adj)
        touched.update((a, b))
    ones = np.ones(g.n, dtype=dtype)
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
    batches could run in parallel and merge; the sequential evaluation here
    keeps the estimate deterministic per seed.  Each batch's (count, mean,
    M2) is merged by Chan's pairwise update, so the variance never comes
    from the cancelling difference of two large sums.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    streams = np.random.SeedSequence(_coerce_seed(seed)).spawn(
        (samples + _MC_BATCH - 1) // _MC_BATCH)
    total = 0.0
    done = 0
    mean = 0.0
    m2 = 0.0
    for stream in streams:
        count = min(_MC_BATCH, samples - done)
        rng = np.random.default_rng(stream)
        pts = rng.random((count, f.k))
        vals = np.ones(count)
        for a, b in f.edges:
            vals *= w.eval(pts[:, a], pts[:, b])
        total += float(vals.sum())
        # shifting by one sample makes a constant batch's deviations exactly 0
        dev = vals - vals[0]
        dev_mean = float(dev.mean())
        batch_m2 = float(((dev - dev_mean) ** 2).sum())
        delta = float(vals[0]) + dev_mean - mean
        mean += delta * (count / (done + count))
        m2 += batch_m2 + delta ** 2 * (done * count / (done + count))
        done += count
    if samples > 1:
        stderr = float(np.sqrt(m2 / (samples - 1) / samples))
    else:
        stderr = float("inf")
    return GraphonDensityEstimate(estimate=total / samples, stderr=stderr,
                                  samples=samples)
