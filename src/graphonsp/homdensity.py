"""Homomorphism counting and homomorphism densities.

hom(F, G) counts all maps V(F) -> V(G) sending motif edges to graph edges,
not necessarily injectively; t(F, G) = hom(F, G) / N^K.  The graphon
analogue t(F, W) integrates the product of kernel values over the motif
edges and is estimated by Monte Carlo, since the integral dimension grows
with the motif size.
"""

from __future__ import annotations

import math
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

# float64 holds every integer below this exactly
_EXACT = 2 ** 53
_SYMMETRY_TILE = 256


@dataclass(frozen=True)
class Motif:
    """Simple undirected pattern graph on k nodes, 1 <= k <= MAX_MOTIF_NODES: the
    bound on hom_count's N^K enumeration and hom_density_graphon's K-tuples."""

    k: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if not 1 <= self.k <= MAX_MOTIF_NODES:
            raise ValueError(f"motif needs 1..{MAX_MOTIF_NODES} nodes, got {self.k}")
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
    """Number of adjacency-preserving maps V(F) -> V(G), exact at every size.

    The count is one contraction of the motif's factors: the adjacency for
    each motif edge and a vector of ones for each motif vertex of degree 0
    or 1, so a leaf is summed out by a matrix-vector product before anything
    larger is formed.  ``np.einsum_path`` (greedy) orders it as pairwise
    steps, each run as one float64 BLAS contraction.  It equals brute-force
    enumeration of all N^K maps.

    Every entry of every intermediate counts maps of some motif vertices,
    so none exceeds N^K.  While N^K < 2^53 the steps run once and no partial
    sum rounds.  Otherwise they run once per modulus m, every intermediate
    reduced by ``np.fmod`` to [0, m).  A step joining r reduced inputs over
    n^s summed terms has every partial sum at most (m - 1)^r * n^s
    (adjacency and ones entries are <= 1).  The moduli are pairwise coprime,
    taken downwards from the largest m that keeps this bound below 2^53 at
    every step, r = 0 included, until their product exceeds N^K; the CRT
    joins the residues in Python integers, giving the count in [0, N^K].

    Raises ValueError unless ``g.adjacency`` is a boolean (n, n) matrix that
    is symmetric with a zero diagonal, which the count assumes, and before
    any contraction if no moduli fit: a step summing n^s >= 2^53 terms, as
    the single step of a complete motif does once N^K >= 2^53, allows none.
    """
    _check_adjacency(g)
    n = int(g.n)  # a numpy integer n would wrap in n ** k
    total = n ** f.k
    if not f.edges:
        return total
    steps, operands = _plan(f, g)
    if total < _EXACT:
        return int(_contract(steps, operands, None))
    moduli = _moduli(steps, n, total)
    return _crt([int(_contract(steps, operands, m)) for m in moduli], moduli)


def _check_adjacency(g: Graph) -> None:
    adj = g.adjacency
    if not (isinstance(adj, np.ndarray) and adj.dtype == bool
            and adj.shape == (g.n, g.n)):
        raise ValueError(f"hom_count needs a boolean ({g.n}, {g.n}) adjacency array")
    # tile by tile, so each transposed read stays in cache: ~10x faster at
    # N=4096 than comparing with the whole adj.T
    b = _SYMMETRY_TILE
    symmetric = all(np.array_equal(adj[i:i + b, j:j + b], adj[j:j + b, i:i + b].T)
                    for i in range(0, g.n, b) for j in range(i, g.n, b))
    if adj.diagonal().any() or not symmetric:
        raise ValueError("hom_count needs a symmetric adjacency with zero diagonal")


def _plan(f: Motif, g: Graph):
    """The pairwise steps of hom(F, G) and its operands.

    Each step is (positions, subscripts, r, s): the operand positions it
    takes (popped in that order, its result appended, as in ``np.einsum``),
    its subscripts, the number of its inputs that are earlier results, and
    the number of indices it sums out.
    """
    degree = [0] * f.k
    for a, b in f.edges:
        degree[a] += 1
        degree[b] += 1
    letters = "abcdefgh"
    terms = [letters[a] + letters[b] for a, b in f.edges]
    terms += [letters[v] for v in range(f.k) if degree[v] < 2]
    operands = ([g.adjacency.astype(np.float64)] * len(f.edges)
                + [np.ones(g.n)] * (len(terms) - len(f.edges)))
    path = np.einsum_path(",".join(terms) + "->", *operands, optimize="greedy")[0]
    reduced = [False] * len(terms)
    steps = []
    for positions in path[1:]:
        positions = sorted(positions, reverse=True)
        taken = [terms.pop(i) for i in positions]
        joined = set("".join(taken))
        out = "".join(sorted(joined & set("".join(terms))))
        r = sum(reduced.pop(i) for i in positions)
        steps.append((positions, ",".join(taken) + "->" + out, r,
                      len(joined) - len(out)))
        terms.append(out)
        reduced.append(True)
    return steps, operands


def _contract(steps, operands, m):
    """Run the plan, reducing every intermediate modulo m unless m is None."""
    operands = list(operands)
    for positions, subscripts, _, _ in steps:
        out = np.einsum(subscripts, *[operands.pop(i) for i in positions],
                        optimize=True)
        operands.append(out if m is None else np.fmod(out, m))
    return operands[0]


def _moduli(steps, n, total):
    """Pairwise-coprime moduli m, largest first, whose product exceeds total,
    each with (m - 1)^r * n^s < 2^53 at every step of the plan."""
    limit = _EXACT
    for _, _, r, s in steps:
        room = (_EXACT - 1) // n ** s  # the largest (m - 1)^r the step allows
        if not room:
            limit = 1  # n^s terms alone can round: no modulus helps
        elif r:
            limit = min(limit, _iroot(room, r) + 1)
    moduli, product = [], 1
    for m in range(limit, 1, -1):
        if math.gcd(m, product) == 1:
            moduli.append(m)
            product *= m
            if product > total:
                return moduli
    raise ValueError(f"no exact float64 plan for N^K = {total} at N={n}")


def _iroot(x: int, r: int) -> int:
    """Largest m >= 0 with m^r <= x."""
    m = int(round(x ** (1 / r)))
    while m ** r > x:
        m -= 1
    while (m + 1) ** r <= x:
        m += 1
    return m


def _crt(residues, moduli) -> int:
    """The x in [0, prod(moduli)) with x = residues[i] mod moduli[i], for
    pairwise-coprime moduli (Garner)."""
    x, m = 0, 1
    for r, p in zip(residues, moduli):
        x += m * ((r - x) * pow(m, -1, p) % p)
        m *= p
    return x


def hom_density_graph(f: Motif, g: Graph) -> float:
    """t(F, G) = hom(F, G) / N^K, always in [0, 1], correctly rounded."""
    return hom_count(f, g) / int(g.n) ** f.k


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
