"""Homomorphism counting and homomorphism densities.

hom(F, G) counts all maps V(F) -> V(G) sending motif edges to graph edges,
not necessarily injectively; t(F, G) = hom(F, G) / N^K.  The graphon
analogue t(F, W) integrates the product of kernel values over the motif
edges and is estimated by Monte Carlo, since the integral dimension grows
with the motif size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .kernels import _BLOCK_VALUES, Graphon, _cells
from .sampling import Graph, _coerce_seed

__all__ = [
    "Motif",
    "MAX_MOTIF_NODES",
    "HOM_MAX_NODES",
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

# hom_count's memory cap: it holds at most three float64 arrays of
# HOM_MAX_NODES^2 entries (384 MiB), so it takes graphs up to this many nodes
HOM_MAX_NODES = 4096

# rows of motif-vertex draws per kernel evaluation in hom_density_graphon
# (8192), so that a run holds at most _BLOCK_VALUES draws
_MC_RUN = _BLOCK_VALUES // MAX_MOTIF_NODES

# float64 holds every integer below this exactly
_EXACT = 2 ** 53


@dataclass(frozen=True)
class Motif:
    """Simple undirected pattern graph on k nodes, 1 <= k <= MAX_MOTIF_NODES, the
    bound on hom_count's 2^K-set plan search and hom_density_graphon's K-tuples."""

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
    """Number of adjacency-preserving maps V(F) -> V(G), exact at every size;
    it equals brute-force enumeration of all N^K maps.

    Each isolated motif vertex is a factor N, in Python integers.  The others
    are summed out one per step (``_plan``): a step takes the running factor
    x and one float64 adjacency per edge from the eliminated vertex v to a
    vertex not yet eliminated, and sums over v only.

    While N^K < 2^53 (K counting the vertices with an edge) no sum exceeds
    N^K and the plan runs once.  Otherwise it runs once per modulus m, x
    reduced by ``np.fmod`` to [0, m) after every step, so a partial sum adds
    at most N terms, each an entry of x times 0/1 entries, and stays below
    (m - 1) * N < 2^53 for every motif.  The moduli are pairwise coprime with
    a product above N^K; the CRT joins the residues in Python integers.

    ``Graph`` has checked that the adjacency is symmetric with a zero
    diagonal.  Memory: the float64 adjacency holds N^2 entries and x at most
    N^width, and a step holds x, one ``np.einsum`` temporary of x's size and
    the adjacency (measured with numpy 2.4.6, the 4-cycle's peak is
    3 x 8 N^2 bytes and K4's 2 x 8 N^3).
    So before any copy, ValueError if N^max(2, width) exceeds HOM_MAX_NODES^2:
    the peak stays within three float64 arrays of HOM_MAX_NODES^2 entries,
    384 MiB.  A motif without edges needs no array and returns N^K at any N.
    """
    n = g.n
    steps, width = _plan(f)
    isolated = n ** (f.k - len(steps))
    if not steps:
        return isolated
    if n ** max(2, width) > HOM_MAX_NODES ** 2:
        raise ValueError(f"hom_count: at N={n} this motif needs float64 arrays of "
                         f"N^{max(2, width)} = {n ** max(2, width)} entries, "
                         f"above HOM_MAX_NODES^2 = {HOM_MAX_NODES ** 2}")
    # the float64 adjacency, read from the packed rows a block at a time
    a = np.empty((n, n))
    rows = max(1, _BLOCK_VALUES // n)
    for r0 in range(0, n, rows):
        a[r0:r0 + rows] = _cells(g.packed, r0, r0 + rows)
    total = n ** len(steps)
    if total < _EXACT:
        return isolated * int(_contract(steps, a, None))
    moduli = _moduli(n, total)
    return isolated * _crt([int(_contract(steps, a, m)) for m in moduli], moduli)


@functools.lru_cache(maxsize=None)
def _plan(f: Motif):
    """Cached elimination plan of hom(F, G): one step per vertex with an edge,
    and the width, the most indices the running factor x ever holds.

    A step is (subscripts, edges, optimize): x (absent at the first step) and
    ``edges`` adjacency operands in, x out, and whether ``np.einsum`` may
    split it into BLAS calls.  Once a vertex set S is summed out, x is
    indexed by the vertices outside S with a neighbour in S, whatever the
    order, so a dynamic programme over the 2^K sets finds an order of least
    width; ties go to the least work, the sum of HOM_MAX_NODES^(indices of a
    step).
    """
    nbrs = [0] * f.k
    for a, b in f.edges:
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
    live = sum(1 << v for v in range(f.k) if nbrs[v])
    held = {0: 0}  # set -> x's vertices once it is summed out
    best = {0: (0, 0, ())}  # set -> (width, work, order)
    for s in range(1, live + 1):
        if s & ~live:
            continue
        low = (s & -s).bit_length() - 1
        held[s] = (held[s ^ 1 << low] | nbrs[low]) & ~s
        options = []
        for v in range(f.k):
            if s >> v & 1:
                width, work, order = best[s ^ 1 << v]
                size = (held[s ^ 1 << v] | held[s] | 1 << v).bit_count()
                options.append((max(width, held[s].bit_count()),
                                work + HOM_MAX_NODES ** size, order + (v,)))
        best[s] = min(options)
    width, _, order = best[live]
    letters = "abcdefgh"
    steps, x, done = [], None, 0
    for v in order:
        new = nbrs[v] & ~done
        # adding no index to x, a step is one elementwise pass: no BLAS
        optimize = bool((new | 1 << v) & ~held[done])
        done |= 1 << v
        # A is symmetric: A[u, v] serves for the edge (v, u)
        terms = [] if x is None else [x]
        terms += [letters[u] + letters[v] for u in range(f.k) if new >> u & 1]
        x = "".join(letters[u] for u in range(f.k) if held[done] >> u & 1)
        steps.append((",".join(terms) + "->" + x, new.bit_count(), optimize))
    return tuple(steps), width


def _contract(steps, a, m):
    """Run the plan on the float64 adjacency a, x reduced modulo m unless None."""
    x = None
    for subscripts, edges, optimize in steps:
        x = np.einsum(subscripts, *([] if x is None else [x]), *[a] * edges,
                      optimize=optimize)
        if m is not None:
            x = np.fmod(x, m)
    return x


def _moduli(n, total):
    """Pairwise-coprime moduli m, largest first, each with (m - 1) * n < 2^53,
    whose product exceeds total."""
    moduli, product, m = [], 1, (_EXACT - 1) // n + 1
    while product <= total:
        if math.gcd(m, product) == 1:
            moduli.append(m)
            product *= m
        m -= 1
    return moduli


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
    return hom_count(f, g) / g.n ** f.k


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
    keeps the estimate deterministic per seed.  A batch draws its K-tuples
    as rows, in runs of up to ``_MC_RUN`` = 8192 rows that continue one
    row-major stream; the draws lie in [0, 1), so each run goes to
    ``w.func`` unchecked.
    Each batch's (count, mean, M2) is merged by Chan's pairwise update, so
    the variance never comes from the cancelling difference of two large
    sums.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    # spawn(1) per batch yields a bulk spawn's children, in O(1) memory
    root = np.random.SeedSequence(_coerce_seed(seed))
    total = 0.0
    done = 0
    mean = 0.0
    m2 = 0.0
    while done < samples:
        count = min(_MC_BATCH, samples - done)
        rng = np.random.default_rng(root.spawn(1)[0])
        vals = np.ones(count)
        for r0 in range(0, count, _MC_RUN):
            pts = rng.random((min(_MC_RUN, count - r0), f.k))
            run = vals[r0:r0 + len(pts)]
            for a, b in f.edges:
                run *= w.func(pts[:, a], pts[:, b])
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
