import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonsp import homdensity
from graphonsp.homdensity import (HOM_MAX_NODES, MAX_MOTIF_NODES, Motif, edge_motif,
                                  hom_count, hom_density_graph,
                                  hom_density_graphon, path3_motif,
                                  triangle_motif)
from graphonsp.kernels import Graphon, erdos_renyi, exp_sum, grid_graphon
from graphonsp.sampling import Graph, sample_graph


def brute_force_hom(motif, graph):
    """Independent oracle: enumerate all N^K maps."""
    count = 0
    for phi in itertools.product(range(graph.n), repeat=motif.k):
        if all(graph.adjacency[phi[a], phi[b]] for a, b in motif.edges):
            count += 1
    return count


def graph_from_pairs(n, pairs):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        adj[i, j] = adj[j, i] = True
    return Graph(adjacency=adj)


def all_motif_shapes(k):
    """One motif per isomorphism class of simple graphs on k nodes,
    edgeless and disconnected ones included."""
    pairs = list(itertools.combinations(range(k), 2))
    shapes = set()
    for mask in range(2 ** len(pairs)):
        edges = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
        shapes.add(min(tuple(sorted(tuple(sorted((perm[a], perm[b])))
                                    for a, b in edges))
                       for perm in itertools.permutations(range(k))))
    return [Motif(k, edges) for edges in sorted(shapes)]


def walks(graph, length):
    """1^T A^length 1 in Python integers, which never wrap or round."""
    nbrs = [np.flatnonzero(row).tolist() for row in graph.adjacency]
    v = [1] * graph.n
    for _ in range(length):
        v = [sum(v[j] for j in nb) for nb in nbrs]
    return sum(v)


def path_motif(k):
    return Motif(k, tuple((i, i + 1) for i in range(k - 1)))


def cycle_motif(k):
    return Motif(k, tuple((i, (i + 1) % k) for i in range(k)))


def complete_graph(n):
    return Graph(adjacency=~np.eye(n, dtype=bool))


# pairwise coprime and all composite, each reducing hard; their product
# 6,306,300 exceeds every count on at most 6 nodes and 5 motif vertices
SMALL_MODULI = (4, 9, 25, 49, 11 * 13)


def einsum_dtypes(monkeypatch):
    """Record the operand dtypes of every np.einsum call."""
    seen = []
    real = np.einsum

    def spy(subscripts, *operands, **kwargs):
        seen.extend(op.dtype for op in operands)
        return real(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return seen


@st.composite
def small_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_pairs(n, [p for p, b in zip(pairs, bits) if b])


@st.composite
def small_motifs(draw, max_k):
    k = draw(st.integers(1, max_k))
    pairs = list(itertools.combinations(range(k), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Motif(k, tuple(edges))


class TestMotif:
    def test_validation(self):
        with pytest.raises(ValueError):
            Motif(2, ((0, 0),))
        with pytest.raises(ValueError):
            Motif(2, ((0, 2),))
        with pytest.raises(ValueError):
            Motif(0, ())
        with pytest.raises(ValueError, match=f"1..{MAX_MOTIF_NODES} nodes"):
            Motif(MAX_MOTIF_NODES + 1, ((0, 1),))

    def test_duplicate_edges_collapse(self):
        m = Motif(3, ((0, 1), (1, 0), (1, 2)))
        assert m.edges == ((0, 1), (1, 2))


class TestHomCount:
    def test_edge_motif_counts_ordered_edges(self):
        g = sample_graph(exp_sum(0.5), 25, seed=2)
        assert hom_count(edge_motif(), g) == 2 * g.edge_count()

    def test_triangle_into_triangle(self):
        g = sample_graph(erdos_renyi(1.0), 3, seed=0)
        assert hom_count(triangle_motif(), g) == 6

    def test_empty_graph_kills_edged_motifs(self):
        g = sample_graph(erdos_renyi(0.0), 10, seed=0)
        assert hom_count(triangle_motif(), g) == 0
        assert hom_count(edge_motif(), g) == 0

    def test_edgeless_motif_counts_all_maps(self):
        g = sample_graph(erdos_renyi(0.5), 7, seed=1)
        assert hom_count(Motif(3, ()), g) == 7 ** 3

    def test_matches_brute_force(self):
        g = sample_graph(erdos_renyi(0.6), 8, seed=5)
        for motif in (edge_motif(), triangle_motif(), path3_motif(),
                      Motif(4, ((0, 1), (1, 2), (2, 3), (3, 0)))):
            assert hom_count(motif, g) == brute_force_hom(motif, g)

    def test_disjoint_union_factorizes(self):
        g = sample_graph(erdos_renyi(0.5), 12, seed=8)
        two_edges = Motif(4, ((0, 1), (2, 3)))
        assert hom_count(two_edges, g) == hom_count(edge_motif(), g) ** 2

    def test_isolated_vertex_multiplies_by_n(self):
        g = sample_graph(erdos_renyi(0.5), 9, seed=3)
        padded = Motif(3, ((0, 1),))
        assert hom_count(padded, g) == 9 * hom_count(edge_motif(), g)

    def test_isolated_vertex_on_the_modular_path(self):
        # 800^7 > 2^53, so the 7-node path runs modulo the moduli; the
        # isolated vertex is a factor N outside them
        assert 800 ** 7 > 2 ** 53
        g = sample_graph(erdos_renyi(0.1), 800, seed=13)
        padded = Motif(8, tuple((i, i + 1) for i in range(6)))
        assert hom_count(padded, g) == 800 * walks(g, 6)

    def test_size_guard(self):
        g = sample_graph(erdos_renyi(0.5), 4, seed=0)
        with pytest.raises(ValueError):
            hom_count(Motif(9, ((0, 1),)), g)

    def test_every_motif_shape_up_to_five_nodes_matches_enumeration(self):
        assert [len(all_motif_shapes(k)) for k in range(1, 6)] == [1, 2, 4, 11, 34]
        # a triangle with a pendant edge, one isolated node, and an edgeless host
        hosts = (graph_from_pairs(5, ((0, 1), (1, 2), (0, 2), (2, 3))),
                 graph_from_pairs(2, ()))
        for g in hosts:
            for k in range(1, 6):
                for motif in all_motif_shapes(k):
                    assert hom_count(motif, g) == brute_force_hom(motif, g), motif

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_n=6), small_motifs(max_k=4))
    def test_property_matches_enumeration(self, g, motif):
        assert hom_count(motif, g) == brute_force_hom(motif, g)

    def test_path8_over_complete_graph_does_not_overflow(self):
        # 300 * 299^7 ~ 6.41e19 exceeds both 2^53 and 2^63
        g = sample_graph(erdos_renyi(1.0), 300, seed=0)
        got = hom_count(path_motif(MAX_MOTIF_NODES), g)
        assert type(got) is int
        assert got == 300 * 299 ** 7

    def test_just_above_float_bound_takes_exact_path(self, monkeypatch):
        assert 99 ** 8 >= 2 ** 53
        g = sample_graph(erdos_renyi(0.9), 99, seed=12)
        seen = einsum_dtypes(monkeypatch)
        got = hom_count(path_motif(8), g)
        assert seen and all(dtype == np.float64 for dtype in seen)
        assert got == walks(g, 7)

    def test_just_below_float_bound_is_exact_in_float64(self, monkeypatch):
        # 98 * 97^7 ~ 7.9e15 lies above 2^52, where float64 spacing reaches 1
        assert 98 ** 8 < 2 ** 53
        g = sample_graph(erdos_renyi(1.0), 98, seed=0)
        seen = einsum_dtypes(monkeypatch)
        got = hom_count(path_motif(8), g)
        assert seen and all(dtype == np.float64 for dtype in seen)
        assert got == walks(g, 7) == 98 * 97 ** 7

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(max_n=6), small_motifs(max_k=5))
    def test_property_modular_path_with_small_moduli_matches_enumeration(self, g, motif):
        # every count reduces (none lies below 0), modulo five small
        # composites, and the CRT joins five residues; at these sizes every
        # sum stays far below 2^53, so the arithmetic is exact
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homdensity, "_EXACT", 0)
            mp.setattr(homdensity, "_moduli", lambda n, total: SMALL_MODULI)
            assert hom_count(motif, g) == brute_force_hom(motif, g)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_cycle_on_random_graph_matches_int64_trace(self, k):
        # hom(C_k, G) = tr A^k; C6 and C7 are past the brute-force tests' reach
        g = sample_graph(erdos_renyi(0.9), 120, seed=3)
        # entries of A^k are <= 120^(k-1), the trace <= 120^k < 2^63
        ak = np.linalg.matrix_power(g.adjacency.astype(np.int64), k)
        want = int(np.trace(ak))
        if k == 8:
            assert 2 ** 55 < 120 ** 8 < 2 ** 56
            assert want > 2 ** 53
        assert hom_count(cycle_motif(k), g) == want


def star_motif(k):
    return Motif(k, tuple((0, v) for v in range(1, k)))


def complete_motif(k):
    return Motif(k, tuple(itertools.combinations(range(k), 2)))


def has_k4_minor(motif):
    """Whether the motif has four disjoint connected vertex sets, pairwise
    joined by an edge; tries every assignment of vertices to them."""
    adj = set(motif.edges) | {(b, a) for a, b in motif.edges}

    def connected(part):
        seen, todo = set(), [part[0]]
        while todo:
            v = todo.pop()
            seen.add(v)
            todo += [u for u in part if (v, u) in adj and u not in seen]
        return len(seen) == len(part)

    for label in itertools.product(range(5), repeat=motif.k):  # 4: unused
        parts = [[v for v in range(motif.k) if label[v] == i] for i in range(4)]
        if (all(parts) and all(map(connected, parts))
                and all(any((a, b) in adj for a in p for b in q)
                        for p, q in itertools.combinations(parts, 2))):
            return True
    return False


def check_moduli(n, total):
    """_moduli's contract: pairwise coprime, a product above total, and
    (m - 1) * n < 2^53 for every m, the bound every plan's sums obey."""
    moduli = homdensity._moduli(n, total)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(moduli, 2))
    assert math.prod(moduli) > total
    assert all((m - 1) * n < 2 ** 53 for m in moduli)
    return moduli


def contract_calls(monkeypatch):
    """Replace _contract by a stub that records its modulus and returns 0."""
    calls = []

    def stub(steps, a, m):
        calls.append(m)
        return 0

    monkeypatch.setattr(homdensity, "_contract", stub)
    return calls


class TestModuli:
    @pytest.mark.parametrize("n", [99, 800, HOM_MAX_NODES])
    def test_every_motif_shape_up_to_five_nodes(self, n, monkeypatch):
        calls = contract_calls(monkeypatch)
        g = Graph(adjacency=np.zeros((n, n), bool))
        refused = 0
        for motif in (m for k in range(1, 6) for m in all_motif_shapes(k) if m.edges):
            calls.clear()
            try:
                hom_count(motif, g)
            except ValueError as exc:
                assert "MAX_NODES^2" in str(exc) and not calls
                refused += 1
                continue
            # the isolated vertices stay outside the moduli's product
            total = n ** len({v for e in motif.edges for v in e})
            assert calls == ([None] if total < 2 ** 53 else check_moduli(n, total))
        # x above HOM_MAX_NODES^2 entries: K5 (width 4) from N = 65, and from
        # N = 257 the 8 shapes with a K4 minor (width 3)
        assert refused == {99: 1, 800: 8, HOM_MAX_NODES: 8}[n]

    @pytest.mark.parametrize("n", [99, 800, HOM_MAX_NODES])
    @pytest.mark.parametrize("motif", [path_motif(8), cycle_motif(8), star_motif(8)])
    def test_eight_node_path_cycle_and_star(self, motif, n, monkeypatch):
        calls = contract_calls(monkeypatch)
        hom_count(motif, Graph(adjacency=np.zeros((n, n), bool)))
        # moduli near 2^53 / N: two exceed N^8 up to N = 800, three at 4096
        assert calls == check_moduli(n, n ** 8)
        assert len(calls) == (3 if n == HOM_MAX_NODES else 2)

    def test_complete_motif_without_exact_plan_fails_fast(self):
        # K4 needs an N^3-entry factor, K8 an N^7 one: both exceed
        # HOM_MAX_NODES^2 here, and the guard fires before the float64 copy
        for k, n in ((4, 300), (8, 120)):
            g = complete_graph(n)
            tracemalloc.start()
            start = time.perf_counter()
            with pytest.raises(ValueError, match="MAX_NODES"):
                hom_count(complete_motif(k), g)
            assert time.perf_counter() - start < 1.0
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 8 * n * n


class TestPlan:
    def test_width_at_most_two_exactly_without_a_k4_minor(self):
        shapes = [m for k in range(1, 6) for m in all_motif_shapes(k) if m.edges]
        narrow = [homdensity._plan(m)[1] <= 2 for m in shapes]
        assert narrow == [not has_k4_minor(m) for m in shapes]
        assert (len(shapes), sum(narrow)) == (47, 39)

    @pytest.mark.parametrize("motif", [path_motif(8), star_motif(8)])
    def test_trees_on_eight_nodes_have_width_one(self, motif):
        assert homdensity._plan(motif)[1] == 1


class TestHomCountMemory:
    """hom_count holds at most three float64 arrays of HOM_MAX_NODES^2
    entries (384 MiB): x, one einsum temporary of x's size, and A."""

    @pytest.mark.parametrize("motif, n, entries", [
        (cycle_motif(4), 2048, lambda n: 3 * n * n),  # width 2: x = A^2 at N^2
        (complete_motif(4), 256, lambda n: 2 * n ** 3 + n * n),  # width 3
    ], ids=["cycle4", "K4"])
    def test_peak_within_three_cap_sized_arrays(self, motif, n, entries):
        g = complete_graph(n)
        tracemalloc.start()
        try:
            count = hom_count(motif, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == {4: (n - 1) ** 4 + (n - 1), 6: math.perm(n, 4)}[len(motif.edges)]
        assert peak <= 8 * entries(n) + 2 ** 20 <= 3 * 8 * HOM_MAX_NODES ** 2


class TestClosedFormsOnCompleteGraph:
    # the largest case, HOM_MAX_NODES^8 = 2^96, passes 2^90
    @pytest.mark.parametrize("n", [1, 2, 3, 99, 300, HOM_MAX_NODES])
    def test_paths(self, n):
        g = complete_graph(n)
        for k in range(1, MAX_MOTIF_NODES + 1):
            assert hom_count(path_motif(k), g) == n * (n - 1) ** (k - 1), k

    @pytest.mark.parametrize("n", [3, 4, 99, 300])
    def test_cycles(self, n):
        g = complete_graph(n)
        for k in range(3, MAX_MOTIF_NODES + 1):
            assert hom_count(cycle_motif(k), g) == (n - 1) ** k + (-1) ** k * (n - 1), k

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 60])
    def test_complete_motifs(self, n):
        # every map from K_k into a simple graph is injective
        g = complete_graph(n)
        for k in (4, 5):
            assert hom_count(complete_motif(k), g) == math.perm(n, k), k
        # an isolated fifth vertex is a factor n
        k4_plus_one = Motif(5, complete_motif(4).edges)
        assert hom_count(k4_plus_one, g) == n * math.perm(n, 4)


class TestHomCountInput:
    # a graph is checked once, when it is built, so no adjacency that is not
    # a simple graph's reaches hom_count or empirical_graphon
    @pytest.mark.parametrize("adjacency, message", [
        (np.ones((3, 3), dtype=int) - np.eye(3, dtype=int), "boolean"),  # int, not bool
        (2 * (np.ones((3, 3)) - np.eye(3)), "boolean"),                  # float
        (np.ones((3, 4), dtype=bool), "boolean"),                        # not square
        (np.triu(np.ones((3, 3), dtype=bool), 1), "symmetric"),          # asymmetric
        (np.ones((3, 3), dtype=bool), "zero diagonal"),                  # loops
        ([[False, True, True], [True, False, True], [True, True, False]], "boolean"),
    ], ids=["int", "float", "shape", "asymmetric", "diagonal", "list"])
    def test_rejects_anything_but_a_simple_boolean_adjacency(self, adjacency, message):
        with pytest.raises(ValueError, match=f"Graph needs .*{message}"):
            Graph(adjacency=adjacency)

    @pytest.mark.parametrize("i, j", [(0, 599), (599, 0), (300, 10), (255, 256),
                                      (513, 512), (100, 101)])
    def test_asymmetry_found_in_any_tile(self, i, j):
        adj = complete_graph(600).adjacency.copy()
        adj[i, j] = False
        with pytest.raises(ValueError, match="Graph needs a symmetric adjacency"):
            Graph(adjacency=adj)

    def test_graph_above_its_node_cap_refused_before_any_copy(self):
        # the float64 adjacency would take 8 N^2 bytes: 2.1 GB at N=16384
        g = sample_graph(erdos_renyi(0.0), HOM_MAX_NODES + 1, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"above HOM_MAX_NODES\^2 = 16777216"):
                hom_count(edge_motif(), g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_float64_adjacency_unpacked_without_a_boolean_copy(self):
        # one 8 N^2 operand; a boolean N^2 copy beside it would add N^2 bytes
        n = 1000
        g = complete_graph(n)
        tracemalloc.start()
        try:
            count = hom_count(path3_motif(), g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == n * (n - 1) ** 2
        assert peak < 8 * n * n + n * n // 4

    def test_one_guard_refuses_every_motif_with_an_edge_above_the_node_cap(
            self, monkeypatch):
        # N^max(2, width) > HOM_MAX_NODES^2 for every motif with an edge here;
        # a motif without one needs no array and counts N^K at any N
        calls = contract_calls(monkeypatch)
        n = HOM_MAX_NODES + 1
        g = sample_graph(erdos_renyi(0.0), n, seed=0)
        for motif in (m for k in range(1, 5) for m in all_motif_shapes(k)):
            if not motif.edges:
                assert hom_count(motif, g) == n ** motif.k
                continue
            with pytest.raises(ValueError, match=r"above HOM_MAX_NODES\^2"):
                hom_count(motif, g)
        assert hom_count(Motif(MAX_MOTIF_NODES, ()), g) == n ** MAX_MOTIF_NODES
        assert not calls

    def test_numpy_integer_node_count_does_not_wrap(self):
        # 300^8 wraps in int64
        g = sample_graph(erdos_renyi(1.0), np.int64(300), seed=0)
        assert type(g.n) is int  # read from the adjacency's shape
        path8 = path_motif(MAX_MOTIF_NODES)
        assert hom_count(path8, g) == 300 * 299 ** 7
        assert hom_density_graph(path8, g) == float(Fraction(299 ** 7, 300 ** 7))


class TestHomDensityGraph:
    def test_complete_graph_edge_density(self):
        for n in (3, 10, 31):
            g = sample_graph(erdos_renyi(1.0), n, seed=0)
            assert hom_density_graph(edge_motif(), g) == pytest.approx((n - 1) / n)

    def test_empty_graph(self):
        g = sample_graph(erdos_renyi(0.0), 6, seed=0)
        assert hom_density_graph(triangle_motif(), g) == 0.0

    def test_er_triangle_density_near_p_cubed(self):
        g = sample_graph(erdos_renyi(0.5), 300, seed=4)
        t = hom_density_graph(triangle_motif(), g)
        # edge-level (delta method) standard error dominates the fluctuation
        se = 3 * 0.25 * np.sqrt(0.25 / (300 * 299 / 2))
        assert abs(t - 0.125) < 3 * se

    def test_density_is_correctly_rounded(self):
        # 99^8 > 2^53, and count / float(99) ** 8 would round three times
        g = complete_graph(99)
        for motif, count in ((path_motif(8), 99 * 98 ** 7),
                             (cycle_motif(8), 98 ** 8 + 98)):
            assert hom_density_graph(motif, g) == float(Fraction(count, 99 ** 8))

    def test_path8_over_complete_graph(self):
        g = sample_graph(erdos_renyi(1.0), 300, seed=0)
        t = hom_density_graph(path_motif(MAX_MOTIF_NODES), g)
        assert t == pytest.approx((299 / 300) ** 7, rel=1e-15)
        assert 0.976 < t < 0.977

    def test_bounds(self):
        g = sample_graph(exp_sum(0.5), 30, seed=6)
        for motif in (edge_motif(), triangle_motif(), path3_motif()):
            assert 0.0 <= hom_density_graph(motif, g) <= 1.0


class TestHomDensityGraphon:
    def test_er_edge_density_exact(self):
        est = hom_density_graphon(edge_motif(), erdos_renyi(0.3), 1000, seed=0)
        assert est.estimate == pytest.approx(0.3)
        assert est.stderr < 1e-8  # constant integrand, only float dust remains

    def test_er_triangle_density(self):
        est = hom_density_graphon(triangle_motif(), erdos_renyi(0.5), 100_000,
                                  seed=1)
        assert abs(est.estimate - 0.125) <= max(3 * est.stderr, 1e-12)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_needs_at_least_one_sample(self, samples):
        with pytest.raises(ValueError, match="need at least one sample"):
            hom_density_graphon(edge_motif(), erdos_renyi(0.5), samples, seed=0)

    def test_zero_kernel_exact_zero(self):
        zero = grid_graphon(np.zeros((3, 3)), label="zero")
        est = hom_density_graphon(triangle_motif(), zero, 500, seed=2)
        assert est.estimate == 0.0

    def test_smooth_kernel_against_quadrature_oracle(self):
        # t(K2, expsum) = (int_0^1 e^{-a x} dx)^2, exact by separability
        a = 0.5
        exact = ((1 - np.exp(-a)) / a) ** 2
        est = hom_density_graphon(edge_motif(), exp_sum(a), 200_000, seed=3)
        assert abs(est.estimate - exact) < 4 * est.stderr

    def test_deterministic_per_seed(self):
        a = hom_density_graphon(triangle_motif(), exp_sum(0.5), 5000, seed=9)
        b = hom_density_graphon(triangle_motif(), exp_sum(0.5), 5000, seed=9)
        assert a.estimate == b.estimate

    @pytest.mark.parametrize("p", [0.1, 0.55, 0.7])
    @pytest.mark.parametrize("motif", [edge_motif(), triangle_motif()])
    def test_constant_kernel_stderr_exactly_zero(self, p, motif):
        samples = 2 * homdensity._MC_BATCH + 123
        est = hom_density_graphon(motif, erdos_renyi(p), samples, seed=4)
        assert est.stderr == 0.0
        assert est.estimate == pytest.approx(p ** len(motif.edges), rel=1e-12)

    def test_multibatch_stderr_matches_numpy_std(self):
        samples = 2 * homdensity._MC_BATCH + 777
        w, motif, seed = exp_sum(0.5), triangle_motif(), 21
        est = hom_density_graphon(motif, w, samples, seed=seed)
        batches = []
        streams = np.random.SeedSequence(seed).spawn(3)
        for stream, count in zip(streams, (homdensity._MC_BATCH,
                                           homdensity._MC_BATCH, 777)):
            pts = np.random.default_rng(stream).random((count, motif.k))
            vals = np.ones(count)
            for a, b in motif.edges:
                vals *= w.eval(pts[:, a], pts[:, b])
            batches.append(vals)
        vals = np.concatenate(batches)
        want = np.std(vals, ddof=1) / np.sqrt(samples)
        assert est.stderr == pytest.approx(want, rel=1e-12)
        # the estimate keeps its batch-sum order, bit for bit
        assert est.estimate == sum(float(b.sum()) for b in batches) / samples

    def test_seed_outside_uint64_rejected(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed"):
                hom_density_graphon(edge_motif(), erdos_renyi(0.5), 10, seed=seed)

    def test_kernel_closure_called_once_per_edge_and_run(self, monkeypatch):
        # each run's draws lie in [0, 1) and go to the closure as they are:
        # Graphon.eval, with its range checks and float copies, is never called
        monkeypatch.setattr(Graphon, "eval", lambda *a: pytest.fail("eval called"))
        calls = []

        def half(x, y):
            calls.append(x.shape)
            return 0.5

        est = hom_density_graphon(triangle_motif(), Graphon("half", half), 20_000, seed=1)
        assert est.estimate == 0.125 and est.stderr == 0.0
        # 20,000 samples in one batch: runs of 8192, 8192 and 3616 rows, three edges each
        assert calls == [(8192,)] * 3 + [(8192,)] * 3 + [(3616,)] * 3

    def test_batch_seeds_are_spawned_as_each_batch_is_drawn(self, monkeypatch):
        # 20,000 batches: their child seeds held at once take ~8 MB, so the
        # memory traced at the first kernel evaluation shows whether they are
        monkeypatch.setattr(homdensity, "_MC_BATCH", 10)

        class FirstDraw(Exception):
            pass

        def probe(x, y):
            raise FirstDraw(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        try:
            with pytest.raises(FirstDraw) as drawn:
                hom_density_graphon(edge_motif(), Graphon("probe", probe), 200_000,
                                    seed=0)
        finally:
            tracemalloc.stop()
        assert drawn.value.args[0] < 1e6


class TestConvergenceTrend:
    def test_er_triangle_gap_decreases_with_n(self):
        limit = 0.125
        medians = []
        for n in (50, 150, 450):
            gaps = []
            for seed in range(7):
                g = sample_graph(erdos_renyi(0.5), n, seed=seed)
                gaps.append(abs(hom_density_graph(triangle_motif(), g) - limit))
            medians.append(np.median(gaps))
        assert medians[0] > medians[1] > medians[2]
