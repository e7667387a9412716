import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonsp import homdensity
from graphonsp.homdensity import (MAX_MOTIF_NODES, Motif, edge_motif,
                                  hom_count, hom_density_graph,
                                  hom_density_graphon, path3_motif,
                                  triangle_motif)
from graphonsp.kernels import erdos_renyi, exp_sum, grid_graphon
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
    return Graph(n=n, adjacency=adj)


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


def einsum_dtypes(monkeypatch):
    """Record the operand dtype of every np.einsum call."""
    seen = []
    real = np.einsum

    def spy(subscripts, *operands, **kwargs):
        seen.append(operands[0].dtype)
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
        assert seen == [np.dtype(object)]
        assert got == walks(g, 7)

    def test_just_below_float_bound_is_exact_in_float64(self, monkeypatch):
        # 98 * 97^7 ~ 7.9e15 lies above 2^52, where float64 spacing reaches 1
        assert 98 ** 8 < 2 ** 53
        g = sample_graph(erdos_renyi(1.0), 98, seed=0)
        seen = einsum_dtypes(monkeypatch)
        got = hom_count(path_motif(8), g)
        assert seen == [np.dtype(np.float64)]
        assert got == walks(g, 7) == 98 * 97 ** 7


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
