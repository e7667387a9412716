import itertools

import numpy as np
import pytest

from graphonsp.homdensity import (Motif, edge_motif, hom_count,
                                  hom_density_graph, hom_density_graphon,
                                  path3_motif, triangle_motif)
from graphonsp.kernels import erdos_renyi, exp_sum, grid_graphon
from graphonsp.sampling import sample_graph


def brute_force_hom(motif, graph):
    """Independent oracle: enumerate all N^K maps."""
    count = 0
    for phi in itertools.product(range(graph.n), repeat=motif.k):
        if all(graph.adjacency[phi[a], phi[b]] for a, b in motif.edges):
            count += 1
    return count


class TestMotif:
    def test_validation(self):
        with pytest.raises(ValueError):
            Motif(2, ((0, 0),))
        with pytest.raises(ValueError):
            Motif(2, ((0, 2),))
        with pytest.raises(ValueError):
            Motif(0, ())

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
