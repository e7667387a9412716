import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonsp.kernels import (empirical_graphon, erdos_renyi,
                               exp_distance, exp_sum, grid_from_csv,
                               grid_graphon, grid_to_csv, l2_distance,
                               sin_product)
from graphonsp.sampling import sample_graph


def complete_graph(n):
    return sample_graph(erdos_renyi(1.0), n, seed=0)


def empty_graph(n):
    return sample_graph(erdos_renyi(0.0), n, seed=0)


class TestEval:
    def test_er_is_constant(self):
        assert erdos_renyi(0.5).eval(0.3, 0.7) == 0.5

    def test_expsum_at_origin(self):
        assert exp_sum(0.5).eval(0.0, 0.0) == 1.0

    def test_sinprod_vanishing_product(self):
        w = sin_product(1 / 3, 1 / 3, 3)
        for y in (0.0, 0.25, 0.9, 1.0):
            assert w.eval(0.0, y) == pytest.approx(1 / 3)

    def test_out_of_domain_rejected(self):
        w = erdos_renyi(0.5)
        with pytest.raises(ValueError):
            w.eval(-0.1, 0.5)
        with pytest.raises(ValueError):
            w.eval(0.5, 1.1)

    @pytest.mark.parametrize("w", [
        erdos_renyi(0.5), sin_product(0.5, 0.5, 3.5), exp_distance(10.0),
        grid_graphon(np.array([[0.0, 1.0], [1.0, 0.0]])),
    ], ids=lambda w: w.label)
    @pytest.mark.parametrize("x, y", [
        (np.nan, 0.2), (0.2, np.nan),
        (np.array([0.1, np.nan, 0.3]), 0.5),
        (np.array([[0.1], [0.9]]), np.array([[0.2, np.nan]])),
    ])
    def test_nan_rejected(self, w, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                w.eval(x, y)

    def test_grid_cell_lookup_half_open(self):
        w = grid_graphon(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # cell boundaries: [0, .5) then [.5, 1]
        assert w.eval(0.0, 0.49) == 0.0
        assert w.eval(0.0, 0.5) == 1.0
        assert w.eval(1.0, 1.0) == 0.0  # final cell closed
        assert w.eval(0.25, 0.75) == 1.0

    def test_symmetry_and_bounds_on_random_pairs(self):
        rng = np.random.default_rng(42)
        x = rng.random(10_000)
        y = rng.random(10_000)
        g = sample_graph(erdos_renyi(0.4), 17, seed=3)
        for w in (erdos_renyi(0.3), sin_product(0.5, 0.5, 3.5), exp_sum(0.5),
                  exp_distance(10.0), empirical_graphon(g)):
            vx = w.eval(x, y)
            vy = w.eval(y, x)
            np.testing.assert_allclose(vx, vy, atol=0)
            assert vx.min() >= 0.0 and vx.max() <= 1.0


class TestValidation:
    def test_er_probability_range(self):
        with pytest.raises(ValueError):
            erdos_renyi(1.5)
        with pytest.raises(ValueError):
            erdos_renyi(-0.1)

    def test_sinprod_range_constraints(self):
        with pytest.raises(ValueError):
            sin_product(0.5, 0.6, 1.0)   # a - b < 0
        with pytest.raises(ValueError):
            sin_product(0.7, 0.4, 1.0)   # a + b > 1
        with pytest.raises(ValueError):
            sin_product(0.5, -0.1, 1.0)  # negative amplitude

    def test_exponential_rate_nonnegative(self):
        with pytest.raises(ValueError):
            exp_sum(-1.0)
        with pytest.raises(ValueError):
            exp_distance(-0.5)

    @pytest.mark.parametrize("make", [
        lambda: erdos_renyi(np.nan),
        lambda: exp_sum(np.nan),
        lambda: exp_distance(np.inf),
        lambda: sin_product(np.nan, 0.0, 1.0),
        lambda: sin_product(0.5, 0.5, np.nan),
        # c*pi overflows to inf, and inf * 0 at x*y = 0 would give NaN
        lambda: sin_product(0.5, 0.5, 1e308),
    ], ids=["er-nan", "expsum-nan", "expdist-inf", "sinprod-a-nan",
            "sinprod-c-nan", "sinprod-c-overflow"])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite|need b >= 0|must be in"):
            make()

    def test_grid_must_be_square_symmetric(self):
        with pytest.raises(ValueError):
            grid_graphon(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            grid_graphon(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_must_be_finite(self, bad, tmp_path):
        grid = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            grid_graphon(grid)
        path = tmp_path / "grid.csv"
        np.savetxt(path, grid, delimiter=",")
        with pytest.raises(ValueError, match="finite"):
            grid_from_csv(path)


class TestEmpiricalGraphon:
    def test_complete_graph(self):
        w = empirical_graphon(complete_graph(4))
        expected = np.ones((4, 4)) - np.eye(4)
        np.testing.assert_array_equal(w.grid, expected)

    def test_empty_graph(self):
        w = empirical_graphon(empty_graph(3))
        np.testing.assert_array_equal(w.grid, np.zeros((3, 3)))

    def test_single_edge(self):
        w = empirical_graphon(complete_graph(2))
        np.testing.assert_array_equal(w.grid, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_resampling_from_empirical_reproduces_edges(self):
        # edges of a graph sampled from an empirical graphon at the strip
        # centers are deterministic: the probabilities are 0 or 1 only
        g = sample_graph(erdos_renyi(0.5), 12, seed=9)
        w = empirical_graphon(g)
        mids = (np.arange(12) + 0.5) / 12
        probs = w.eval(mids[:, None], mids[None, :])
        assert set(np.unique(probs)) <= {0.0, 1.0}
        np.testing.assert_array_equal(probs, g.adjacency.astype(float))


class TestL2Distance:
    def test_identical_kernels(self):
        w = sin_product(0.5, 0.5, 3.5)
        assert l2_distance(w, w, 64) == 0.0

    def test_constant_difference(self):
        assert l2_distance(erdos_renyi(0.5), erdos_renyi(0.2), 100) == pytest.approx(0.3)

    def test_symmetry_in_arguments(self):
        w1, w2 = exp_sum(0.5), exp_distance(2.0)
        assert l2_distance(w1, w2, 50) == pytest.approx(l2_distance(w2, w1, 50))

    def test_triangle_inequality(self):
        ws = [erdos_renyi(0.5), exp_sum(0.5), sin_product(0.5, 0.5, 3.5)]
        d = lambda a, b: l2_distance(a, b, 40)
        for a in ws:
            for b in ws:
                for c in ws:
                    assert d(a, c) <= d(a, b) + d(b, c) + 1e-12

    def test_er_empirical_distance_is_degenerate(self):
        # a 0/1 empirical graphon sits at pointwise L2 distance exactly 1/2
        # from the constant-1/2 kernel at every sample size; the sorted-
        # sample convergence trend is only visible for structured kernels
        w = erdos_renyi(0.5)
        for n in (100, 1000):
            g = sample_graph(w, n, seed=1)
            assert l2_distance(w, empirical_graphon(g), 200) == pytest.approx(0.5)

    def test_sorted_sample_trend_for_structured_kernel(self):
        w = sin_product(0.5, 0.5, 3.5)
        means = []
        for n in (100, 1000):
            vals = [l2_distance(w, empirical_graphon(sample_graph(w, n, seed=s)), 200)
                    for s in range(5)]
            means.append(np.mean(vals))
        assert means[1] < means[0]


class TestSerialization:
    def test_grid_roundtrip(self, tmp_path):
        g = sample_graph(erdos_renyi(0.5), 9, seed=5)
        w = empirical_graphon(g)
        path = tmp_path / "grid.csv"
        grid_to_csv(w, path)
        back = grid_from_csv(path)
        np.testing.assert_array_equal(back.grid, w.grid)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(
        lambda m: st.lists(st.floats(0.0, 1.0), min_size=m * m, max_size=m * m)
        .map(lambda values: np.array(values).reshape(m, m))))
    def test_grid_roundtrip_property(self, tmp_path_factory, values):
        # the CSV text holds every double of a grid exactly
        grid = np.triu(values) + np.triu(values, k=1).T
        w = grid_graphon(grid)
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        grid_to_csv(w, path)
        back = grid_from_csv(path)
        assert back.grid.tobytes() == w.grid.tobytes()

    def test_analytic_not_serializable(self, tmp_path):
        with pytest.raises(ValueError):
            grid_to_csv(erdos_renyi(0.5), tmp_path / "x.csv")
