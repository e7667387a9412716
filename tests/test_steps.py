import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonsp import sampling
from graphonsp.kernels import (empirical_graphon, erdos_renyi, exp_distance,
                               grid_graphon)
from graphonsp.sampling import (Graph, apply_shift, sample_graph,
                                scaled_adjacency)
from graphonsp.steps import (apply_empirical_operator, lift,
                             step_operator_matrix, unlift)


def multiplied_block_loop(grid, x):
    """S @ x for S = grid * fl(1/N), a row block of S at a time."""
    n = grid.shape[0]
    rows = max(8, sampling._SHIFT_BLOCK_ENTRIES // (8 * n) * 8)
    out = np.empty(n)
    for r0 in range(0, n, rows):
        np.matmul(grid[r0:r0 + rows] * (1.0 / n), x, out=out[r0:r0 + rows])
    return out


class TestLiftUnlift:
    def test_complex_vector_is_refused(self):
        with pytest.raises(ValueError, match="signal must be real"):
            lift(np.array([1 + 2j, 3]))

    def test_roundtrip(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(unlift(lift(x)), x)

    def test_zero_vector_is_zero_function(self):
        f = lift(np.zeros(4))
        ts = np.linspace(0, 1, 17)
        assert np.all(f.evaluate(ts) == 0.0)

    def test_negative_coefficients_allowed(self):
        np.testing.assert_array_equal(unlift(lift(np.array([1.0, -1.0]))),
                                      np.array([1.0, -1.0]))

    def test_basis_amplitude(self):
        # e1 with N=2 lifts to the value 2 on [0, 1/2) and 0 on [1/2, 1]
        f = lift(np.array([1.0, 0.0]))
        assert f.evaluate(0.0) == 2.0
        assert f.evaluate(0.49) == 2.0
        assert f.evaluate(0.5) == 0.0
        assert f.evaluate(1.0) == 0.0

    def test_singleton(self):
        np.testing.assert_array_equal(unlift(lift(np.array([5.0]))), [5.0])

    def test_length_is_the_strip_count(self):
        assert len(lift(np.zeros(7))) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lift(np.array([]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
    def test_roundtrip_is_bit_exact(self, values):
        x = np.array(values)
        assert unlift(lift(x)).tobytes() == x.tobytes()

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError):
            lift(np.ones(3)).evaluate(np.nan)

    def test_bijection_on_random_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.standard_normal(rng.integers(1, 40))
            np.testing.assert_array_equal(unlift(lift(x)), x)


class TestStepOperatorMatrix:
    def test_complete_graph_recovers_adjacency(self):
        g = sample_graph(erdos_renyi(1.0), 4, seed=0)
        m = step_operator_matrix(empirical_graphon(g))
        np.testing.assert_array_equal(m, g.adjacency.astype(float))

    def test_zero_grid(self):
        g = sample_graph(erdos_renyi(0.0), 5, seed=0)
        np.testing.assert_array_equal(step_operator_matrix(empirical_graphon(g)),
                                      np.zeros((5, 5)))

    def test_random_graph_recovers_adjacency(self):
        g = sample_graph(erdos_renyi(0.5), 20, seed=13)
        m = step_operator_matrix(empirical_graphon(g))
        np.testing.assert_array_equal(m, g.adjacency.astype(float))

    def test_analytic_kernel_rejected(self):
        with pytest.raises(ValueError):
            step_operator_matrix(erdos_renyi(0.5))


class TestEmpiricalOperator:
    def test_complete_graph_ones(self):
        g = sample_graph(erdos_renyi(1.0), 4, seed=0)
        out = apply_empirical_operator(empirical_graphon(g), lift(np.ones(4)))
        np.testing.assert_allclose(unlift(out), 0.75 * np.ones(4))

    def test_zero_grid_annihilates(self):
        g = sample_graph(erdos_renyi(0.0), 3, seed=0)
        out = apply_empirical_operator(empirical_graphon(g),
                                       lift(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_array_equal(unlift(out), np.zeros(3))

    def test_single_edge(self):
        g = sample_graph(erdos_renyi(1.0), 2, seed=0)
        out = apply_empirical_operator(empirical_graphon(g),
                                       lift(np.array([1.0, 0.0])))
        np.testing.assert_allclose(unlift(out), np.array([0.0, 0.5]))

    def test_dimension_mismatch(self):
        g = sample_graph(erdos_renyi(1.0), 4, seed=0)
        with pytest.raises(ValueError):
            apply_empirical_operator(empirical_graphon(g), lift(np.ones(5)))

    def test_adjacency_equivalence_exact(self):
        # lifted operator application equals scaled-adjacency application
        # bit for bit for any sampled graph
        rng = np.random.default_rng(99)
        for w in (erdos_renyi(0.5), exp_distance(10.0)):
            for n in (5, 20, 50, 200):
                g = sample_graph(w, n, seed=n)
                we = empirical_graphon(g)
                s = scaled_adjacency(g)
                for _ in range(20):
                    x = rng.standard_normal(n)
                    lifted = unlift(apply_empirical_operator(we, lift(x)))
                    np.testing.assert_array_equal(lifted, apply_shift(s, x))

    def test_float_grid_is_multiplied_by_one_over_n(self):
        # every grid takes the boolean rule S = grid * fl(1/N); on a float
        # grid that is not grid / N in the last bit
        n = 333
        grid = np.random.default_rng(5).random((n, n))
        grid = (grid + grid.T) / 2
        assert not np.array_equal(grid * (1.0 / n), grid / n)
        x = np.random.default_rng(6).standard_normal(n)
        got = unlift(apply_empirical_operator(grid_graphon(grid), lift(x)))
        assert got.tobytes() == multiplied_block_loop(grid, x).tobytes()

    def test_operator_powers_match_shift_powers(self):
        g = sample_graph(erdos_renyi(0.5), 60, seed=21)
        we = empirical_graphon(g)
        s = scaled_adjacency(g)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(60)
        f = lift(x)
        y = x.copy()
        for _ in range(5):
            f = apply_empirical_operator(we, f)
            y = apply_shift(s, y)
            np.testing.assert_array_equal(unlift(f), y)


def graphs_with_signals(max_n):
    """A random simple graph on 1..max_n nodes with a signal in [-1, 1]^n."""
    def build(n):
        bits = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
        signal = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
        return st.tuples(bits, signal)

    def to_graph(pair):
        bits, signal = pair
        n = len(signal)
        upper = np.triu(np.array(bits).reshape(n, n), k=1)
        return Graph(adjacency=upper | upper.T), np.array(signal)

    return st.integers(1, max_n).flatmap(build).map(to_graph)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(graphs_with_signals(max_n=24))
    def test_lifted_operator_equals_scaled_adjacency(self, graph_signal):
        g, x = graph_signal
        lifted = unlift(apply_empirical_operator(empirical_graphon(g), lift(x)))
        np.testing.assert_array_equal(lifted, apply_shift(scaled_adjacency(g), x))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
    def test_float_grid_within_one_ulp_of_division(self, n, seed):
        rng = np.random.default_rng(seed)
        grid = rng.random((n, n))
        grid = (grid + grid.T) / 2
        x = rng.standard_normal(n)
        got = unlift(apply_empirical_operator(grid_graphon(grid), lift(x)))
        assert got.tobytes() == multiplied_block_loop(grid, x).tobytes()
        # each entry of S is within 1 ulp of grid / N, so S @ x is within
        # that perturbation's sum of (grid / N) @ x, plus the rounding of
        # two N-term dot products
        divided = grid / n
        assert np.all(np.abs(grid * (1.0 / n) - divided) <= np.spacing(divided))
        bound = (np.spacing(divided) @ np.abs(x)
                 + 2 * n * np.finfo(float).eps * (divided @ np.abs(x)))
        assert np.all(np.abs(got - divided @ x) <= bound)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 400))
    def test_grid_and_step_signal_share_the_cell_rule(self, m):
        # column 0 of the grid and the coefficients both name the cell index,
        # so each side reports the cell it picked for t
        grid = np.zeros((m, m))
        grid[:, 0] = grid[0, :] = np.arange(m) / m
        w = grid_graphon(grid)
        f = lift(np.arange(m, dtype=float))
        t = np.arange(m + 1) / m
        t = np.concatenate([t, np.nextafter(t[1:-1], 0.0), np.nextafter(t[1:-1], 1.0)])
        grid_cell = np.rint(w.eval(t, 0.0) * m).astype(int)
        step_cell = f.evaluate(t) / m
        np.testing.assert_array_equal(grid_cell, step_cell)
        assert grid_cell[0] == 0 and grid_cell[m] == m - 1
