import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonsp import galerkin
from graphonsp.filtering import IdealResponse, filter_pipeline
from graphonsp.galerkin import build_fg_shift, compute_tilde_w, fredholm_solve
from graphonsp.homdensity import hom_density_graphon, triangle_motif
from graphonsp.kernels import (Graphon, _cells, empirical_graphon, erdos_renyi,
                               exp_distance, exp_sum, grid_from_csv,
                               grid_graphon, grid_to_csv, l2_distance,
                               sin_product)
from graphonsp.sampling import Graph, sample_graph


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


def _cell_formula(grid):
    """W(x, y) of a grid graphon, written out one point at a time."""
    m = len(grid)
    cell = lambda t: min(int(t * m), m - 1)
    return np.vectorize(lambda x, y: float(grid[cell(x), cell(y)]), otypes=[float])


_GRID = np.array([[0.1, 0.7, 0.2], [0.7, 0.0, 1.0], [0.2, 1.0, 0.4]])
_ADJ = sample_graph(exp_distance(2.0), 7, seed=4).adjacency

# each graphon beside its formula, written in the test
_FORMULAS = [
    (erdos_renyi(0.3), lambda x, y: 0.3 + 0 * (x + y)),
    (sin_product(0.5, 0.5, 3.5),
     lambda x, y: 0.5 + 0.5 * np.sin(3.5 * np.pi * x * y)),
    (exp_sum(0.5), lambda x, y: np.exp(-0.5 * (x + y))),
    (exp_distance(10.0), lambda x, y: np.exp(-10.0 * np.abs(x - y))),
    (grid_graphon(_GRID), _cell_formula(_GRID)),
    (empirical_graphon(Graph(adjacency=_ADJ)), _cell_formula(_ADJ)),
]


class TestEvalAgainstFormulas:
    """One ``eval`` for closures and grids gives each formula's exact bits."""

    _rng = np.random.default_rng(11)
    _INPUTS = [
        (0.3, 0.8),                                       # scalars
        (0.0, 1.0), (1.0, 1.0), (0.0, 0.0),               # endpoints
        (_rng.random(50), _rng.random(50)),               # 1-D
        (np.array([0.0, 1.0, 0.5, 1 / 3]), np.array([1.0, 1.0, 0.0, 2 / 3])),
        (_rng.random((6, 1)), _rng.random((1, 9))),       # broadcast 2-D
        (np.array([[0.0], [1.0]]), np.array([0.0, 0.5, 1.0])),
        (0.25, _rng.random((3, 4))),
    ]

    @pytest.mark.parametrize("w, formula", _FORMULAS, ids=lambda v: getattr(v, "label", ""))
    @pytest.mark.parametrize("x, y", _INPUTS)
    def test_matches_formula_bit_for_bit(self, w, formula, x, y):
        got = w.eval(x, y)
        xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        want = np.broadcast_to(formula(xa, ya), np.broadcast_shapes(xa.shape, ya.shape))
        if np.ndim(x) == 0 and np.ndim(y) == 0:
            assert type(got) is float
            assert got == float(want)
        else:
            assert got.dtype == float and got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_func_is_required(self):
        with pytest.raises(TypeError):
            Graphon("no-func")
        w = Graphon("half", lambda x, y: 0.5)
        assert w.grid is None and w.eval(0.2, 0.4) == 0.5

    def test_grid_graphons_are_read_only(self):
        for w, _ in _FORMULAS[4:]:
            assert not w.grid.flags.writeable


class TestValidation:
    def test_complex_grid_is_refused(self):
        with pytest.raises(ValueError, match="grid graphon values must be real"):
            grid_graphon(np.array([[0.5 + 0.1j]]))

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

    def test_expsum_huge_rate_gives_zero_without_warning(self):
        # alpha*(x+y) overflows to inf, and exp(-inf) = 0; the suite turns
        # a RuntimeWarning into an error
        w = exp_sum(1e308)
        assert w.eval(1.0, 1.0) == 0.0
        t = np.linspace(0.0, 1.0, 11)
        x, y = t[:, None], t[None, :]
        np.testing.assert_array_equal(w.eval(x, y), np.where(x + y == 0, 1.0, 0.0))

    def test_expsum_finite_values_unchanged(self):
        t = np.linspace(0.0, 1.0, 101)
        x, y = t[:, None], t[None, :]
        for alpha in (0.0, 0.5, 2.0, 700.0):
            assert np.array_equal(exp_sum(alpha).eval(x, y), np.exp(-alpha * (x + y)))

    def test_sinprod_numpy_infinities_raise_only_value_error(self):
        inf = np.float64(np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need b >= 0"):
                sin_product(inf, inf, 1.0)
            with pytest.raises(ValueError, match="finite"):
                sin_product(np.float64(0.5), np.float64(0.5), inf)

    def test_grid_must_be_square_symmetric(self):
        with pytest.raises(ValueError):
            grid_graphon(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            grid_graphon(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nearly_symmetric_grid_is_stored_symmetric(self, tmp_path):
        # within allclose of its transpose, so accepted; W must still be
        # symmetric, from the library and from a CSV
        grid = np.array([[0.0, 1e-9], [0.0, 0.0]])
        path = tmp_path / "grid.csv"
        np.savetxt(path, grid, delimiter=",")
        for w in (grid_graphon(grid), grid_from_csv(path)):
            assert w.eval(0.1, 0.9) == w.eval(0.9, 0.1) == 5e-10
            np.testing.assert_array_equal(w.grid, w.grid.T)

    def test_symmetric_grid_keeps_its_bits(self):
        rng = np.random.default_rng(3)
        grid = rng.random((5, 5))
        grid = np.triu(grid) + np.triu(grid, 1).T
        np.testing.assert_array_equal(grid_graphon(grid).grid, grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            grid_graphon(np.zeros((0, 0)))

    @pytest.mark.parametrize("text", ["", "\n\n\r\n", "# a comment\n", "  \t\n \t\n",
                                      "  # an indented comment\n\t\n"],
                             ids=["empty", "blank-lines", "comments", "spaces-tabs",
                                  "indented-comment"])
    def test_empty_csv_rejected_without_a_warning(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid graphon requires a nonempty matrix"):
                grid_from_csv(path)

    def test_csv_skips_lines_of_whitespace(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("0.2,0.7\n \t\n0.7,0.9\n  # a comment\n")
        np.testing.assert_array_equal(grid_from_csv(path).grid, [[0.2, 0.7], [0.7, 0.9]])

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

    def test_grid_is_a_read_only_view_of_the_adjacency(self):
        # the cells are the graph's own packed rows; the grid unpacks them
        adj = np.array([[False, True], [True, False]])  # writeable
        g = Graph(adjacency=adj)
        w = empirical_graphon(g)
        assert w.cells is g.packed and not w.cells.flags.writeable
        assert w.grid.dtype == bool and np.array_equal(w.grid, adj)
        assert not w.grid.flags.writeable and adj.flags.writeable

    def test_no_float_copy_of_the_adjacency(self):
        # a float64 copy of A checked by np.allclose would peak near 25 N^2 bytes
        n = 2048
        g = sample_graph(erdos_renyi(0.5), n, seed=2)
        tracemalloc.start()
        try:
            w = empirical_graphon(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n
        assert w.grid.dtype == bool


class TestCells:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 2001])
    def test_packed_rows_read_as_adjacency_rows(self, n):
        g = sample_graph(erdos_renyi(0.5), n, seed=n)
        adj = g.adjacency
        for r0, r1 in [(0, None), (0, 1), (n - 1, n), (n // 3, 2 * n // 3 + 1),
                       (min(8, n - 1), min(17, n)), (n, n)]:
            rows = _cells(g.packed, r0, r1)
            assert rows.dtype == bool and not rows.flags.writeable
            np.testing.assert_array_equal(rows, adj[r0:r1])
        np.testing.assert_array_equal(_cells(g.packed), adj)

    def test_float_cells_come_back_as_a_read_only_view(self):
        cells = np.arange(25.0).reshape(5, 5)  # writeable
        rows = _cells(cells, 1, 4)
        assert np.shares_memory(rows, cells) and not rows.flags.writeable
        np.testing.assert_array_equal(rows, cells[1:4])
        assert cells.flags.writeable
        assert np.shares_memory(_cells(cells), cells)

    def test_grid_reads_the_cells(self):
        w = grid_graphon(np.full((3, 3), 0.25))
        assert np.shares_memory(w.grid, w.cells) and not w.grid.flags.writeable


class TestLibraryEvaluatesFunc:
    def test_no_library_path_calls_eval(self, monkeypatch):
        # every kernel value inside the library comes from func at points in
        # [0, 1]; eval, with its checks and copies, is for callers only
        monkeypatch.setattr(Graphon, "eval", lambda *a: pytest.fail("eval called"))
        rng = np.random.default_rng(0)
        cells = rng.random((6, 6))
        graph = sample_graph(sin_product(0.5, 0.5, 3.5), 40, seed=1)
        kernels = [erdos_renyi(0.5), exp_sum(0.5), sin_product(0.5, 0.5, 3.5),
                   exp_distance(10), grid_graphon((cells + cells.T) / 2),
                   empirical_graphon(graph)]
        for w in kernels:
            galerkin._shift.cache_clear()  # so that each build evaluates the kernel
            assert np.all(np.isfinite(build_fg_shift(w, 12, 4).entries))
            assert np.all(np.isfinite(compute_tilde_w(w, 12, 6).entries))
            galerkin._shift.cache_clear()
            assert np.all(np.isfinite(fredholm_solve(w, lambda t: t, 12, 4, 20)))
            galerkin._shift.cache_clear()
            filter_pipeline(w, lambda t: t, 3, IdealResponse([1, 0, 0, 0]), 12, 4, 20)
            assert 0.0 <= l2_distance(w, kernels[-1], 9) <= 1.0
            assert sample_graph(w, 30, seed=2).n == 30
            est = hom_density_graphon(triangle_motif(), w, 500, seed=3)
            assert 0.0 <= est.estimate <= 1.0


class TestL2Distance:
    def test_identical_kernels(self):
        w = sin_product(0.5, 0.5, 3.5)
        assert l2_distance(w, w, 64) == 0.0

    def test_constant_difference(self):
        assert l2_distance(erdos_renyi(0.5), erdos_renyi(0.2), 100) == pytest.approx(0.3)

    @pytest.mark.parametrize("side", [1, 7, 100])
    def test_constant_difference_is_averaged_over_the_mesh(self, side):
        # the two closures return one float each; the mean is still taken
        # over the side x side mesh, so the bits are the mesh's
        mesh = np.full((side, side), 0.3 - 0.7)
        assert l2_distance(erdos_renyi(0.3), erdos_renyi(0.7), side) == \
            math.sqrt(np.mean(mesh ** 2))

    def test_packed_cells_are_subtracted_as_floats(self):
        # the closures of packed cells return uint8; 0 - 1 must be -1, not 255
        g1 = sample_graph(erdos_renyi(0.5), 24, seed=1)
        g2 = sample_graph(erdos_renyi(0.5), 24, seed=2)
        want = math.sqrt(np.mean((g1.adjacency.astype(float) - g2.adjacency) ** 2))
        assert l2_distance(empirical_graphon(g1), empirical_graphon(g2), 24) == want
        assert 0.0 < want <= 1.0

    def test_symmetry_in_arguments(self):
        w1, w2 = exp_sum(0.5), exp_distance(2.0)
        assert l2_distance(w1, w2, 50) == pytest.approx(l2_distance(w2, w1, 50))

    @pytest.mark.parametrize("side", [2.5, 3.0, 0, -2, "4", None])
    def test_grid_side_must_be_a_positive_integer(self, side):
        w = exp_sum(0.5)
        with pytest.raises(ValueError, match="grid_side must be an integer >= 1"):
            l2_distance(w, w, side)

    def test_numpy_integer_grid_side_accepted(self):
        w1, w2 = erdos_renyi(0.5), erdos_renyi(0.2)
        assert l2_distance(w1, w2, np.int64(7)) == l2_distance(w1, w2, 7)

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
