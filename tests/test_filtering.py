import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from graphonsp import filtering
from graphonsp.filtering import (FilterCoeffs, IdealResponse, apply_graph_filter,
                                 design_filter, fg_filter_operator,
                                 filter_pipeline, frequency_response,
                                 truncated_svd_pinv)
from graphonsp.galerkin import build_fg_shift, OperatorMatrix
from graphonsp.homdensity import Motif, hom_density_graph
from graphonsp.kernels import erdos_renyi, exp_distance, exp_sum, sin_product
from graphonsp.sampling import apply_shift, sample_graph, scaled_adjacency


def operator_from_entries(entries):
    return OperatorMatrix(entries=np.asarray(entries, dtype=float))


class TestApplyGraphFilter:
    def test_complex_signal_is_refused(self):
        # a cast to float would drop the imaginary part: [1j, 1, 1, 1] -> [0, 1, 1, 1]
        g = sample_graph(erdos_renyi(0.5), 4, seed=0)
        with pytest.raises(ValueError, match="signal must be real"):
            apply_graph_filter(g, FilterCoeffs([1.0]), np.array([1j, 1, 1, 1]))

    def test_identity_filter(self):
        g = sample_graph(erdos_renyi(0.5), 20, seed=0)
        s = scaled_adjacency(g)
        x = np.arange(20.0)
        np.testing.assert_array_equal(
            apply_graph_filter(s, FilterCoeffs([1.0]), x), x)

    def test_pure_shift(self):
        g = sample_graph(erdos_renyi(0.5), 20, seed=0)
        s = scaled_adjacency(g)
        x = np.arange(20.0)
        np.testing.assert_allclose(
            apply_graph_filter(s, FilterCoeffs([0.0, 1.0]), x),
            apply_shift(s, x))

    def test_complete_graph_row_sums(self):
        g = sample_graph(erdos_renyi(1.0), 4, seed=0)
        s = scaled_adjacency(g)
        out = apply_graph_filter(s, FilterCoeffs([0.0, 1.0]), np.ones(4))
        np.testing.assert_allclose(out, 0.75 * np.ones(4))

    def test_unit_tap_equals_explicit_power(self):
        g = sample_graph(exp_sum(0.5), 100, seed=4)
        s = scaled_adjacency(g)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100)
        dense = g.adjacency / g.n
        expected = x.copy()
        for k in range(1, 7):
            expected = dense @ expected
            h = np.zeros(k + 1)
            h[k] = 1.0
            np.testing.assert_allclose(
                apply_graph_filter(s, FilterCoeffs(h), x), expected, atol=1e-13)

    # 100, 400 and 1600 are the convergence study's sizes, 2000 the design studies'
    @pytest.mark.parametrize("n", [1, 17, 100, 400, 1600, 2000])
    def test_matches_entries_loop_bit_for_bit(self, n):
        g = sample_graph(exp_sum(0.5), n, seed=n)
        dense = np.divide(g.adjacency, n, dtype=float)
        x = np.random.default_rng(n).standard_normal(n)
        taps = (0.5, 0.3, 0.2)
        expected = taps[0] * x
        v = x
        for tap in taps[1:]:
            v = dense @ v
            expected = expected + tap * v
        got = apply_graph_filter(scaled_adjacency(g), FilterCoeffs(taps), x)
        assert np.array_equal(got, expected)

    def test_three_tap_filter_allocates_no_dense_shift(self):
        n = 2000  # a dense float64 S would take 32 MB
        g = sample_graph(exp_sum(0.5), n, seed=3)
        x = np.random.default_rng(3).standard_normal(n)
        taps = FilterCoeffs([0.5, 0.3, 0.2])
        tracemalloc.start()
        try:
            apply_graph_filter(scaled_adjacency(g), taps, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("sorted_latent", [True, False])
    @pytest.mark.parametrize("n", [50, 300])
    @pytest.mark.parametrize("w", [erdos_renyi(0.5), sin_product(0.5, 0.5, 3.5),
                                   exp_sum(0.5), exp_distance(10.0)],
                             ids=lambda w: w.label)
    def test_mean_response_to_ones_is_a_sum_of_path_densities(self, w, n,
                                                              sorted_latent):
        # walk identity: mean(S^k 1) = t(P_k, G), P_k the path with k edges;
        # at N=300 the 8-node path's count is past 2^53, so it takes the CRT
        g = sample_graph(w, n, seed=4, sorted_latent=sorted_latent)
        h = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2]
        paths = [Motif(k + 1, tuple((i, i + 1) for i in range(k))) for k in range(8)]
        want = sum(hk * hom_density_graph(pk, g) for hk, pk in zip(h, paths))
        got = apply_graph_filter(g, FilterCoeffs(h), np.ones(n)).mean()
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_dimension_mismatch(self):
        g = sample_graph(erdos_renyi(0.5), 5, seed=0)
        with pytest.raises(ValueError):
            apply_graph_filter(scaled_adjacency(g), FilterCoeffs([1.0]), np.ones(4))
        # one tap applies no shift: the length is checked against the graph's N
        with pytest.raises(ValueError, match="does not match operator size 5"):
            apply_graph_filter(scaled_adjacency(g), FilterCoeffs([2.0]), np.ones(6))


# complex input, as an array and as a list of Python complex numbers: each is
# refused, never cast to its real part, even when its imaginary part is zero
complex_vectors = pytest.mark.parametrize(
    "values", [np.array([3 + 1j, 1.0]), [3 + 1j, 1.0], np.array([2 + 0j]), [1j, 0.0]],
    ids=["array", "list", "zero-imaginary-array", "imaginary-list"])


class TestFilterCoeffs:
    @pytest.mark.parametrize("h", [[], [[1.0, 0.0]], [0.5, np.nan], [np.inf, 1.0]],
                             ids=["empty", "2-D", "nan", "inf"])
    def test_taps_must_be_a_finite_vector(self, h):
        with pytest.raises(ValueError,
                           match="filter coefficients must be a nonempty finite vector"):
            FilterCoeffs(h)

    @complex_vectors
    def test_complex_taps_are_refused(self, values):
        with pytest.raises(ValueError, match="filter coefficients must be real"):
            FilterCoeffs(values)

    def test_taps_are_stored_as_floats(self):
        h = FilterCoeffs([1, 0, 2])
        assert h.h.dtype == float and h.order == 3

    @pytest.mark.parametrize("make, field", [(FilterCoeffs, "h"), (IdealResponse, "d")])
    def test_stored_vector_is_a_read_only_copy(self, make, field):
        given = np.array([1.0, 2.0])
        stored = getattr(make(given), field)
        given[0] = 9.0
        np.testing.assert_array_equal(stored, [1.0, 2.0])
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[1] = 0.0


class TestFgFilterOperator:
    def test_identity(self):
        op = operator_from_entries(np.diag([0.5, 0.2, 0.1]))
        np.testing.assert_array_equal(
            fg_filter_operator(op, FilterCoeffs([1.0])), np.eye(3))

    def test_pure_operator(self):
        op = build_fg_shift(exp_sum(0.5), 10, 5)
        np.testing.assert_array_equal(
            fg_filter_operator(op, FilterCoeffs([0.0, 1.0])), op.entries)

    def test_single_entry_inverse_scaling(self):
        c = 2 * np.pi * 0.5
        entries = np.zeros((5, 5))
        entries[0, 0] = c
        op = operator_from_entries(entries)
        out = fg_filter_operator(op, FilterCoeffs([0.0, 1.0 / c]))
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(out, expected)


class TestTruncatedSvdPinv:
    def test_identity(self):
        np.testing.assert_allclose(truncated_svd_pinv(np.eye(4)), np.eye(4))

    def test_zero_singular_value_dropped(self):
        a = np.diag([2.0, 0.0])
        np.testing.assert_allclose(truncated_svd_pinv(a), np.diag([0.5, 0.0]))

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((20, 8))
        pinv = truncated_svd_pinv(a)
        np.testing.assert_allclose(a @ pinv @ a, a, atol=1e-8)
        np.testing.assert_allclose(pinv @ a @ pinv, pinv, atol=1e-8)
        np.testing.assert_allclose(a @ pinv, (a @ pinv).T, atol=1e-8)
        np.testing.assert_allclose(pinv @ a, (pinv @ a).T, atol=1e-8)

    def test_rank_deficient(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((10, 3))
        a = base @ rng.standard_normal((3, 6))  # rank <= 3
        pinv = truncated_svd_pinv(a)
        np.testing.assert_allclose(a @ pinv @ a, a, atol=1e-8)

    def test_tall_matrix_forms_no_square_of_its_row_count(self):
        # 3000 x 3: an m x m identity alone would be 72 MB
        a = np.random.default_rng(0).standard_normal((3000, 3))
        tracemalloc.start()
        try:
            pinv = truncated_svd_pinv(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        np.testing.assert_allclose(a @ pinv @ a, a, atol=1e-8)

    def test_guards(self):
        with pytest.raises(ValueError):
            truncated_svd_pinv(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            truncated_svd_pinv(np.eye(2), rel_tol=2.0)
        for a in (5.0, np.ones(3), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="nonempty matrix"):
                truncated_svd_pinv(a)


class TestDesignFilter:
    def test_er_consensus_reachable(self):
        op = build_fg_shift(erdos_renyi(0.5), 10, 5)
        d = IdealResponse([1.0, 0.0, 0.0, 0.0, 0.0])
        result = design_filter(op, 5, d)
        assert result.residual < 1e-6
        assert result.coeffs.h[0] == 0.0
        assert result.rank_used <= 5

    def test_er_lowpass_unreachable_bound(self):
        # the constant kernel's operator only reaches the constant frequency,
        # so the [5, 5, 10] block of the target is pure residual
        op = build_fg_shift(erdos_renyi(0.5), 10, 5)
        d = IdealResponse([1.0, 5.0, 5.0, 10.0, 0.0])
        result = design_filter(op, 5, d)
        assert result.residual >= np.linalg.norm([5.0, 5.0, 10.0]) - 1e-6

    def test_residual_nonincreasing_in_order(self):
        op = build_fg_shift(exp_distance(10.0), 10, 5)
        d = IdealResponse([1.0, 5.0, 5.0, 10.0, 0.0])
        residuals = [design_filter(op, k, d).residual for k in range(1, 9)]
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + 1e-9

    def test_residual_scales_linearly_with_target(self):
        op = build_fg_shift(sin_product(0.5, 0.5, 3.5), 10, 5)
        d = np.array([1.0, 5.0, 5.0, 10.0, 0.0])
        r1 = design_filter(op, 4, IdealResponse(d)).residual
        r3 = design_filter(op, 4, IdealResponse(3.0 * d)).residual
        assert r3 == pytest.approx(3.0 * r1, rel=1e-9)

    def test_residual_matches_explicit_frobenius_misfit(self):
        op = build_fg_shift(exp_sum(0.5), 10, 5)
        d = IdealResponse([1.0, 1.0, 0.0, 0.0, 0.0])
        result = design_filter(op, 3, d)
        h_mat = fg_filter_operator(op, result.coeffs)
        misfit = np.linalg.norm(h_mat - d.matrix(), "fro")
        assert misfit == pytest.approx(result.residual, abs=1e-10)

    @pytest.mark.parametrize("d", [[1.0, np.nan], [np.inf], [0.0, -np.inf, 1.0],
                                   [[1.0, 0.0]], 1.0, []])
    def test_ideal_response_must_be_a_finite_vector(self, d):
        with pytest.raises(ValueError, match="ideal response must be a nonempty finite vector"):
            IdealResponse(d)

    @complex_vectors
    def test_complex_ideal_response_is_refused(self, values):
        # resolvent_eigs returns complex eigenvalues for expdist:10
        with pytest.raises(ValueError, match="ideal response must be real"):
            IdealResponse(values)

    def test_length_mismatch_rejected(self):
        op = build_fg_shift(erdos_renyi(0.5), 10, 5)
        with pytest.raises(ValueError):
            design_filter(op, 3, IdealResponse([1.0, 0.0]))

    @pytest.mark.parametrize("n, order", [(5, 26), (5, 10 ** 8), (2, 9), (1, 9),
                                          (5, 0), (5, -1)])
    def test_order_outside_its_bound_refused_before_any_power(self, monkeypatch,
                                                            n, order):
        # the bound is max(n^2, 8): the row count of the design system, and at
        # least the design studies' orders 1..8
        op = build_fg_shift(exp_sum(0.5), 10, n)
        monkeypatch.setattr(filtering, "_powers", lambda w: pytest.fail("power formed"))
        bound = max(n * n, 8)
        with pytest.raises(ValueError, match=rf"filter order must lie in 1\.\.{bound} "
                                             rf"\(the larger of n\^2 and 8 at basis size {n}\)"):
            design_filter(op, order, IdealResponse(np.eye(1, n)[0]))

    @pytest.mark.parametrize("n, order", [(5, 25), (2, 8), (1, 8)])
    def test_order_at_its_bound_is_designed(self, n, order):
        op = build_fg_shift(exp_sum(0.5), 10, n)
        result = design_filter(op, order, IdealResponse(np.eye(1, n)[0]))
        assert len(result.coeffs.h) == order + 1
        assert 1 <= result.rank_used <= n

    @pytest.mark.parametrize("order", [1, 8, 9])
    def test_non_finite_operator_is_refused_and_nothing_is_cached(self, order):
        op = operator_from_entries(np.full((3, 3), np.nan))
        design_filter(build_fg_shift(exp_sum(0.5), 10, 3), 2, IdealResponse([1.0, 0.0, 0.0]))
        cached = filtering._power_qr.cache_info().currsize
        before = factor_misses()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"power W\^1 of the shift operator "
                                                 r"is not finite"):
                design_filter(op, order, IdealResponse([1.0, 0.0, 0.0]))
        # each call factors again: the failure was not cached
        assert factor_misses() == before + 2 * (order <= 8)
        assert filtering._power_qr.cache_info().currsize == cached

    def test_overflowing_power_is_refused_by_its_order(self):
        op = operator_from_entries([[1e200, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"power W\^2 of the shift operator "
                                                 r"is not finite"):
                design_filter(op, 5, IdealResponse([1.0, 0.0]))

    @pytest.mark.parametrize("w", [erdos_renyi(0.5), exp_distance(10.0),
                                   sin_product(0.5, 0.5, 3.5)], ids=lambda w: w.label)
    def test_taps_and_rank_are_those_of_the_pseudoinverse(self, w):
        op = build_fg_shift(w, 10, 5)
        d = IdealResponse([1.0, 1.0, 0.5, 0.0, 0.0])
        powers = [np.eye(5)]
        for _ in range(6):
            powers.append(powers[-1] @ op.entries)
        cols = np.stack([p.reshape(-1) for p in powers[1:]], axis=1)
        result = design_filter(op, 6, d)
        np.testing.assert_allclose(result.coeffs.h[1:],
                                   truncated_svd_pinv(cols) @ d.matrix().reshape(-1),
                                   rtol=1e-10, atol=1e-10 * np.abs(result.coeffs.h).max())
        s = np.linalg.svd(cols, compute_uv=False)
        assert result.rank_used == np.count_nonzero(s > 1e-8 * s[0])


def padded(values, n):
    """IdealResponse of length n: ``values``, cut or padded with zeros."""
    d = np.zeros(n)
    d[:min(n, len(values))] = values[:n]
    return IdealResponse(d)


TARGETS = {"lowpass": [1.0, 5.0, 5.0, 10.0], "consensus": [1.0]}
OPERATOR_KERNELS = [erdos_renyi(0.5), exp_sum(0.5), sin_product(0.5, 0.5, 3.5),
                    exp_distance(10.0)]


class TestDesignOracle:
    """Every design order against ``truncated_svd_pinv`` of freshly stacked
    powers: equal ranks, residuals within 1e-10 relative (1e-12 ||b||
    absolute where the target is reached and both are roundoff), taps within
    1e-7 max|h|."""

    @staticmethod
    def check_orders(op, d):
        b = d.matrix().reshape(-1)
        powers = fresh_powers(op.entries, 9)[1:]
        for k in range(1, 9):
            cols = np.stack([p.reshape(-1) for p in powers[:k]], axis=1)
            h = truncated_svd_pinv(cols) @ b
            s = np.linalg.svd(cols, compute_uv=False)
            result = design_filter(op, k, d)
            assert result.rank_used == np.count_nonzero(s > 1e-8 * s[0])
            assert result.residual == pytest.approx(np.linalg.norm(cols @ h - b), rel=1e-10,
                                                    abs=1e-12 * np.linalg.norm(b))
            np.testing.assert_allclose(result.coeffs.h[1:], h, rtol=0,
                                       atol=1e-7 * np.abs(h).max())

    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("w", OPERATOR_KERNELS, ids=lambda w: w.label)
    def test_operator_benchmark_size(self, w, target):
        # p=1000, n=100: the operator benchmark's operators and targets
        self.check_orders(build_fg_shift(w, 1000, 100), padded(TARGETS[target], 100))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("w", OPERATOR_KERNELS, ids=lambda w: w.label)
    def test_wide_systems(self, w, target, n):
        # n^2 < 8 rows: Q is square and R is n^2 x 8
        self.check_orders(build_fg_shift(w, 10, n), padded(TARGETS[target], n))


class TestFrequencyResponse:
    def test_identity(self):
        np.testing.assert_array_equal(frequency_response(np.eye(5)), np.ones(5))

    def test_diagonal(self):
        d = np.array([1.0, 5.0, 0.0, 2.0])
        np.testing.assert_array_equal(frequency_response(np.diag(d)), d)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (1, 2, 2)])
    def test_non_square_matrix_refused(self, shape):
        with pytest.raises(ValueError, match="frequency response requires a square matrix"):
            frequency_response(np.ones(shape))

    def test_er_single_row(self):
        op = build_fg_shift(erdos_renyi(0.5), 10, 5)
        resp = frequency_response(op.entries)
        assert abs(resp[0] - 0.5) < 1e-9
        assert np.abs(resp[1:]).max() < 1e-9


class TestFilterPipeline:
    def test_consensus_output_is_constant(self):
        d = IdealResponse([1.0, 0.0, 0.0, 0.0, 0.0])
        f = lambda x: x + np.sin(x)
        result = filter_pipeline(erdos_renyi(0.5), f, 5, d, 10, 5, 100)
        out = result.graphon_output
        assert (out.max() - out.min()) < 1e-6 * abs(out.mean())

    def test_lowpass_response_favors_passband(self):
        # a degree-K polynomial of the operator cannot zero the off-diagonal
        # couplings, so full band suppression is out of reach; the response
        # still puts visibly more weight on the passband than the stopband
        d = IdealResponse([1.0, 5.0, 5.0, 10.0, 0.0])
        result = filter_pipeline(exp_distance(10.0), lambda x: x + np.sin(x),
                                 10, d, 20, 5, 100)
        resp = np.abs(result.response)
        assert resp[:4].min() > 2 * resp[4:].max()

    def test_consensus_response_separates_sharply_for_constant_kernel(self):
        # the constant kernel reaches the consensus ideal exactly, so the
        # response is supported on the constant frequency alone
        d = IdealResponse([1.0, 0.0, 0.0, 0.0, 0.0])
        result = filter_pipeline(erdos_renyi(0.5), lambda x: x + np.sin(x),
                                 5, d, 10, 5, 100)
        resp = np.abs(result.response)
        assert resp[0] > 1e6 * resp[1:].max()

    def test_deterministic(self):
        d = IdealResponse([1.0, 0.0, 0.0, 0.0, 0.0])
        f = lambda x: x
        a = filter_pipeline(exp_sum(0.5), f, 4, d, 10, 5, 50)
        b = filter_pipeline(exp_sum(0.5), f, 4, d, 10, 5, 50)
        assert np.array_equal(a.graphon_output, b.graphon_output)
        assert np.array_equal(a.response, b.response)


def fresh_powers(entries, count):
    """W^0..W^(count-1), each the one before times W, with no cache."""
    powers = [np.eye(len(entries))]
    for _ in range(count - 1):
        powers.append(powers[-1] @ entries)
    return powers


def fresh_factor(entries, order):
    """Uncached QR of the freshly stacked powers W^1..W^order."""
    powers = fresh_powers(entries, order + 1)[1:]
    return np.linalg.qr(np.stack([p.reshape(-1) for p in powers], axis=1))


def fresh_design(entries, order, d, rel_tol=1e-8):
    """design_filter's taps, residual and rank from the fresh factor of
    W^1..W^8 (W^1..W^order above 8) and the pseudoinverse solve on R's
    first ``order`` columns."""
    q, r = fresh_factor(entries, max(order, 8))
    r = r[:, :order]
    b = d.matrix().reshape(-1)
    v_scaled, u, rank = filtering._truncated_svd(r, rel_tol)
    h_tail = v_scaled @ (u.T @ (q.T @ b))
    residual = float(np.linalg.norm(q @ (r @ h_tail) - b))
    return np.concatenate([[0.0], h_tail]).tobytes(), residual, rank


def design_bits(result):
    return result.coeffs.h.tobytes(), result.residual, result.rank_used


def lowpass(n):
    return padded(TARGETS["lowpass"], n)


def factor_misses():
    return filtering._power_qr.cache_info().misses


def factor_bytes(n):
    """Q's and R's bytes of the order-8 factor at basis size n."""
    return 8 * 8 * n * n + 8 * min(n * n, 8) * 8


class TestPowerCache:
    """The QR factor of the last operator's order-8 power matrix is cached,
    read-only, by ``_power_qr``; the powers themselves are formed per call."""

    def test_alternating_operators_and_orders_give_the_fresh_bits(self):
        ops = [build_fg_shift(sin_product(0.5, 0.5, 3.5), 10, 5),
               build_fg_shift(exp_distance(10.0), 1000, 100)]
        expected = {(i, k): fresh_design(op.entries, k, lowpass(op.size))
                    for i, op in enumerate(ops) for k in range(1, 9)}
        for k in (8, 1, 5, 3, 8, 2, 7, 4, 6, 1):
            for i, op in enumerate(ops):
                assert design_bits(design_filter(op, k, lowpass(op.size))) == expected[i, k]

    @pytest.mark.parametrize("order", [9, 12, 25])
    def test_orders_past_the_cache_give_the_fresh_bits(self, order):
        op = build_fg_shift(exp_distance(10.0), 10, 5)
        d = lowpass(5)
        design_filter(op, 3, d)
        assert design_bits(design_filter(op, order, d)) == fresh_design(op.entries, order, d)

    @pytest.mark.parametrize("taps", range(1, 15))
    def test_filter_operator_forms_the_fresh_sum_and_factors_nothing(self, taps):
        op = OperatorMatrix(entries=build_fg_shift(exp_distance(10.0), 10, 5).entries)
        h = FilterCoeffs(np.linspace(1.0, -0.5, taps))
        before = factor_misses()
        got = fg_filter_operator(op, h)
        assert factor_misses() == before
        want = sum(hk * p for hk, p in zip(h.h, fresh_powers(op.entries, taps)))
        assert got.tobytes() == want.tobytes()

    def test_a_rebuild_shares_the_factor_another_object_forms_its_own(self):
        w = exp_sum(0.5)
        op = build_fg_shift(w, 10, 5)
        design_filter(op, 4, lowpass(5))
        before = factor_misses()
        again = build_fg_shift(w, 10, 5)
        assert again is op
        design_filter(again, 4, lowpass(5))
        assert factor_misses() == before
        # the cache is keyed by the operator object, not by its values
        design_filter(OperatorMatrix(entries=op.entries), 4, lowpass(5))
        assert factor_misses() == before + 1

    @pytest.mark.parametrize("p, n", [(10, 5), (1000, 100)])
    def test_pipeline_after_the_order_sweep_factors_nothing(self, p, n):
        # the operator benchmark's chain
        w, f, d = sin_product(0.5, 0.5, 3.5), (lambda x: x), lowpass(n)
        before = factor_misses()
        op = build_fg_shift(w, p, n)
        designs = [design_filter(op, k, d) for k in range(1, 9)]
        assert factor_misses() == before + 1
        pipe = filter_pipeline(w, f, 5, d, p, n, 50)
        assert factor_misses() == before + 1
        assert (pipe.coeffs.h.tobytes(), pipe.residual) == design_bits(designs[4])[:2]

    @pytest.mark.parametrize("order", [8, 50, 400])
    def test_a_design_holds_the_order_8_factor_alone(self, order):
        # and nothing at all above order 8
        n = 20
        op = build_fg_shift(exp_distance(10.0), 64, n)
        filtering._power_qr.cache_clear()
        tracemalloc.start()
        try:
            result = design_filter(op, order, lowpass(n))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        factor = factor_bytes(n) if order <= 8 else 0
        assert filtering._power_qr.cache_info().currsize == (order <= 8)
        if order <= 8:
            assert sum(a.nbytes for a in filtering._power_qr(op)) == factor
        # beyond the factor: the result's taps and small objects
        assert factor + result.coeffs.h.nbytes <= held < factor + 2 ** 14

    @pytest.mark.parametrize("p, n", [(10, 5), (1000, 100)])
    def test_the_operator_chain_factors_once(self, p, n):
        # a build, the designs at orders 1..8 and the pipeline at order 5
        w, f, d = exp_sum(0.5), (lambda x: x), lowpass(n)
        before = factor_misses()
        op = build_fg_shift(w, p, n)
        for k in range(1, 9):
            design_filter(op, k, d)
        filter_pipeline(w, f, 5, d, p, n, 50)
        assert factor_misses() == before + 1

    @pytest.mark.parametrize("order", [9, 12, 25])
    def test_orders_past_the_cache_leave_the_factor_in_place(self, order):
        op = build_fg_shift(sin_product(0.5, 0.5, 3.5), 10, 5)
        d = lowpass(5)
        design_filter(op, 3, d)
        q, r = filtering._power_qr(op)
        before = factor_misses()
        design_filter(op, order, d)
        assert factor_misses() == before
        again = filtering._power_qr(op)
        assert again[0] is q and again[1] is r
        assert design_bits(design_filter(op, 3, d)) == fresh_design(op.entries, 3, d)
        assert factor_misses() == before

    def test_factor_is_read_only(self):
        op = build_fg_shift(exp_distance(10.0), 10, 5)
        design_filter(op, 2, lowpass(5))
        q, r = filtering._power_qr(op)
        assert q.shape == (25, 8) and r.shape == (8, 8)
        for a in (q, r):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.5

    def test_threads_sharing_one_operator_give_the_serial_bits(self):
        # one operator with no factor cached at the start: concurrent designs
        # race to form and cache the same QR factor, while filters form
        # their own powers
        entries = build_fg_shift(sin_product(0.5, 0.5, 3.5), 64, 16).entries
        d = lowpass(16)
        taps = [FilterCoeffs(np.linspace(1.0, 0.1, m)) for m in (3, 9, 12)]
        jobs = ([(design_filter, k, d) for k in range(1, 9)]
                + [(fg_filter_operator, h) for h in taps]) * 4
        serial = OperatorMatrix(entries=entries)
        expected = [fn(serial, *args) for fn, *args in jobs]
        shared = OperatorMatrix(entries=entries)
        filtering._power_qr.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(fn, shared, *args) for fn, *args in jobs]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, expected):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes()
            else:
                assert design_bits(a) == design_bits(b)
        want_q, want_r = fresh_factor(entries, 8)
        got_q, got_r = filtering._power_qr(shared)
        assert (got_q.tobytes(), got_r.tobytes()) == (want_q.tobytes(), want_r.tobytes())
