import numpy as np
import pytest

from graphonsp.filtering import (FilterCoeffs, IdealResponse, apply_graph_filter,
                                 design_filter, fg_filter_operator,
                                 filter_pipeline, frequency_response,
                                 truncated_svd_pinv)
from graphonsp.galerkin import build_fg_shift, OperatorMatrix
from graphonsp.kernels import erdos_renyi, exp_distance, exp_sum, sin_product
from graphonsp.sampling import apply_shift, sample_graph, scaled_adjacency


def operator_from_entries(entries):
    return OperatorMatrix(entries=np.asarray(entries, dtype=float))


class TestApplyGraphFilter:
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
        expected = x.copy()
        for k in range(1, 7):
            expected = s.entries @ expected
            h = np.zeros(k + 1)
            h[k] = 1.0
            np.testing.assert_allclose(
                apply_graph_filter(s, FilterCoeffs(h), x), expected, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 17, 400])
    def test_matches_entries_loop_bit_for_bit(self, n):
        s = scaled_adjacency(sample_graph(exp_sum(0.5), n, seed=n))
        x = np.random.default_rng(n).standard_normal(n)
        taps = (0.5, 0.3, 0.2)
        expected = taps[0] * x
        v = x
        for tap in taps[1:]:
            v = s.entries @ v
            expected = expected + tap * v
        assert np.array_equal(apply_graph_filter(s, FilterCoeffs(taps), x), expected)

    def test_dimension_mismatch(self):
        g = sample_graph(erdos_renyi(0.5), 5, seed=0)
        with pytest.raises(ValueError):
            apply_graph_filter(scaled_adjacency(g), FilterCoeffs([1.0]), np.ones(4))


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

    def test_guards(self):
        with pytest.raises(ValueError):
            truncated_svd_pinv(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            truncated_svd_pinv(np.eye(2), rel_tol=2.0)


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

    def test_length_mismatch_rejected(self):
        op = build_fg_shift(erdos_renyi(0.5), 10, 5)
        with pytest.raises(ValueError):
            design_filter(op, 3, IdealResponse([1.0, 0.0]))


class TestFrequencyResponse:
    def test_identity(self):
        np.testing.assert_array_equal(frequency_response(np.eye(5)), np.ones(5))

    def test_diagonal(self):
        d = np.array([1.0, 5.0, 0.0, 2.0])
        np.testing.assert_array_equal(frequency_response(np.diag(d)), d)

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
