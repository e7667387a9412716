import numpy as np
import pytest

from graphonsp.galerkin import (_weight_correction, build_fg_shift,
                                compute_tilde_w, fredholm_solve,
                                operator_to_csv, resolvent_eigs)
from graphonsp.kernels import (erdos_renyi, exp_distance, exp_sum, grid_graphon,
                               sin_product)
from graphonsp.sampling import sample_graph, scaled_adjacency

ZERO = grid_graphon(np.zeros((4, 4)), label="zero")


def power_iteration_radius(m, iters=200, seed=0):
    """Independent spectral-radius estimate for a symmetric matrix."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = m @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = v @ (m @ v)
    return abs(lam)


def reference_weight_correct(raw, p, n):
    """Column recombination of a padded raw matrix, one (j, l) term at a
    time: column degree j receives -1/(4l^2-1) times the raw columns at
    degrees j+2l and |j-2l| for l = 1..p, reflections onto degree 0
    excluded, then everything is scaled by 2/pi."""
    assert raw.shape[1] >= n + 2 * p
    out = raw[:, :n].copy()
    for j in range(n):
        for l in range(1, p + 1):
            coef = 1.0 / (4 * l * l - 1)
            out[:, j] -= coef * raw[:, j + 2 * l]
            if j - 2 * l != 0:
                out[:, j] -= coef * raw[:, abs(j - 2 * l)]
    return out * (2.0 / np.pi)


class TestTildeW:
    def test_er_corner_value(self):
        # constant kernel: both tilde sums collapse, leaving pi^2 * p at (1,1)
        raw = compute_tilde_w(erdos_renyi(0.5), 10, 5)
        assert abs(raw.entries[0, 0] - np.pi ** 2 * 0.5) < 1e-9

    def test_er_other_entries_vanish(self):
        for pad in (5, 25, 40):
            raw = compute_tilde_w(erdos_renyi(0.5), 10, pad)
            rest = raw.entries.copy()
            rest[0, 0] = 0.0
            assert np.abs(rest).max() < 1e-9

    def test_zero_kernel(self):
        raw = compute_tilde_w(ZERO, 8, 6)
        np.testing.assert_array_equal(raw.entries, np.zeros((6, 6)))

    def test_symmetric_kernel_gives_symmetric_tilde(self):
        raw = compute_tilde_w(exp_sum(0.5), 12, 8)
        np.testing.assert_allclose(raw.entries, raw.entries.T, atol=1e-12)

    def test_unresolvable_degrees_are_zero_padding(self):
        # degrees above p fold onto lower ones under the p-panel rule, so
        # the padding region holds exact zeros rather than aliased values
        raw = compute_tilde_w(exp_sum(0.5), 4, 12)
        assert np.abs(raw.entries[5:, :]).max() == 0.0
        assert np.abs(raw.entries[:, 5:]).max() == 0.0
        assert np.abs(raw.entries[:5, :5]).max() > 0.0


class TestWeightCorrect:
    def test_zero_raw_gives_zero_corrected(self):
        raw = compute_tilde_w(ZERO, 6, 7)
        out = raw.entries[:5] @ _weight_correction(6, 5)
        np.testing.assert_array_equal(out, np.zeros((5, 5)))

    def test_single_corner_entry_scales_by_two_over_pi(self):
        # one nonzero raw entry at degree 0: every correction term of the
        # first column either lands above degree 0 or is a reflection onto
        # degree 0, which is excluded, so the corrected corner is
        # (2/pi) * pi^2 * p = 2*pi*p
        p_panels, n = 10, 5
        raw = np.zeros((n, p_panels + 1))
        raw[0, 0] = np.pi ** 2 * 0.5
        out = raw @ _weight_correction(p_panels, n)
        assert out[0, 0] == pytest.approx(2 * np.pi * 0.5)
        rest = out.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-12


class TestBuildFgShift:
    def test_er_single_constant_row(self):
        op = build_fg_shift(erdos_renyi(0.5), 10, 5)
        assert op.entries[0, 0] == pytest.approx(0.5, abs=1e-9)
        outside_first_row = op.entries[1:, :]
        assert np.abs(outside_first_row).max() < 1e-9
        rest = op.entries.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-9

    def test_exponential_kernel_fills_more_rows(self):
        op = build_fg_shift(exp_sum(0.5), 10, 5)
        assert np.abs(op.entries[1:, :]).max() > 1e-3

    def test_zero_kernel(self):
        op = build_fg_shift(ZERO, 10, 5)
        np.testing.assert_array_equal(op.entries, np.zeros((5, 5)))

    def test_aliasing_guard(self):
        with pytest.raises(ValueError):
            build_fg_shift(erdos_renyi(0.5), 4, 6)

    def test_determinism_bit_identical(self):
        a = build_fg_shift(exp_sum(0.5), 10, 5)
        b = build_fg_shift(exp_sum(0.5), 10, 5)
        assert np.array_equal(a.entries, b.entries)


class TestAgainstDenseQuadratureOracle:
    def test_low_degree_columns_match_galerkin_integrals(self):
        # oracle: V[i,j] = int int W((u+1)/2,(v+1)/2) c_{i-1}(u) w(u) c_{j-1}(v) dv du
        # evaluated by dense theta-trapezoid (u, weighted) x Gauss-Legendre (v,
        # plain), then normalized the same way as the shift operator; the
        # degree-0 and degree-1 columns of the built operator must agree
        n, p = 5, 16
        kernel = exp_sum(0.5)
        theta = (np.arange(4000) + 0.5) * np.pi / 4000
        u = np.cos(theta)
        v, wv = np.polynomial.legendre.leggauss(200)
        K = kernel.eval((u[:, None] + 1) / 2, (v[None, :] + 1) / 2)
        gammas = np.array([np.pi] + [np.pi / 2] * (n - 1))
        op = build_fg_shift(kernel, p, n)
        for j in (0, 1):
            inner = K @ (wv * np.cos(j * np.arccos(v)))          # dv integral
            for i in range(n):
                outer = np.mean(inner * np.cos(i * theta)) * np.pi  # w(u) du
                expected = outer / (2 * gammas[i])
                assert abs(op.entries[i, j] - expected) < 1e-9


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("p, n", [(6, 7), (10, 5), (16, 5), (200, 50)])
    @pytest.mark.parametrize("kernel", [erdos_renyi(0.5), exp_sum(0.5),
                                        sin_product(0.5, 0.5, 3.5),
                                        exp_distance(10)],
                             ids=lambda w: w.label)
    def test_every_column_matches(self, kernel, p, n):
        # the operator as it was first built: padded raw tilde matrix,
        # per-(j, l) weight correction, truncation, row normalization
        raw = compute_tilde_w(kernel, p, n + 2 * p).entries[:n]
        gammas = np.array([np.pi] + [np.pi / 2] * (n - 1))
        expected = reference_weight_correct(raw, p, n) / (2 * gammas)[:, None]
        got = build_fg_shift(kernel, p, n).entries
        assert got.shape == (n, n)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


class TestFredholmSolve:
    def test_er_constant_solution(self):
        # int_0^1 0.5 * y dy = 0.25 at every x
        y = fredholm_solve(erdos_renyi(0.5), lambda x: x, 10, 5, 200)
        assert np.abs(y - 0.25).max() < 1e-6

    def test_exponential_analytic_solution(self):
        xs = np.linspace(0, 1, 200)
        exact = (4 - 6 * np.exp(-0.5)) * np.exp(-xs / 2)
        y = fredholm_solve(exp_sum(0.5), lambda x: x, 10, 5, 200)
        rel = np.abs(y - exact).max() / np.abs(exact).max()
        assert rel < 1e-2

    def test_exponential_high_accuracy(self):
        xs = np.linspace(0, 1, 200)
        exact = (4 - 6 * np.exp(-0.5)) * np.exp(-xs / 2)
        y = fredholm_solve(exp_sum(0.5), lambda x: x, 32, 8, 200)
        rel = np.abs(y - exact).max() / np.abs(exact).max()
        assert rel < 1e-4

    def test_zero_kernel_annihilates(self):
        y = fredholm_solve(ZERO, lambda x: x + 1.0, 8, 4, 50)
        np.testing.assert_allclose(y, np.zeros(50), atol=1e-14)

    def test_error_nonincreasing_as_panels_double(self):
        xs = np.linspace(0, 1, 200)
        exact = (4 - 6 * np.exp(-0.5)) * np.exp(-xs / 2)
        errs = []
        for p in (8, 16, 32, 64):
            y = fredholm_solve(exp_sum(0.5), lambda x: x, p, 5, 200)
            errs.append(np.abs(y - exact).max())
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12


class TestResolventEigs:
    def test_er_leading_eigenvalue(self):
        op = build_fg_shift(erdos_renyi(0.5), 10, 5)
        eigs = resolvent_eigs(op)
        assert abs(eigs[0] - 0.5) < 5e-2
        assert np.abs(eigs[1:]).max() < 1e-9

    def test_zero_matrix(self):
        eigs = resolvent_eigs(build_fg_shift(ZERO, 10, 5))
        np.testing.assert_array_equal(eigs, np.zeros(5))

    def test_asymmetry_warning_for_smooth_kernel(self):
        op = build_fg_shift(exp_sum(0.5), 10, 5)
        with pytest.warns(UserWarning):
            resolvent_eigs(op)

    def test_scaled_adjacency_route(self):
        # classical spectral convergence: the leading eigenvalue of S for
        # an ER(p) sample approaches p
        g = sample_graph(erdos_renyi(0.5), 2000, seed=17)
        s = scaled_adjacency(g)
        radius = power_iteration_radius(s.entries, iters=100)
        assert abs(radius - 0.5) < 0.05


class TestOperatorCsv:
    def test_roundtrip(self, tmp_path):
        op = build_fg_shift(exp_sum(0.5), 10, 5)
        path = tmp_path / "op.csv"
        operator_to_csv(op, path)
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        np.testing.assert_allclose(back, op.entries, atol=1e-15)
