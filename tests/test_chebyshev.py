import tracemalloc

import numpy as np
import pytest

from graphonsp.chebyshev import (ChebCoeffVector, QuadratureRule, _projector,
                                 _resampler, cheb_basis_matrix, cheb_eval,
                                 coefficient_normalizers, map_domain_inverse,
                                 project_signal, quad_integrate, resample)


class TestChebEval:
    def test_degree_zero_is_one(self):
        assert cheb_eval(0, 0.37) == 1.0

    def test_degree_one_is_identity(self):
        for u in (-1.0, -0.3, 0.0, 0.8, 1.0):
            assert cheb_eval(1, u) == pytest.approx(u)

    def test_degree_two(self):
        assert cheb_eval(2, 0.5) == pytest.approx(2 * 0.5 ** 2 - 1)

    def test_endpoints(self):
        for k in range(6):
            assert cheb_eval(k, 1.0) == pytest.approx(1.0)
            assert cheb_eval(k, -1.0) == pytest.approx((-1.0) ** k)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            cheb_eval(3, 1.0001)
        for u in (np.nan, np.array([0.0, np.nan])):
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                cheb_eval(1, u)

    def test_basis_matrix_shares_the_domain_rule(self):
        for u in ([1.5], [0.0, -1.0001], np.nan, [[0.5], [2.0]]):
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                cheb_basis_matrix(u, 3)
        np.testing.assert_array_equal(cheb_basis_matrix([1.0, -1.0], 3),
                                      [[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])

    def test_eval_and_basis_matrix_are_cos_k_arccos(self):
        u = np.concatenate([np.linspace(-1.0, 1.0, 101), QuadratureRule(16).nodes])
        basis = cheb_basis_matrix(u, 40)
        for k in range(40):
            exact = np.cos(k * np.arccos(u))
            assert basis[:, k].tobytes() == exact.tobytes()
            assert cheb_eval(k, u).tobytes() == exact.tobytes()
            assert cheb_eval(k, u[7]) == exact[7]
        np.testing.assert_array_equal(cheb_eval(3, u.reshape(2, -1)),
                                      basis[:, 3].reshape(2, -1))
        with pytest.raises(ValueError, match="nonnegative"):
            cheb_eval(-1, 0.5)

    @pytest.mark.parametrize("degree", [0, 1, 2, 7, 64, 999, 4096])
    def test_eval_is_the_basis_column(self, degree):
        rng = np.random.default_rng(0)
        u = np.concatenate([rng.uniform(-1.0, 1.0, 5000), [1.0, -1.0, 0.0, -0.0]])
        # the basis column in chunks of 256 points, 8 MB at degree 4096
        column = np.concatenate([cheb_basis_matrix(u[i:i + 256], degree + 1)[:, degree]
                                 for i in range(0, len(u), 256)])
        got = cheb_eval(degree, u)
        assert np.array_equal(got, column)
        assert got.tobytes() == column.tobytes()  # signs of zero too

    def test_eval_builds_one_column(self):
        # the whole basis would be 5000 x 1000 doubles, 40 MB
        u = np.linspace(-1.0, 1.0, 5000)
        tracemalloc.start()
        try:
            cheb_eval(999, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_three_term_recurrence(self):
        u = np.linspace(-1, 1, 100)
        for k in range(1, 50):
            lhs = cheb_eval(k + 1, u)
            rhs = 2 * u * cheb_eval(k, u) - cheb_eval(k - 1, u)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_product_identity(self):
        u = np.linspace(-1, 1, 97)
        for p in range(0, 8):
            for q in range(0, 8):
                lhs = cheb_eval(p, u) * cheb_eval(q, u)
                rhs = 0.5 * (cheb_eval(p + q, u) + cheb_eval(abs(p - q), u))
                np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestQuadrature:
    @pytest.mark.parametrize("p", [0, -3])
    def test_needs_at_least_one_panel(self, p):
        with pytest.raises(ValueError, match="need at least one panel"):
            QuadratureRule(p)

    def test_nodes_decreasing_from_one(self):
        rule = QuadratureRule(10)
        assert rule.nodes[0] == 1.0 and rule.nodes[-1] == -1.0
        assert np.all(np.diff(rule.nodes) < 0)
        assert len(rule.nodes) == 11

    def test_constant_integrates_to_pi(self):
        for p in (1, 2, 5, 40):
            assert quad_integrate(QuadratureRule(p), lambda u: np.ones_like(u)) \
                == pytest.approx(np.pi)

    def test_odd_integrand_vanishes(self):
        for p in (2, 7, 16):
            assert quad_integrate(QuadratureRule(p), lambda u: u) == pytest.approx(0.0, abs=1e-14)

    def test_degree_two_orthogonality(self):
        for p in (3, 10, 33):
            val = quad_integrate(QuadratureRule(p), lambda u: cheb_eval(2, u))
            assert abs(val) < 1e-12

    def test_chebyshev_moments_exact_to_degree_2p_minus_1(self):
        # analytic moments: int c_k / sqrt(1-u^2) = pi for k = 0, else 0
        for p in (4, 10):
            rule = QuadratureRule(p)
            for k in range(2 * p):
                val = quad_integrate(rule, lambda u, k=k: cheb_eval(k, u))
                expected = np.pi if k == 0 else 0.0
                assert abs(val - expected) < 1e-12, f"degree {k} at p={p}"

    def test_aliasing_at_degree_2p(self):
        # the first unresolvable degree folds onto the constant
        p = 6
        val = quad_integrate(QuadratureRule(p), lambda u: cheb_eval(2 * p, u))
        assert val == pytest.approx(np.pi)


class TestProjection:
    def test_constant_hits_first_coefficient_only(self):
        c = project_signal(lambda u: np.ones_like(u), 10, 5).coeffs
        assert c[0] == pytest.approx(1.0)
        assert np.all(np.abs(c[1:]) < 1e-12)

    def test_linear_hits_second_coefficient_only(self):
        c = project_signal(lambda u: u, 10, 5).coeffs
        assert c[1] == pytest.approx(1.0)
        assert abs(c[0]) < 1e-12 and np.all(np.abs(c[2:]) < 1e-12)

    def test_degree_two_roundtrip(self):
        f = lambda u: cheb_eval(2, u)
        c = project_signal(f, 10, 5).coeffs
        assert c[2] == pytest.approx(1.0)
        mask = np.ones(5, dtype=bool)
        mask[2] = False
        assert np.all(np.abs(c[mask]) < 1e-12)
        u = np.linspace(-1, 1, 100)
        out = resample(ChebCoeffVector(c), 100)
        np.testing.assert_allclose(out, 2 * u ** 2 - 1, atol=1e-10)

    def test_polynomial_roundtrip(self):
        f = lambda u: 3 * u ** 2 - 1
        c = project_signal(f, 16, 5)
        out = resample(c, 100)
        u = np.linspace(-1, 1, 100)
        assert np.abs(out - f(u)).max() < 1e-10

    def test_roundtrip_identity_below_basis_size(self):
        rng = np.random.default_rng(7)
        for n in (3, 6, 11):
            p = 2 * n
            coefs = rng.standard_normal(n)
            def poly(u, coefs=coefs):
                return sum(a * cheb_eval(k, u) for k, a in enumerate(coefs))
            back = project_signal(poly, p, n).coeffs
            np.testing.assert_allclose(back, coefs, atol=1e-10)

    def test_aliasing_guard(self):
        with pytest.raises(ValueError):
            project_signal(lambda u: u, 4, 6)


class TestCoeffVector:
    def test_length_is_the_coefficient_count(self):
        assert len(ChebCoeffVector(np.zeros(6))) == 6
        assert len(project_signal(lambda u: u, 10, 5)) == 5


class TestResample:
    def test_constant_series(self):
        out = resample(ChebCoeffVector(np.array([1.0, 0.0, 0.0])), 10)
        np.testing.assert_allclose(out, np.ones(10))

    def test_zero_series(self):
        out = resample(ChebCoeffVector(np.zeros(4)), 7)
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_endpoints_included(self):
        out = resample(ChebCoeffVector(np.array([0.0, 1.0])), 5)
        np.testing.assert_allclose(out, np.linspace(-1, 1, 5), atol=1e-15)

    def test_point_count_guard(self):
        with pytest.raises(ValueError):
            resample(ChebCoeffVector(np.ones(3)), 1)


class TestDomainMap:
    def test_endpoints_and_middle(self):
        assert map_domain_inverse(-1.0) == 0.0
        assert map_domain_inverse(1.0) == 1.0
        assert map_domain_inverse(0.0) == 0.5

    def test_composition_is_identity(self):
        x = np.linspace(0, 1, 33)
        np.testing.assert_allclose(map_domain_inverse(2.0 * x - 1.0), x)

    def test_range_guards(self):
        with pytest.raises(ValueError):
            map_domain_inverse(-1.5)
        with pytest.raises(ValueError):
            map_domain_inverse(1.5)
        for u in (np.nan, np.array([0.0, np.nan])):
            with pytest.raises(ValueError, match=r"\[-1, 1\]"):
                map_domain_inverse(u)


def fresh_projection(f, p, n):
    """project_signal's expression on a new rule and a new basis."""
    rule = QuadratureRule(p)
    raw = cheb_basis_matrix(rule.nodes, n).T @ (rule.weights * f(rule.nodes))
    return raw / coefficient_normalizers(n)


class TestProjectorCache:
    """The rule and the basis at its nodes are cached for the last (p, n)."""

    def test_alternating_sizes_give_the_fresh_bits(self):
        f = lambda u: np.exp(u) * np.sin(3.0 * u)
        visits = ((10, 5), (1000, 100), (10, 5), (1000, 100), (1000, 50), (10, 5))
        _projector.cache_clear()
        for visit, (p, n) in enumerate(visits, start=1):
            got = project_signal(f, p, n).coeffs
            assert got.tobytes() == fresh_projection(f, p, n).tobytes()
            info = _projector.cache_info()
            assert (info.misses, info.currsize) == (visit, 1)
        project_signal(f, 10, 5)
        assert _projector.cache_info().hits == 1

    def test_cached_arrays_are_read_only(self):
        rule, basis = _projector(10, 5)
        for arr in (rule.nodes, rule.weights, basis):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5

    def test_holds_the_rule_and_one_basis(self):
        # (p+1)(n+2) doubles: the nodes, the weights and the (p+1) x n basis
        _projector.cache_clear()
        tracemalloc.start()
        try:
            rule, basis = _projector(1000, 100)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = rule.nodes.nbytes + rule.weights.nbytes + basis.nbytes
        assert size == 1001 * 102 * 8  # 0.8 MB
        assert size <= held < size + 2 ** 14

    def test_warm_projection_builds_no_basis(self):
        # the basis alone is 1001 x 100 doubles, 0.8 MB
        f = lambda u: u
        project_signal(f, 1000, 100)
        tracemalloc.start()
        try:
            project_signal(f, 1000, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_refused_sizes_leave_the_entry(self):
        project_signal(lambda u: u, 10, 5)
        with pytest.raises(ValueError, match="aliasing"):
            project_signal(lambda u: u, 4, 6)
        assert _projector.cache_info().currsize == 1
        assert _projector(10, 5)[1].shape == (11, 5)


class TestResamplerCache:
    """The uniform-point basis is cached for the last (t_points, n)."""

    def test_alternating_sizes_give_the_fresh_bits(self):
        rng = np.random.default_rng(3)
        series = {n: rng.standard_normal(n) for n in (5, 50, 100)}
        visits = ((50, 5), (200, 100), (50, 5), (200, 100), (200, 50), (51, 50))
        _resampler.cache_clear()
        for visit, (t, n) in enumerate(visits, start=1):
            got = resample(ChebCoeffVector(series[n]), t)
            fresh = cheb_basis_matrix(np.linspace(-1.0, 1.0, t), n) @ series[n]
            assert got.tobytes() == fresh.tobytes()
            info = _resampler.cache_info()
            assert (info.misses, info.currsize) == (visit, 1)

    def test_cached_basis_is_read_only(self):
        basis = _resampler(7, 3)
        assert basis.shape == (7, 3)
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 0.5

    def test_warm_resample_builds_no_basis(self):
        # the basis is 2000 x 100 doubles, 1.6 MB
        g = np.ones(100)
        resample(g, 2000)
        tracemalloc.start()
        try:
            resample(g, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16
