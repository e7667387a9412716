import numpy as np
import pytest

from graphonsp.chebyshev import (ChebCoeffVector, QuadratureRule, cheb_eval,
                                 map_domain_inverse, project_signal,
                                 quad_integrate, resample)


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
