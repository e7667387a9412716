import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from graphonsp import galerkin
from graphonsp.chebyshev import (QuadratureRule, cheb_basis_matrix,
                                 coefficient_normalizers, map_domain_inverse)
from graphonsp.cli import parse_graphon_spec
from graphonsp.filtering import (FilterCoeffs, IdealResponse, fg_filter_operator,
                                 filter_pipeline)
from graphonsp.galerkin import (OperatorMatrix, _factors, _galerkin,
                                _weight_correction, build_fg_shift, compute_tilde_w,
                                fredholm_solve, operator_to_csv, resolvent_eigs)
from graphonsp.kernels import (empirical_graphon, erdos_renyi, exp_distance,
                               exp_sum, grid_graphon, sin_product)
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

    @pytest.mark.parametrize("pad", [0, -1])
    def test_padded_size_must_be_positive(self, pad):
        with pytest.raises(ValueError, match="padded size must be positive"):
            compute_tilde_w(exp_sum(0.5), 10, pad)

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

    def test_holds_two_full_size_arrays(self):
        # K and the weighted basis, 8 MB each at p=1000; a third would pass 24 MB
        w = exp_sum(0.5)
        tracemalloc.start()
        try:
            build_fg_shift(w, 1000, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20


def dense_oracle_column(kernel, n, j):
    """Column j of the shift operator by an independent rule: V[i,j] =
    int int W((u+1)/2,(v+1)/2) c_{i-1}(u) w(u) c_{j-1}(v) dv du, by dense
    theta-trapezoid (u, weighted) x Gauss-Legendre (v, plain), normalized as
    the shift operator is."""
    theta = (np.arange(4000) + 0.5) * np.pi / 4000
    u = np.cos(theta)
    v, wv = np.polynomial.legendre.leggauss(200)
    inner = kernel.eval((u[:, None] + 1) / 2, (v[None, :] + 1) / 2) \
        @ (wv * np.cos(j * np.arccos(v)))                       # dv integral
    gammas = np.array([np.pi] + [np.pi / 2] * (n - 1))
    outer = np.array([np.mean(inner * np.cos(i * theta)) * np.pi   # w(u) du
                      for i in range(n)])
    return outer / (2 * gammas)


# (kernel, p, n): every column j < n of each is checked against the oracle
ORACLE_CASES = [(exp_sum(0.5), 16, 5), (sin_product(0.5, 0.5, 3.5), 32, 8)]


def oracle_columns(even):
    """(kernel, p, n, j) over the oracle cases: the even columns j >= 2, or
    column 0 and the odd columns."""
    return [pytest.param(w, p, n, j, id=f"{w.label}-p{p}-n{n}-col{j}")
            for w, p, n in ORACLE_CASES for j in range(n)
            if (j >= 2 and j % 2 == 0) == even]


class TestAgainstDenseQuadratureOracle:
    @pytest.mark.parametrize("kernel, p, n, j", oracle_columns(even=False))
    def test_low_degree_columns_match_galerkin_integrals(self, kernel, p, n, j):
        # column 0 and every odd column agree with the oracle at every p
        op = build_fg_shift(kernel, p, n)
        assert np.abs(op.entries[:, j] - dense_oracle_column(kernel, n, j)).max() < 1e-9

    @pytest.mark.parametrize("kernel, p, n, j", oracle_columns(even=True))
    @pytest.mark.xfail(strict=True, reason=(
        "the weight correction's [k > 0] reflection rule drops the terms that "
        "land on raw degree 0, so every even column d >= 2 misses the oracle "
        "by 0.017-0.21 at every p (ROADMAP item 1)"))
    def test_even_columns_miss_by_the_reflection_rule(self, kernel, p, n, j):
        op = build_fg_shift(kernel, p, n)
        assert np.abs(op.entries[:, j] - dense_oracle_column(kernel, n, j)).max() < 1e-9


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


BUILT_INS = [erdos_renyi(0.5), sin_product(0.5, 0.5, 3.5), exp_sum(0.5),
             exp_distance(10)]
# a boolean grid, looked up cell by cell
EMPIRICAL = empirical_graphon(sample_graph(sin_product(0.5, 0.5, 3.5), 300, seed=7))


def kernel_and_basis(w, p):
    """K at the p-panel rule's nodes mapped to [0,1], and the weighted basis
    B[m, i] = weight_m * c_i(node_m) of degrees 0..p, built in the test:
    a fresh basis and one full-grid evaluation of W, with no cache and no
    row blocks."""
    rule = QuadratureRule(p)
    x = map_domain_inverse(rule.nodes)
    return (w.eval(x[:, None], x[None, :]),
            rule.weights[:, None] * cheb_basis_matrix(rule.nodes, p + 1))


def reference_shift(w, p, n):
    k, b = kernel_and_basis(w, p)
    corrected = b[:, :n].T @ k @ (b @ _weight_correction(p, n))
    return corrected / (2.0 * coefficient_normalizers(n))[:, None]


class TestOneGalerkinProduct:
    """Both builders are one product B[:, :rows]^T K (B @ right), bit for bit.

    From p=256 on, (p+1)^2 passes 2^16 entries and K is built in row blocks.
    """

    @pytest.mark.parametrize("p, pad", [(10, 5), (10, 11), (10, 25), (32, 8), (200, 50),
                                        (257, 33), (1000, 100)])
    @pytest.mark.parametrize("kernel", BUILT_INS + [EMPIRICAL], ids=lambda w: w.label)
    def test_tilde_live_block_is_bt_k_b(self, kernel, p, pad):
        k, b = kernel_and_basis(kernel, p)
        live = min(pad, p + 1)
        got = compute_tilde_w(kernel, p, pad).entries
        np.testing.assert_array_equal(got[:live, :live], b[:, :live].T @ k @ b[:, :live])
        assert not got[live:].any() and not got[:, live:].any()

    @pytest.mark.parametrize("p, n", [(10, 5), (32, 8), (200, 50), (257, 30), (1000, 100)])
    @pytest.mark.parametrize("kernel", BUILT_INS + [EMPIRICAL], ids=lambda w: w.label)
    def test_shift_is_corrected_product_row_scaled(self, kernel, p, n):
        np.testing.assert_array_equal(build_fg_shift(kernel, p, n).entries,
                                      reference_shift(kernel, p, n))


class TestBasisCache:
    """The nodes and the two factors drawn from the weighted basis B are
    cached for the last (p, n) alone; B itself, (p+1)^2 entries, is not."""

    def test_each_visit_evicts_the_other_p(self):
        w = exp_distance(10)
        sizes = {10: 5, 1000: 100}
        expected = {p: reference_shift(w, p, n) for p, n in sizes.items()}
        _factors.cache_clear()
        for visit, p in enumerate((10, 1000, 10, 1000), start=1):
            got = build_fg_shift(w, p, sizes[p]).entries
            assert np.array_equal(got, expected[p])
            info = _factors.cache_info()
            assert (info.misses, info.currsize) == (visit, 1)

    def test_cached_arrays_are_read_only(self):
        x, left, _ = _factors(10, 5)
        for arr in (x, left):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5

    @pytest.mark.parametrize("p, n", [(10, 11), (1000, 100)])
    def test_holds_no_full_basis(self, p, n):
        x, left, right = _factors(p, n)
        assert left.shape == right.shape == (p + 1, n)
        # copies, not views of B, so B is freed on return
        assert left.base is None and right.base is None
        assert x.nbytes + left.nbytes + right.nbytes == (p + 1) * (2 * n + 1) * 8

    @pytest.mark.parametrize("sizes", [((10, 5), (300, 30)), ((300, 30), (300, 20))],
                             ids=["p-alternates", "n-alternates"])
    def test_threads_evicting_each_other_give_the_serial_bits(self, sizes):
        # (p, n) alternates from job to job, so concurrent builds keep
        # evicting each other's factors
        jobs = [(w, p, n) for w in BUILT_INS for p, n in sizes] * 3
        expected = [build_fg_shift(w, p, n).entries for w, p, n in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(build_fg_shift, *job) for job in jobs]
                got = [f.result(timeout=60).entries for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    def test_warm_build_holds_k_beside_the_cached_basis(self):
        # K (8 MB at p=1000) and the block-sized temporaries; an unblocked
        # Graphon.eval would add a second 8 MB array.  The second build is
        # of a new graphon object, so that it misses the shift cache and
        # reads only the factors from theirs.
        build_fg_shift(exp_sum(0.5), 1000, 100)
        tracemalloc.start()
        try:
            build_fg_shift(exp_sum(0.5), 1000, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

    def test_cold_build_never_holds_b_beside_k(self):
        # B (8 MB at p=1000) is freed before K is built; holding both would
        # pass 16 MB
        w = exp_sum(0.5)
        _factors.cache_clear()
        tracemalloc.start()
        try:
            build_fg_shift(w, 1000, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


class TestCorrectedBasisCache:
    """The shift's right factor B C shares the one (p, n) entry."""

    def test_each_visit_evicts_the_other_p_or_n(self):
        # the same p with another n must not reuse the factors of the first
        w = exp_sum(0.5)
        visits = ((1000, 100), (1000, 50), (10, 5), (1000, 100))
        expected = {pn: reference_shift(w, *pn) for pn in set(visits)}
        _factors.cache_clear()
        for visit, (p, n) in enumerate(visits, start=1):
            assert np.array_equal(build_fg_shift(w, p, n).entries, expected[p, n])
            info = _factors.cache_info()
            assert (info.misses, info.currsize) == (visit, 1)
        # the raw matrix at the same (p, n) reads the same entry
        compute_tilde_w(w, 1000, 100)
        info = _factors.cache_info()
        assert (info.hits, info.misses) == (1, len(visits))

    def test_cached_right_factor_is_read_only(self):
        right = _factors(10, 5)[2]
        assert right.shape == (11, 5)
        with pytest.raises(ValueError, match="read-only"):
            right[0, 0] = 0.5


@pytest.fixture
def kernel_builds(monkeypatch):
    """The graphons ``_galerkin`` is called on, one entry per call."""
    calls = []
    real = galerkin._galerkin

    def counted(w, *factors):
        calls.append(w)
        return real(w, *factors)

    monkeypatch.setattr(galerkin, "_galerkin", counted)
    return calls


def direct_shift(w, p, n):
    return _galerkin(w, *_factors(p, n)) / (2.0 * coefficient_normalizers(n))[:, None]


class TestShiftCache:
    """The shift operator is cached for the last (graphon object, p, n)."""

    @pytest.mark.parametrize("p, n", [(10, 5), (1000, 100)])
    def test_build_solve_and_pipeline_evaluate_the_kernel_once(self, kernel_builds, p, n):
        w = exp_distance(10)
        op = build_fg_shift(w, p, n)
        fredholm_solve(w, lambda x: x, p, n, 50)
        filter_pipeline(w, lambda x: x, 5, IdealResponse(np.eye(n)[0]), p, n, 50)
        again = build_fg_shift(w, p, n)
        assert kernel_builds == [w]
        assert again is op

    @pytest.mark.parametrize("p, n", [(10, 5), (1000, 100)])
    def test_a_rebuild_is_the_same_object(self, p, n):
        w = sin_product(0.5, 0.5, 3.5)
        assert build_fg_shift(w, p, n) is build_fg_shift(w, p, n)

    def test_another_graphon_object_or_size_rebuilds(self, kernel_builds):
        a, b = parse_graphon_spec("expsum:0.5"), parse_graphon_spec("expsum:0.5")
        for w, p, n in ((a, 10, 5), (a, 10, 5), (b, 10, 5), (b, 12, 5), (b, 12, 6),
                        (b, 10, 5)):
            build_fg_shift(w, p, n)
        assert kernel_builds == [a, b, b, b, b]

    def test_bad_basis_size_raises_before_the_lookup(self, kernel_builds):
        w = erdos_renyi(0.5)
        build_fg_shift(w, 10, 5)
        with pytest.raises(ValueError):
            build_fg_shift(w, 4, 6)
        assert kernel_builds == [w]

    def test_cached_entries_are_read_only(self):
        entries = build_fg_shift(exp_sum(0.5), 10, 5).entries
        with pytest.raises(ValueError, match="read-only"):
            entries[0, 0] = 0.5

    @pytest.mark.parametrize("p, n", [(10, 5), (64, 16), (1000, 100)])
    @pytest.mark.parametrize("kernel", BUILT_INS + [EMPIRICAL], ids=lambda w: w.label)
    def test_entries_are_the_direct_product(self, kernel, p, n):
        got = build_fg_shift(kernel, p, n).entries
        assert np.array_equal(got, direct_shift(kernel, p, n))
        assert np.array_equal(build_fg_shift(kernel, p, n).entries, got)

    def test_threads_alternating_graphons_give_the_serial_bits(self):
        # each job's graphon differs from the one before, so concurrent
        # builds keep evicting each other's shift
        jobs = [(w, 300, 30) for w in BUILT_INS] * 6
        expected = [build_fg_shift(*job).entries for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(build_fg_shift, *job) for job in jobs]
                got = [f.result(timeout=60).entries for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    def test_readme_minimal_session_evaluates_the_kernel_once(self, kernel_builds):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        session = readme.split("A minimal session:\n", 1)[1]
        code = session.split("```python\n", 1)[1].split("```", 1)[0]
        scope = {}
        exec(code, scope)
        assert "fredholm_solve(w" in code and "build_fg_shift(w" in code
        assert kernel_builds == [scope["w"]]


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


    def test_alternating_sizes_give_the_fresh_bits(self):
        # the projection and the resampling read one-entry caches; (p, n)
        # and t alternate from call to call, so each call evicts the last
        w, f = exp_distance(10), lambda x: x * x + np.cos(x)
        for p, n, t in ((10, 5, 50), (1000, 100, 200), (10, 5, 200), (1000, 100, 50),
                        (1000, 50, 200), (10, 5, 50)):
            rule = QuadratureRule(p)
            basis = cheb_basis_matrix(rule.nodes, n)
            raw = basis.T @ (rule.weights * f(map_domain_inverse(rule.nodes)))
            coeffs = raw / coefficient_normalizers(n)
            out = build_fg_shift(w, p, n).entries @ coeffs
            fresh = cheb_basis_matrix(np.linspace(-1.0, 1.0, t), n) @ out
            assert fredholm_solve(w, f, p, n, t).tobytes() == fresh.tobytes()


class TestOperatorMatrix:
    """The entries are checked and stored as a read-only copy, so that
    nothing can change them under the powers ``filtering`` caches for the
    operator."""

    @pytest.mark.parametrize("entries", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2)),
                                         np.zeros((0, 0)), 5.0, [], [[1.0, 2.0]]],
                             ids=["2x3", "vector", "3-d", "0x0", "scalar", "empty-list",
                                  "1x2-list"])
    def test_refuses_all_but_a_nonempty_square_matrix(self, entries):
        with pytest.raises(ValueError, match="operator entries must form a nonempty "
                                             "square matrix"):
            OperatorMatrix(entries=entries)

    def test_writable_input_is_copied_not_aliased(self):
        entries = np.arange(9.0).reshape(3, 3)
        op = OperatorMatrix(entries=entries)
        assert op.entries is not entries and not np.shares_memory(op.entries, entries)
        entries[0, 0] = 100.0
        assert op.entries[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            op.entries[0, 0] = 1.0

    def test_read_only_view_of_writable_data_is_copied(self):
        base = np.eye(4)
        view = base[:3, :3]
        view.flags.writeable = False
        op = OperatorMatrix(entries=view)
        base[0, 0] = 7.0
        assert op.entries[0, 0] == 1.0 and op.entries.base is None

    @pytest.mark.parametrize("entries", [[[1, 2], [3, 4]], np.array([[1, 2], [3, 4]]),
                                         np.array([[1, 2], [3, 4]], dtype=np.float32)],
                             ids=["list", "int64", "float32"])
    def test_other_input_is_stored_as_a_read_only_float_copy(self, entries):
        op = OperatorMatrix(entries=entries)
        assert op.entries.dtype == np.float64 and not op.entries.flags.writeable
        assert np.array_equal(op.entries, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("source", ["read-only", "operator"])
    def test_every_input_is_copied_never_aliased(self, source):
        # a read-only float64 array owning its data, and another operator's
        # entries, are copied like any other input
        if source == "operator":
            entries = build_fg_shift(exp_sum(0.5), 10, 5).entries
        else:
            entries = np.eye(3)
            entries.flags.writeable = False
        got = OperatorMatrix(entries=entries).entries
        assert got is not entries and not np.shares_memory(got, entries)
        assert got.tobytes() == entries.tobytes() and not got.flags.writeable

    @pytest.mark.parametrize("entries", [np.array([[1 + 2j]]), [[1 + 2j]],
                                         np.array([[1 + 0j, 0.0], [0.0, 1.0]]),
                                         [[1.0, 0.0], [0.0, 1j]]],
                             ids=["array", "list", "zero-imaginary-array", "imaginary-entry-list"])
    def test_complex_input_is_refused(self, entries):
        with pytest.raises(ValueError, match="operator entries must be real"):
            OperatorMatrix(entries=entries)

    def test_non_finite_entries_are_kept(self):
        # the CLI reports them with exit 1, after the operator is built
        entries = np.array([[np.nan, 0.0], [np.inf, 1.0]])
        got = OperatorMatrix(entries=entries).entries
        assert got.tobytes() == entries.tobytes()

    def test_refused_before_any_eigenvalue(self):
        with pytest.raises(ValueError, match="square matrix"):
            resolvent_eigs(OperatorMatrix(np.ones((2, 3))))


class TestResolventEigs:
    def test_er_leading_eigenvalue(self):
        op = build_fg_shift(erdos_renyi(0.5), 10, 5)
        eigs = resolvent_eigs(op)
        assert abs(eigs[0] - 0.5) < 5e-2
        assert np.abs(eigs[1:]).max() < 1e-9

    def test_zero_matrix(self):
        eigs = resolvent_eigs(build_fg_shift(ZERO, 10, 5))
        np.testing.assert_array_equal(eigs, np.zeros(5))

    @pytest.mark.parametrize("p, n", [(10, 5), (64, 16), (1000, 100)])
    def test_rank_one_kernel_has_one_eigenvalue_the_trace(self, p, n):
        # exp_sum is rank 1, and so is its operator: its one nonzero
        # eigenvalue is tr M, with no symmetrised stand-in beside it
        op = build_fg_shift(exp_sum(0.5), p, n)
        eigs = resolvent_eigs(op)
        live = eigs[np.abs(eigs) > 1e-12]
        assert live.shape == (1,)
        assert abs(live[0] - np.trace(op.entries)) < 1e-12

    def test_filter_operator_has_the_mapped_eigenvalues(self):
        # spectral mapping: the eigenvalues of h(M) are h(lambda)
        op = build_fg_shift(sin_product(0.5, 0.5, 3.5), 32, 8)
        h = FilterCoeffs([0.1, 0.5, 0.3, 0.2])
        lam = resolvent_eigs(op)
        mapped = np.polynomial.polynomial.polyval(lam, h.h)
        got = np.linalg.eigvals(fg_filter_operator(op, h))
        np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(mapped),
                                   rtol=0, atol=1e-12)

    def test_scaled_adjacency_route(self):
        # classical spectral convergence: the leading eigenvalue of S for
        # an ER(p) sample approaches p
        g = sample_graph(erdos_renyi(0.5), 2000, seed=17)
        s = scaled_adjacency(g)
        radius = power_iteration_radius(s.adjacency / s.n, iters=100)
        assert abs(radius - 0.5) < 0.05


class TestOperatorCsv:
    def test_roundtrip(self, tmp_path):
        op = build_fg_shift(exp_sum(0.5), 10, 5)
        path = tmp_path / "op.csv"
        operator_to_csv(op, path)
        back = np.loadtxt(path, delimiter=",", ndmin=2)
        np.testing.assert_allclose(back, op.entries, atol=1e-15)
