import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonsp import sampling
from graphonsp.cli import dispatch
from graphonsp.kernels import (empirical_graphon, erdos_renyi, exp_distance,
                               exp_sum, grid_graphon, sin_product)
from graphonsp.sampling import (MAX_NODES, Graph, apply_shift,
                                graph_from_edgelist, graph_to_edgelist,
                                sample_graph, scaled_adjacency)


def reference_sample(w, n, seed, sorted_latent=True):
    """The one-shot sampler: all pairs i < j at once through triu_indices."""
    rng = np.random.default_rng(np.uint64(seed))
    latent = rng.random(n)
    if sorted_latent:
        latent = np.sort(latent)
    adj = np.zeros((n, n), dtype=bool)
    if n > 1:
        iu, ju = np.triu_indices(n, k=1)
        probs = w.eval(latent[iu], latent[ju])
        draws = rng.random(iu.size)
        adj[iu, ju] = draws < probs
        adj |= adj.T
    return adj, latent


def reference_block_sample(w, n, seed, sorted_latent=True):
    """The dense sampler that packed rows replaced: one boolean N x N array,
    written a row block of ~2**16 pairs at a time with its mirror image."""
    rng = np.random.default_rng(np.uint64(seed))
    latent = rng.random(n)
    if sorted_latent:
        latent = np.sort(latent)
    adj = np.zeros((n, n), dtype=bool)
    r0 = 0
    while r0 < n - 1:
        width = n - 1 - r0
        r1 = min(n - 1, r0 + max(1, 2 ** 16 // width))
        probs = w.eval(latent[r0:r1, None], latent[None, r0 + 1:])
        upper = np.arange(width) >= np.arange(r1 - r0)[:, None]
        draws = np.full(probs.shape, np.inf)
        draws[upper] = rng.random(np.count_nonzero(upper))
        edges = draws < probs
        adj[r0:r1, r0 + 1:] = edges
        adj[r0 + 1:, r0:r1] |= edges.T
        r0 = r1
    return adj, latent


def reference_edgelist(adj) -> str:
    """The per-edge writer: 'n <N>' then one 'i j' line per edge, i < j."""
    n = adj.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    mask = adj[iu, ju]
    lines = [f"n {n}\n"]
    for i, j in zip(iu[mask], ju[mask]):
        lines.append(f"{i} {j}\n")
    return "".join(lines)


def _pin_grid():
    rng = np.random.default_rng(5)
    cells = rng.random((7, 7))
    return grid_graphon((cells + cells.T) / 2, label="grid7")


PIN_KERNELS = {
    "er": erdos_renyi(0.3),
    "expsum": exp_sum(2.0),
    "sinprod": sin_product(0.5, 0.5, 3.5),
    "expdist": exp_distance(10.0),
    "grid": _pin_grid(),
    "empirical": empirical_graphon(Graph(
        adjacency=np.array([[0, 1, 1, 0, 0], [1, 0, 0, 1, 0],
                            [1, 0, 0, 1, 1], [0, 1, 1, 0, 0],
                            [0, 0, 1, 0, 0]], dtype=bool))),
}

# 257 is the largest N whose pairs fit one row block of 2**16 pairs, 258 the
# smallest that needs two; 1600 is the convergence study's largest N.
PIN_SIZES = (1, 2, 3, 17, 257, 258, 1600)


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


class TestSampleGraph:
    def test_p_one_gives_complete_graph(self):
        g = sample_graph(erdos_renyi(1.0), 4, seed=11)
        expected = ~np.eye(4, dtype=bool)
        np.testing.assert_array_equal(g.adjacency, expected)

    def test_p_zero_gives_empty_graph(self):
        g = sample_graph(erdos_renyi(0.0), 4, seed=11)
        assert g.edge_count() == 0

    def test_edge_density_matches_binomial_error(self):
        n = 2000
        g = sample_graph(erdos_renyi(0.5), n, seed=7)
        pairs = n * (n - 1) / 2
        density = g.edge_count() / pairs
        assert abs(density - 0.5) < 3 * np.sqrt(0.25 / pairs)

    def test_determinism(self):
        a = sample_graph(exp_sum(0.5), 60, seed=123)
        b = sample_graph(exp_sum(0.5), 60, seed=123)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        np.testing.assert_array_equal(a.latent, b.latent)

    def test_sorted_latent_default(self):
        g = sample_graph(exp_sum(0.5), 50, seed=3)
        assert np.all(np.diff(g.latent) >= 0)
        g2 = sample_graph(exp_sum(0.5), 50, seed=3, sorted_latent=False)
        assert not np.all(np.diff(g2.latent) >= 0)

    def test_no_self_loops_and_symmetry(self):
        g = sample_graph(erdos_renyi(0.8), 40, seed=5)
        assert not g.adjacency.diagonal().any()
        np.testing.assert_array_equal(g.adjacency, g.adjacency.T)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            sample_graph(erdos_renyi(0.5), 0, seed=0)
        with pytest.raises(ValueError):
            sample_graph(erdos_renyi(0.5), MAX_NODES + 1, seed=0)

    def test_seed_outside_uint64_rejected(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed"):
                sample_graph(erdos_renyi(0.5), 10, seed=seed)

    def test_largest_seed_accepted(self):
        g = sample_graph(erdos_renyi(0.5), 10, seed=2 ** 64 - 1)
        assert g.n == 10

    def test_single_node(self):
        g = sample_graph(erdos_renyi(0.5), 1, seed=0)
        assert g.n == 1 and g.edge_count() == 0


class TestBitIdentity:
    """sample_graph and graph_to_edgelist against the one-shot references."""

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("sorted_latent", [True, False])
    @pytest.mark.parametrize("n", PIN_SIZES)
    @pytest.mark.parametrize("kind", sorted(PIN_KERNELS))
    def test_matches_one_shot_sampler(self, kind, n, sorted_latent, seed):
        w = PIN_KERNELS[kind]
        g = sample_graph(w, n, seed, sorted_latent=sorted_latent)
        adj, latent = reference_sample(w, n, seed, sorted_latent)
        assert np.array_equal(g.adjacency, adj)
        assert np.array_equal(g.latent, latent)

    @pytest.mark.parametrize("block", [1, 5, 16, 100])
    def test_any_block_size_gives_the_same_graph(self, monkeypatch, block):
        monkeypatch.setattr(sampling, "_BLOCK_VALUES", block)
        w = PIN_KERNELS["sinprod"]
        for n in (2, 3, 11, 17, 40):
            for sorted_latent in (True, False):
                g = sample_graph(w, n, 9, sorted_latent=sorted_latent)
                adj, _ = reference_sample(w, n, 9, sorted_latent)
                assert np.array_equal(g.adjacency, adj)

    def test_cli_sample_matches_reference_bytes(self, tmp_path):
        out = tmp_path / "g.edges"
        code = dispatch(["sample", "--graphon", "sinprod:0.5,0.5,3.5",
                         "--n", "500", "--seed", "7", "--out", str(out)])
        assert code == 0
        adj, _ = reference_sample(sin_product(0.5, 0.5, 3.5), 500, 7)
        assert out.read_bytes() == reference_edgelist(adj).encode()


class TestGraph:
    def test_holds_its_adjacency_and_latent_only(self):
        # the adjacency is held as packed rows; each read unpacks a fresh copy
        g = sample_graph(exp_sum(0.5), 7, seed=2)
        assert [f.name for f in dataclasses.fields(g)] == ["packed", "latent"]
        assert g.packed.dtype == np.uint8 and g.packed.shape == (7, 1)
        assert type(g.n) is int and g.n == g.adjacency.shape[0] == 7
        assert g.adjacency is not g.adjacency and not g.adjacency.flags.writeable

    @pytest.mark.parametrize("adjacency", [
        np.zeros((0, 0), dtype=bool),
        [[False, True], [True, False]],
        np.array([[0, 1], [1, 0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.zeros((3, 4), dtype=bool),
        np.zeros(3, dtype=bool),
        np.zeros((2, 2, 2), dtype=bool),
    ], ids=["empty", "list", "int", "float", "3x4", "1d", "3d"])
    def test_rejects_anything_but_a_nonempty_square_boolean_array(self, adjacency):
        with pytest.raises(ValueError, match="nonempty square boolean adjacency"):
            Graph(adjacency=adjacency)

    @pytest.mark.parametrize("latent, message", [
        ([0.1, 0.2], "expected 3 latent values"),
        ([0.1, 0.2, 0.3, 0.4], "expected 3 latent values"),
        ([[0.1, 0.2, 0.3]], "expected 3 latent values"),
        (0.5, "expected 3 latent values"),
        ([0.1, np.nan, 0.3], "finite"),
        ([0.1, np.inf, 0.3], "finite"),
        ([0.1, 1.5, 0.3], r"lie in \[0, 1\]"),
        ([-0.1, 0.2, 0.3], r"lie in \[0, 1\]"),
    ], ids=["short", "long", "2d", "scalar", "nan", "inf", "above", "below"])
    def test_rejects_a_latent_that_is_not_n_positions_in_the_unit_interval(
            self, latent, message):
        with pytest.raises(ValueError, match=message):
            Graph(adjacency=~np.eye(3, dtype=bool), latent=latent)

    def test_keeps_a_read_only_float_copy_of_the_latent(self):
        latent = np.array([0.25, 0.5, 0.75])
        g = Graph(adjacency=~np.eye(3, dtype=bool), latent=latent)
        assert not g.latent.flags.writeable and not np.shares_memory(g.latent, latent)
        latent[0] = 0.0
        assert g.latent.tolist() == [0.25, 0.5, 0.75]
        g = Graph(adjacency=~np.eye(2, dtype=bool), latent=[0, 1])
        assert g.latent.dtype == float and g.latent.tolist() == [0.0, 1.0]
        assert Graph(adjacency=~np.eye(2, dtype=bool)).latent is None

    def test_sampler_and_reader_skip_the_symmetry_check(self, monkeypatch, tmp_path):
        # both build the adjacency symmetric and loop-free, so neither pays
        # the O(N^2) check again; the graphs keep their bits
        w = sin_product(0.5, 0.5, 3.5)
        expected = sample_graph(w, 300, seed=5)
        path = tmp_path / "g.edges"
        graph_to_edgelist(expected, path)

        def refuse(adjacency):
            raise AssertionError("Graph checked again")

        monkeypatch.setattr(sampling, "_check_simple", refuse)
        sampled = sample_graph(w, 300, seed=5)
        for g in (sampled, graph_from_edgelist(path)):
            assert type(g) is Graph and np.array_equal(g.adjacency, expected.adjacency)
            assert not g.adjacency.flags.writeable
        assert np.array_equal(sampled.latent, expected.latent)


# around each byte boundary, around the one-block limit of 257 nodes, and
# 2001, whose last shift block has one row
PACK_SIZES = (1, 2, 7, 8, 9, 15, 16, 17, 255, 256, 257, 2001)


def stored_bytes(g):
    return sum(v.nbytes for v in vars(g).values() if isinstance(v, np.ndarray))


def traced_peak(f):
    """f() and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def graph_at_the_cap():
    """An er:0.5 graph at MAX_NODES and the memory traced while sampling it."""
    return traced_peak(lambda: sample_graph(erdos_renyi(0.5), MAX_NODES, seed=3))


class TestPackedStorage:
    """A graph is held as packed rows, one bit per node pair."""

    @pytest.mark.parametrize("sorted_latent", [True, False])
    @pytest.mark.parametrize("n", PACK_SIZES)
    @pytest.mark.parametrize("kind", sorted(PIN_KERNELS))
    def test_matches_the_dense_block_sampler(self, kind, n, sorted_latent):
        w = PIN_KERNELS[kind]
        g = sample_graph(w, n, seed=n + 5, sorted_latent=sorted_latent)
        adj, latent = reference_block_sample(w, n, n + 5, sorted_latent)
        assert np.array_equal(g.adjacency, adj)
        assert g.latent.tobytes() == latent.tobytes()
        assert np.array_equal(g.packed, np.packbits(adj, axis=1))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 100, 2001])
    def test_stored_arrays_are_the_packed_rows_and_latent(self, n, tmp_path):
        bound = n * ((n + 7) // 8) + 8 * n
        g = sample_graph(sin_product(0.5, 0.5, 3.5), n, seed=n)
        path = tmp_path / "g.edges"
        graph_to_edgelist(g, path)
        for h in (g, graph_from_edgelist(path), Graph(adjacency=g.adjacency)):
            assert stored_bytes(h) <= bound
            assert h.packed.shape == (n, (n + 7) // 8) and not h.packed.flags.writeable

    def test_sampling_peak_at_4096_nodes(self):
        # the dense array alone took 16.8 MB here, and sampling peaked at 18.4 MB
        g, peak = traced_peak(lambda: sample_graph(erdos_renyi(0.5), 4096, seed=1))
        assert peak <= 6e6 and stored_bytes(g) <= 4096 * 512 + 8 * 4096

    def test_sampling_peak_at_the_node_cap(self, graph_at_the_cap):
        # 32 MB of packed rows; a boolean matrix alone would take 268 MB
        g, peak = graph_at_the_cap
        assert MAX_NODES == 16384 and g.n == MAX_NODES
        assert peak <= 48e6

    def test_shift_at_the_node_cap_equals_the_dense_block_loop(self, graph_at_the_cap):
        # 64 random rows, each from its own row block of S divided into a fresh array
        g, _ = graph_at_the_cap
        n = g.n
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n)
        got = apply_shift(g, x)
        rows = max(8, sampling._SHIFT_BLOCK_ENTRIES // (8 * n) * 8)
        for i in rng.choice(n, size=64, replace=False):
            r0 = i // rows * rows
            block = np.unpackbits(g.packed[r0:r0 + rows], axis=1, count=n).astype(bool)
            want = np.matmul(np.divide(block, n, dtype=float), x)[i - r0]
            assert got[i] == want

    def test_adjacency_is_a_fresh_read_only_copy(self):
        g = sample_graph(exp_sum(0.5), 9, seed=1)
        a, b = g.adjacency, g.adjacency
        assert a is not b and not np.shares_memory(a, b)
        assert a.dtype == bool and not a.flags.writeable and np.array_equal(a, b)

    def test_edge_count_counts_bits_without_bitwise_count(self, monkeypatch):
        # np.bitwise_count needs numpy >= 2.0; the CI matrix holds numpy 1.25
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for n in (1, 2, 9, 300):
            g = sample_graph(sin_product(0.5, 0.5, 3.5), n, seed=n)
            assert g.edge_count() == int(g.adjacency.sum()) // 2
        assert sample_graph(erdos_renyi(1.0), 257, seed=0).edge_count() == 257 * 128

    def test_edge_list_at_the_node_cap_is_read_and_written_from_bits(self, tmp_path,
                                                                     monkeypatch):
        # n 16384 is read into packed rows and written back one row at a time;
        # neither reads the adjacency, which would unpack 268 MB
        monkeypatch.setattr(Graph, "adjacency",
                            property(lambda g: pytest.fail("adjacency unpacked")))
        text = f"n {MAX_NODES}\n0 {MAX_NODES - 1}\n5 9\n8 16\n"
        path, out = tmp_path / "big.edges", tmp_path / "back.edges"
        path.write_text(text)
        g, peak = traced_peak(lambda: graph_from_edgelist(path))
        assert g.n == MAX_NODES and g.edge_count() == 3
        assert peak <= 1.1 * MAX_NODES * MAX_NODES / 8
        bit = lambda i, j: g.packed[i, j // 8] >> (7 - j % 8) & 1
        for i, j in ((0, MAX_NODES - 1), (5, 9), (8, 16)):
            assert bit(i, j) == bit(j, i) == 1
        assert bit(0, 1) == bit(9, 8) == 0
        graph_to_edgelist(g, out)
        assert out.read_text() == text


def shift_entries(g):
    """The entries of S as the shift applies them: column j is S e_j."""
    return np.column_stack([apply_shift(g, e) for e in np.eye(g.n)])


class TestScaledAdjacency:
    def test_complete_graph_entries(self):
        g = sample_graph(erdos_renyi(1.0), 4, seed=0)
        s = shift_entries(scaled_adjacency(g))
        assert s[0, 1] == 0.25
        assert np.all(s.diagonal() == 0.0)

    def test_empty_graph(self):
        g = sample_graph(erdos_renyi(0.0), 3, seed=0)
        np.testing.assert_array_equal(shift_entries(scaled_adjacency(g)),
                                      np.zeros((3, 3)))

    def test_single_edge(self):
        g = sample_graph(erdos_renyi(1.0), 2, seed=0)
        np.testing.assert_array_equal(shift_entries(scaled_adjacency(g)),
                                      np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_entries_equal_a_over_n_and_no_float_matrix_kept(self):
        g = sample_graph(exp_sum(0.5), 60, seed=8)
        s = scaled_adjacency(g)
        assert [f.name for f in dataclasses.fields(s)] == ["packed", "latent"]
        assert s.packed is g.packed and type(s.n) is int and s.n == 60
        # the latent positions are a float vector; no float matrix is kept,
        # nor is one built on request
        assert not any(isinstance(v, np.ndarray) and v.ndim == 2 and v.dtype.kind == "f"
                       for v in vars(s).values())
        assert not hasattr(s, "entries")
        assert np.array_equal(shift_entries(s), g.adjacency / 60)

    def test_a_graph_is_its_own_shift(self):
        g = sample_graph(exp_sum(0.5), 30, seed=2)
        assert scaled_adjacency(g) is g
        dense = g.adjacency / g.n
        x = np.arange(30.0)
        np.testing.assert_allclose(apply_shift(g, x), dense @ x, atol=1e-14)

    def test_spectral_radius_below_one(self):
        for n in (50, 200, 500):
            g = sample_graph(exp_sum(0.5), n, seed=n)
            s = scaled_adjacency(g)
            radius = power_iteration_radius(s.adjacency / s.n)
            max_degree = g.adjacency.sum(axis=0).max()
            assert radius <= max_degree / n + 1e-9
            assert radius < 1.0


class TestApplyShift:
    def test_an_asymmetric_adjacency_never_reaches_it(self):
        adj = np.triu(np.ones((4, 4), dtype=bool), 1)
        with pytest.raises(ValueError, match="symmetric adjacency with zero diagonal"):
            apply_shift(Graph(adjacency=adj), np.ones(4))

    def test_complete_graph_ones_vector(self):
        g = sample_graph(erdos_renyi(1.0), 4, seed=0)
        s = scaled_adjacency(g)
        np.testing.assert_allclose(apply_shift(s, np.ones(4)), 0.75 * np.ones(4))

    def test_zero_vector(self):
        g = sample_graph(erdos_renyi(0.7), 10, seed=1)
        s = scaled_adjacency(g)
        np.testing.assert_array_equal(apply_shift(s, np.zeros(10)), np.zeros(10))

    def test_empty_graph_annihilates(self):
        g = sample_graph(erdos_renyi(0.0), 6, seed=1)
        s = scaled_adjacency(g)
        np.testing.assert_array_equal(apply_shift(s, np.arange(6.0)), np.zeros(6))

    def test_matches_dense_product(self):
        g = sample_graph(exp_sum(0.5), 80, seed=2)
        s = scaled_adjacency(g)
        dense = g.adjacency / g.n
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(80)
            explicit = np.array([dense[i] @ x for i in range(80)])
            np.testing.assert_allclose(apply_shift(s, x), explicit, atol=1e-15)

    def test_dimension_mismatch(self):
        g = sample_graph(erdos_renyi(0.5), 5, seed=0)
        with pytest.raises(ValueError):
            apply_shift(scaled_adjacency(g), np.ones(6))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 100, 707, 2001, 4096])
    def test_equals_the_divide_based_block_loop(self, n):
        # the loop as first written: each row block divided by N into a fresh
        # array; multiplying a boolean block by 1/N gives the same bits
        g = sample_graph(sin_product(0.5, 0.5, 3.5), n, seed=n)
        x = np.random.default_rng(n).standard_normal(n)
        rows = max(8, sampling._SHIFT_BLOCK_ENTRIES // (8 * n) * 8)
        expected = np.empty(n)
        for r0 in range(0, n, rows):
            np.matmul(np.divide(g.adjacency[r0:r0 + rows], n, dtype=float), x,
                      out=expected[r0:r0 + rows])
        assert apply_shift(g, x).tobytes() == expected.tobytes()

    def test_bits_do_not_depend_on_blas_threads(self):
        # sizes where one dense S @ x gives different bits at 1 and 2 threads;
        # the empirical step operator runs the same product on the same grid
        script = (
            "import hashlib, numpy as np\n"
            "from graphonsp.kernels import empirical_graphon, exp_sum\n"
            "from graphonsp.sampling import apply_shift, sample_graph, scaled_adjacency\n"
            "from graphonsp.steps import apply_empirical_operator, lift\n"
            "h = hashlib.sha256()\n"
            "for n in (707, 781, 2001):\n"
            "    g = sample_graph(exp_sum(0.5), n, seed=n)\n"
            "    x = np.random.default_rng(n).standard_normal(n)\n"
            "    h.update(apply_shift(scaled_adjacency(g), x).tobytes())\n"
            "    h.update(apply_empirical_operator(empirical_graphon(g), lift(x)).coeffs.tobytes())\n"
            "print(h.hexdigest())\n")
        src = str(Path(sampling.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1]


class TestEdgelistIO:
    def test_roundtrip(self, tmp_path):
        g = sample_graph(exp_sum(0.5), 30, seed=4)
        path = tmp_path / "g.edges"
        lpath = tmp_path / "latent.csv"
        graph_to_edgelist(g, path, latent_path=lpath)
        back = graph_from_edgelist(path, latent_path=lpath)
        assert back.n == g.n
        np.testing.assert_array_equal(back.adjacency, g.adjacency)
        np.testing.assert_allclose(back.latent, g.latent)
        # read-only, as a sampled graph's
        assert not back.adjacency.flags.writeable and not back.latent.flags.writeable

    def test_latent_path_without_latent_positions_rejected(self, tmp_path):
        g = Graph(adjacency=~np.eye(3, dtype=bool))
        path, lpath = tmp_path / "g.edges", tmp_path / "latent.csv"
        with pytest.raises(ValueError, match="no latent positions"):
            graph_to_edgelist(g, path, latent_path=lpath)
        assert not path.exists() and not lpath.exists()

    @pytest.mark.parametrize("bad", ["edges", "latent"])
    def test_unopenable_file_leaves_no_file_behind(self, tmp_path, bad):
        g = sample_graph(erdos_renyi(0.5), 4, seed=0)
        paths = {"edges": tmp_path / "g.edges", "latent": tmp_path / "latent.csv"}
        paths[bad] = tmp_path / "missing" / paths[bad].name
        with pytest.raises(OSError):
            graph_to_edgelist(g, paths["edges"], latent_path=paths["latent"])
        assert list(tmp_path.iterdir()) == []

    def test_unopenable_latent_file_keeps_an_existing_edge_list(self, tmp_path):
        g = sample_graph(erdos_renyi(0.5), 4, seed=0)
        path = tmp_path / "g.edges"
        path.write_text("kept")
        with pytest.raises(OSError):
            graph_to_edgelist(g, path, latent_path=tmp_path / "missing" / "l.csv")
        assert path.read_text() == "kept"

    def test_latent_path_naming_the_edge_list_is_refused(self, tmp_path):
        g = sample_graph(erdos_renyi(0.5), 5, seed=0)
        path = tmp_path / "same.txt"
        with pytest.raises(ValueError, match="name the same file"):
            graph_to_edgelist(g, path, latent_path=path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True])
    def test_latent_symlink_to_the_edge_list_is_refused(self, tmp_path, existing):
        g = sample_graph(erdos_renyi(0.5), 5, seed=0)
        path, link = tmp_path / "g.edges", tmp_path / "latent.csv"
        if existing:
            path.write_text("kept")
        link.symlink_to(path)
        with pytest.raises(ValueError, match="name the same file"):
            graph_to_edgelist(g, path, latent_path=link)
        # the link is the caller's; its target only if it was there before
        assert sorted(tmp_path.iterdir()) == sorted([link] + [path] * existing)
        assert not existing or path.read_text() == "kept"

    def test_header_format(self, tmp_path):
        g = sample_graph(erdos_renyi(1.0), 3, seed=0)
        path = tmp_path / "g.edges"
        graph_to_edgelist(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n 3"
        assert lines[1:] == ["0 1", "0 2", "1 2"]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 25).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n)
        .map(lambda bits: np.array(bits).reshape(n, n))))
    def test_roundtrip_property(self, tmp_path_factory, bits):
        adj = np.triu(bits, k=1)
        adj = adj | adj.T
        g = Graph(adjacency=adj)
        path = tmp_path_factory.mktemp("edges") / "g.edges"
        graph_to_edgelist(g, path)
        back = graph_from_edgelist(path)
        assert back.n == g.n
        np.testing.assert_array_equal(back.adjacency, g.adjacency)

    @pytest.mark.parametrize("text, message", [
        ("n 3\n0 -1\n", "outside 0..2"),
        ("n 3\n0 3\n", "outside 0..2"),
        ("n 3\n1 1\n", "self-loop"),
        ("n 3\n0 1\n1 0\n", "duplicate edge"),
        ("n 3\n0 1\n0 1\n", "duplicate edge"),
        (f"n {MAX_NODES + 1}\n", f"1..{MAX_NODES}"),
        ("n 100000000\n", f"1..{MAX_NODES}"),
        ("n 0\n", f"1..{MAX_NODES}"),
        ("n 2.5\n", "expected integers"),
        ("m 3\n", "header"),
        ("n 3\n0 1 2\n", "two node indices"),
        ("n 3\n0\n", "two node indices"),
        ("n 3\n0 x\n", "expected integers"),
        ("n 3\n0 1.0\n", "expected integers"),
    ])
    def test_rejects_malformed(self, tmp_path, text, message):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            graph_from_edgelist(path)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 25).flatmap(lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n * n, max_size=n * n)
        .map(lambda bits: np.array(bits).reshape(n, n)),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))))
    def test_roundtrip_with_latent_property(self, tmp_path_factory, graph):
        # every graph with valid latent positions is written as files that
        # read back to it
        bits, latent = graph
        adj = np.triu(bits, k=1)
        g = Graph(adjacency=adj | adj.T, latent=latent)
        folder = tmp_path_factory.mktemp("edges")
        graph_to_edgelist(g, folder / "g.edges", latent_path=folder / "latent.csv")
        back = graph_from_edgelist(folder / "g.edges", latent_path=folder / "latent.csv")
        assert np.array_equal(back.packed, g.packed)
        assert back.latent.tobytes() == g.latent.tobytes()

    @pytest.mark.parametrize("latent", ["", "# no values\n\n   \n"],
                             ids=["empty", "comments"])
    def test_latent_file_without_values_raises_only_a_value_error(self, tmp_path,
                                                                  latent):
        path, lpath = tmp_path / "g.edges", tmp_path / "latent.csv"
        path.write_text("n 3\n0 1\n")
        lpath.write_text(latent)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"latent\.csv: expected 3 latent values"):
                graph_from_edgelist(path, latent_path=lpath)
        assert caught == []

    def test_latent_file_skips_comments_and_blank_lines(self, tmp_path):
        path, lpath = tmp_path / "g.edges", tmp_path / "latent.csv"
        path.write_text("n 3\n0 1\n")
        lpath.write_text("# positions\n0.25\n\n  \n0.5  # middle\n   # note\n0.75\n")
        assert graph_from_edgelist(path, latent_path=lpath).latent.tolist() == [
            0.25, 0.5, 0.75]

    def test_single_node_roundtrip_keeps_latent_1d(self, tmp_path):
        g = sample_graph(exp_sum(0.5), 1, seed=4)
        path, lpath = tmp_path / "g.edges", tmp_path / "latent.csv"
        graph_to_edgelist(g, path, latent_path=lpath)
        back = graph_from_edgelist(path, latent_path=lpath)
        assert back.n == 1 and back.latent.shape == (1,)
        np.testing.assert_array_equal(back.latent, g.latent)

    @pytest.mark.parametrize("latent, message", [
        ("0.1\n0.2\n0.3\n0.4\n0.5\n", r"expected 3 latent values"),
        ("0.1\n0.2\n", r"expected 3 latent values"),
        ("0.1,0.2\n0.3,0.4\n0.5,0.6\n", r"expected 3 latent values"),
        ("0.1\nnan\n0.3\n", "finite"),
        ("0.1\ninf\n0.3\n", "finite"),
        ("0.1\n2.0\n0.3\n", r"lie in \[0, 1\]"),
        ("-1.0\n0.2\n0.3\n", r"lie in \[0, 1\]"),
    ])
    def test_rejects_bad_latent(self, tmp_path, latent, message):
        path, lpath = tmp_path / "g.edges", tmp_path / "latent.csv"
        path.write_text("n 3\n0 1\n")
        lpath.write_text(latent)
        with pytest.raises(ValueError, match=r"latent\.csv: .*" + message):
            graph_from_edgelist(path, latent_path=lpath)

    def test_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n 4\n0 1\n\n2 2\n")
        with pytest.raises(ValueError, match=r"bad\.edges:4: self-loop"):
            graph_from_edgelist(path)
