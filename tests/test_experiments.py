import csv
import os

import numpy as np
import pytest

from graphonsp import experiments
from graphonsp.experiments import (DESIGN_ORDERS, ExperimentConfig,
                                   curves_to_csv, input_function,
                                   records_to_csv, run_consensus,
                                   run_filter_convergence, run_lowpass)
from graphonsp.chebyshev import project_apply_resample
from graphonsp.filtering import (FilterCoeffs, IdealResponse,
                                 apply_graph_filter, design_filter,
                                 fg_filter_operator)
from graphonsp.galerkin import build_fg_shift
from graphonsp.kernels import erdos_renyi, exp_distance, exp_sum, sin_product
from graphonsp.sampling import sample_graph, scaled_adjacency

THREE_GRAPHONS = {
    "er:0.5": erdos_renyi(0.5),
    "sinprod:0.5,0.5,3.5": sin_product(0.5, 0.5, 3.5),
    "expdist:10": exp_distance(10.0),
}


def small_config(**overrides):
    defaults = dict(graphons=THREE_GRAPHONS, node_counts=(300,), seeds=(0,),
                    chosen_order=5)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def residuals_by_graphon(records, order):
    out = {}
    for r in records:
        if r.order == order:
            out[r.graphon] = r.residual
    return out


def records_equal(a, b):
    """Field-wise equality treating NaN slots (unused fields) as equal."""
    def same(x, y):
        return x == y or (np.isnan(x) and np.isnan(y))

    if len(a) != len(b):
        return False
    return all((ra.graphon, ra.n, ra.seed, ra.order)
               == (rb.graphon, rb.n, rb.seed, rb.order)
               and same(ra.residual, rb.residual)
               and same(ra.l2_discrepancy, rb.l2_discrepancy)
               for ra, rb in zip(a, b))


class TestInputFunctions:
    def test_vocabulary(self):
        x = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(input_function("y")(x), x)
        np.testing.assert_allclose(input_function("x_plus_sin")(x), x + np.sin(x))
        np.testing.assert_array_equal(input_function("const:2.5")(x),
                                      np.full(3, 2.5))

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            input_function("cosine")

    def test_non_finite_constant_rejected(self):
        for bad in ("const:nan", "const:inf", "const:-inf"):
            with pytest.raises(ValueError, match="finite"):
                input_function(bad)


class TestLowpass:
    def test_residual_ordering_across_graphons(self):
        records, _ = run_lowpass(small_config())
        res = residuals_by_graphon(records, order=5)
        assert res["expdist:10"] < res["sinprod:0.5,0.5,3.5"] < res["er:0.5"]

    def test_er_residual_hits_unreachable_norm(self):
        records, _ = run_lowpass(small_config())
        res = residuals_by_graphon(records, order=8)
        assert res["er:0.5"] >= np.linalg.norm([5.0, 5.0, 10.0]) - 1e-6

    def test_residual_nonincreasing_in_order(self):
        records, _ = run_lowpass(small_config())
        for label in THREE_GRAPHONS:
            rs = [r.residual for r in sorted(records, key=lambda r: r.order)
                  if r.graphon == label and r.seed == 0]
            for a, b in zip(rs, rs[1:]):
                assert b <= a + 1e-9

    def test_residuals_match_independent_recomputation(self):
        cfg = small_config()
        records, _ = run_lowpass(cfg)
        d = IdealResponse([1.0, 5.0, 5.0, 10.0, 0.0])
        for label in THREE_GRAPHONS:
            op = build_fg_shift(cfg.graphons[label], cfg.panels, cfg.basis)
            for order in DESIGN_ORDERS:
                expected = design_filter(op, order, d).residual
                got = [r.residual for r in records
                       if r.graphon == label and r.order == order]
                assert all(abs(g - expected) < 1e-12 for g in got)

    def test_reproducible(self):
        a, _ = run_lowpass(small_config())
        b, _ = run_lowpass(small_config())
        assert records_equal(a, b)

    def test_each_graphon_uses_its_own_taps_and_reference(self):
        cfg = small_config(graphons={"er:0.5": erdos_renyi(0.5),
                                     "expdist:10": exp_distance(10.0)},
                           node_counts=(120, 250), seeds=(0, 3))
        records, curves = run_lowpass(cfg)
        f = input_function(cfg.input_id)
        d = IdealResponse([1.0, 5.0, 5.0, 10.0, 0.0])
        xgrid = (np.linspace(-1.0, 1.0, cfg.resample_points) + 1.0) / 2.0
        taps, preds = {}, {}
        for label, w in cfg.graphons.items():
            op = build_fg_shift(w, cfg.panels, cfg.basis)
            taps[label] = design_filter(op, cfg.chosen_order, d).coeffs
            preds[label] = project_apply_resample(
                fg_filter_operator(op, taps[label]), f, cfg.panels,
                cfg.resample_points)
        assert not np.allclose(taps["er:0.5"].h, taps["expdist:10"].h)

        def discrepancy(label, n, seed, tap_label):
            g = sample_graph(cfg.graphons[label], n, seed)
            y = apply_graph_filter(scaled_adjacency(g), taps[tap_label],
                                   f(g.latent))
            strip = y[np.minimum((xgrid * n).astype(int), n - 1)]
            return np.sqrt(np.mean((strip - preds[tap_label]) ** 2))

        chosen = [r for r in records if r.order == cfg.chosen_order]
        assert len(chosen) == len(curves) == 2 * 2 * 2
        for r, c in zip(chosen, curves):
            assert (c.graphon, c.n, c.seed) == (r.graphon, r.n, r.seed)
            np.testing.assert_array_equal(c.graphon_pred, preds[r.graphon])
            assert r.l2_discrepancy == pytest.approx(
                discrepancy(r.graphon, r.n, r.seed, r.graphon), abs=1e-12)
            other = next(lb for lb in cfg.graphons if lb != r.graphon)
            assert abs(r.l2_discrepancy
                       - discrepancy(r.graphon, r.n, r.seed, other)) > 1e-3

    def test_explicit_ideal_of_wrong_length_rejected(self):
        for ideal in ((1.0, 2.0), (1.0, 5.0, 5.0, 10.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="ideal response length"):
                run_lowpass(small_config(ideal=ideal))

    def test_chosen_order_outside_swept_orders_rejected(self):
        for order in (0, 9):
            with pytest.raises(ValueError, match="chosen order"):
                run_lowpass(small_config(chosen_order=order))

    @pytest.mark.parametrize("run", [run_lowpass, run_consensus])
    def test_labels_sharing_a_curve_file_name_rejected_before_sampling(
            self, run, monkeypatch):
        def never(*args):
            raise AssertionError("a graph was sampled")
        monkeypatch.setattr("graphonsp.experiments.sample_graph", never)
        graphons = {"file:grid_1.csv": erdos_renyi(0.5),
                    "file:grid-1.csv": erdos_renyi(0.3)}
        with pytest.raises(ValueError,
                           match="'file:grid_1.csv' and 'file:grid-1.csv' would write"):
            run(small_config(graphons=graphons))


class TestConsensus:
    def test_ideal_refused(self):
        with pytest.raises(ValueError, match="takes no ideal"):
            run_consensus(small_config(ideal=(1.0, 0.0, 0.0, 0.0, 0.0)))

    def test_er_residual_near_zero(self):
        records, _ = run_consensus(small_config())
        res = residuals_by_graphon(records, order=5)
        assert res["er:0.5"] < 1e-6

    def test_ordering_reversed_vs_lowpass(self):
        records, _ = run_consensus(small_config())
        res = residuals_by_graphon(records, order=5)
        assert res["er:0.5"] <= res["sinprod:0.5,0.5,3.5"] <= res["expdist:10"]

    def test_er_graph_output_nearly_constant(self):
        cfg = small_config(graphons={"er:0.5": erdos_renyi(0.5)},
                           node_counts=(2000,))
        _, curves = run_consensus(cfg)
        y = curves[0].graph_empirical
        assert y.std() / abs(y.mean()) < 0.05


class TestFilterConvergence:
    def test_discrepancy_decreases_with_n(self):
        w = exp_sum(0.5)
        f = input_function("x_plus_sin")
        taps = FilterCoeffs((0.5, 0.3, 0.2))
        xgrid = (np.linspace(-1.0, 1.0, 200) + 1.0) / 2.0
        reference = project_apply_resample(
            fg_filter_operator(build_fg_shift(w, 10, 5), taps), f, 10, 200)
        # unsorted samples give the same study on a differently drawn graph:
        # node outputs are read in latent order, not in sample order
        for sorted_latent in (True, False):
            cfg = small_config(graphons={"expsum:0.5": w},
                               node_counts=(100, 400, 1600),
                               seeds=(0, 1, 2, 3, 4), filter_taps=taps.h,
                               sorted_latent=sorted_latent)
            records, means = run_filter_convergence(cfg)
            seq = [means[("expsum:0.5", n)] for n in (100, 400, 1600)]
            assert seq[0] > seq[1] > seq[2]
            assert len(records) == 15
            for r in records:
                g = sample_graph(w, r.n, r.seed, sorted_latent)
                y = apply_graph_filter(scaled_adjacency(g), taps, f(g.latent))
                strip = y[np.argsort(g.latent)][
                    np.minimum((xgrid * r.n).astype(int), r.n - 1)]
                assert r.l2_discrepancy == pytest.approx(
                    np.sqrt(np.mean((strip - reference) ** 2)), abs=1e-12)

    def test_zero_filter_gives_zero_discrepancy(self):
        cfg = small_config(graphons={"expsum:0.5": exp_sum(0.5)},
                           node_counts=(50,), seeds=(0,), filter_taps=(0.0,))
        records, _ = run_filter_convergence(cfg)
        assert records[0].l2_discrepancy == 0.0

    def test_identity_filter_reduces_to_representation_error(self):
        # h = [1] removes the diffusion entirely: both sides represent the
        # input itself, so the discrepancy is pure resolution error (latent
        # spacing + projection) and shrinks with N without any filtering term
        cfg = small_config(graphons={"expsum:0.5": exp_sum(0.5)},
                           node_counts=(200, 800, 3200), seeds=(0, 1, 2),
                           filter_taps=(1.0,))
        _, means = run_filter_convergence(cfg)
        seq = [means[("expsum:0.5", n)] for n in (200, 800, 3200)]
        assert seq[0] > seq[1] > seq[2]
        assert seq[2] < 0.02

    def test_unsorted_counts_rejected(self):
        cfg = small_config(node_counts=(400, 100))
        with pytest.raises(ValueError):
            run_filter_convergence(cfg)

    def test_reproducible(self):
        # a new graphon object per run, so the second run builds its
        # operator again instead of reading the first run's from the cache
        def cfg():
            return small_config(graphons={"er:0.5": erdos_renyi(0.5)},
                                node_counts=(100, 200), seeds=(0, 1))
        a, am = run_filter_convergence(cfg())
        b, bm = run_filter_convergence(cfg())
        assert records_equal(a, b) and am == bm


class TestRepeatedCells:
    """A repeated seed or node count would repeat a cell, so a per-N mean
    would count one sample twice; it is refused before any graph is sampled."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def never(*args):
            raise AssertionError("a graph was sampled")
        monkeypatch.setattr("graphonsp.experiments.sample_graph", never)

    def test_convergence_repeated_seed(self):
        with pytest.raises(ValueError, match=r"seeds must be distinct, got \[1, 1\]"):
            run_filter_convergence(small_config(node_counts=(20, 40), seeds=(1, 1)))

    def test_lowpass_repeated_seed(self):
        with pytest.raises(ValueError, match=r"seeds must be distinct, got \[0, 2, 0\]"):
            run_lowpass(small_config(seeds=(0, 2, 0)))

    def test_consensus_repeated_seed(self):
        with pytest.raises(ValueError, match=r"seeds must be distinct, got \[0, 0\]"):
            run_consensus(small_config(seeds=(0, 0)))

    @pytest.mark.parametrize("run", [run_lowpass, run_consensus])
    def test_design_repeated_node_count(self, run):
        with pytest.raises(ValueError, match="node counts must be distinct"):
            run(small_config(node_counts=(100, 100)))


class TestWorkers:
    """One pool worker per CPU, at most four; records do not depend on it."""

    @staticmethod
    def run_with_cpus(monkeypatch, cpus):
        pools = []
        real = experiments.ThreadPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", pool)
        conv, means = run_filter_convergence(small_config(
            graphons={"er:0.5": erdos_renyi(0.5),
                      "expdist:10": exp_distance(10.0)},
            node_counts=(50, 120), seeds=(0, 1, 2)))
        low, curves = run_lowpass(small_config(node_counts=(150,), seeds=(0, 1, 2)))
        out = repr((conv, sorted(means.items()), low)).encode()
        for c in curves:
            out += b"".join(a.tobytes() for a in (c.grid, c.ideal, c.graphon_pred,
                                                  c.graph_empirical))
        return pools, out

    def test_pool_size_follows_the_cpu_count(self, monkeypatch):
        outputs = []
        for cpus, workers in ((1, 1), (2, 2), (8, 4), (None, 1)):
            pools, out = self.run_with_cpus(monkeypatch, cpus)
            assert pools == [workers, workers]
            outputs.append(out)
        assert all(out == outputs[0] for out in outputs)


class TestCsvEmission:
    def test_records_csv(self, tmp_path):
        records, curves = run_lowpass(small_config(node_counts=(100,)))
        path = tmp_path / "lowpass.csv"
        records_to_csv(records, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["graphon", "n", "seed", "order", "residual",
                           "l2_discrepancy"]
        assert len(rows) == len(records) + 1

    def test_curves_csv(self, tmp_path):
        cfg = small_config(node_counts=(100,))
        _, curves = run_lowpass(cfg)
        paths = curves_to_csv(curves, tmp_path, "lowpass")
        assert len(paths) == len(curves) == len(THREE_GRAPHONS)
        with open(paths[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["grid_point", "ideal", "graphon_pred",
                           "graph_empirical"]
        assert len(rows) == 1 + cfg.resample_points
