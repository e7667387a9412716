import argparse
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphonsp import cli, experiments, filtering, galerkin, homdensity
from graphonsp.cli import (_build_parser, dispatch, parse_graphon_spec,
                           parse_motif_spec)
from graphonsp.experiments import ExperimentRecord
from graphonsp.sampling import graph_from_edgelist


class TestParseGraphonSpec:
    def test_er(self):
        w = parse_graphon_spec("er:0.5")
        assert w.eval(0.1, 0.9) == 0.5

    def test_expdist(self):
        w = parse_graphon_spec("expdist:10")
        assert w.eval(0.2, 0.2) == pytest.approx(1.0)
        assert w.eval(0.0, 1.0) == pytest.approx(np.exp(-10.0))

    def test_sinprod(self):
        w = parse_graphon_spec("sinprod:0.5,0.5,3.5")
        assert w.eval(0.5, 1.0) == pytest.approx(0.5 + 0.5 * np.sin(3.5 * np.pi * 0.5))

    def test_file(self, tmp_path):
        path = tmp_path / "grid.csv"
        np.savetxt(path, np.array([[0.0, 1.0], [1.0, 0.0]]), delimiter=",")
        w = parse_graphon_spec(f"file:{path}")
        assert w.eval(0.1, 0.9) == 1.0

    def test_malformed_specs(self):
        for bad in ("er", "er:2.0", "unknown:1", "sinprod:0.5", "sinprod:a,b,c"):
            with pytest.raises(ValueError):
                parse_graphon_spec(bad)

    @pytest.mark.parametrize("spec", [
        "er:0.5,0.3", "er:", "er:x", "sinprod:0.5,0.5", "sinprod:0.5,0.5,3.5,1",
        "sinprod:0.5,x,3.5", "expsum:0.5,1", "expsum:abc", "expdist:", "expdist:1,2",
    ])
    def test_wrong_arity_or_non_number_is_malformed(self, spec):
        with pytest.raises(ValueError, match=f"^malformed graphon spec {spec!r}: "):
            parse_graphon_spec(spec)

    @pytest.mark.parametrize("spec", ["unknown:1", "ER:0.5", "files:x.csv", ":0.5"])
    def test_unknown_id(self, spec):
        kind = spec.partition(":")[0]
        with pytest.raises(ValueError, match=f"^unknown graphon id {kind!r} in spec"):
            parse_graphon_spec(spec)

    def test_every_built_in_resolves(self):
        for spec in ("er:0.5", "sinprod:0.5,0.5,3.5", "expsum:0.5", "expdist:10"):
            assert parse_graphon_spec(spec).label == spec


class TestParseMotifSpec:
    def test_named(self):
        assert parse_motif_spec("edge").edges == ((0, 1),)
        assert parse_motif_spec("edge").k == 2
        assert parse_motif_spec("triangle").edges == ((0, 1), (1, 2), (0, 2))
        assert parse_motif_spec("path3").edges == ((0, 1), (1, 2))

    def test_custom(self):
        m = parse_motif_spec("custom:0-1,1-2,2-3")
        assert m.k == 4 and len(m.edges) == 3

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_motif_spec("square")


class TestDispatch:
    def test_sample_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        code = dispatch(["sample", "--graphon", "er:0.5", "--n", "100",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        g = graph_from_edgelist(out)
        assert g.n == 100

    @pytest.mark.parametrize("bad", ["out", "latent"])
    def test_sample_unwritable_output_leaves_no_file(self, tmp_path, capsys, bad):
        paths = {"out": tmp_path / "g.edges", "latent": tmp_path / "l.csv"}
        paths[bad] = tmp_path / "missing" / paths[bad].name
        assert dispatch(["sample", "--graphon", "er:0.5", "--n", "3",
                         "--out", str(paths["out"]),
                         "--latent-out", str(paths["latent"])]) == 2
        assert "error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sample_edge_list_and_latent_in_one_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "same.txt"
        assert dispatch(["sample", "--graphon", "er:0.5", "--n", "3", "--out", str(out),
                         "--latent-out", str(out)]) == 2
        assert "name the same file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sample_reproducible(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        dispatch(["sample", "--graphon", "er:0.3", "--n", "50", "--seed", "9",
                  "--out", str(a)])
        dispatch(["sample", "--graphon", "er:0.3", "--n", "50", "--seed", "9",
                  "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_solve_matches_analytic_solution(self, tmp_path):
        out = tmp_path / "g.csv"
        code = dispatch(["solve", "--graphon", "expsum:0.5", "--panels", "10",
                         "--basis", "5", "--input", "y", "--points", "200",
                         "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        x, y = rows[:, 0], rows[:, 1]
        exact = (4 - 6 * np.exp(-0.5)) * np.exp(-x / 2)
        assert np.abs(y - exact).max() / np.abs(exact).max() < 1e-2

    def test_design_consensus_json(self, capsys):
        code = dispatch(["design", "--graphon", "er:0.5", "--order", "5",
                         "--ideal", "1,0,0,0,0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual"] < 1e-6
        assert len(payload["h"]) == 6 and payload["h"][0] == 0.0
        assert payload["rank_used"] >= 1

    def test_design_writes_the_frequency_response(self, tmp_path, capsys):
        out = tmp_path / "response.csv"
        code = dispatch(["design", "--graphon", "expsum:0.5", "--panels", "12",
                         "--order", "4", "--ideal", "1,1,0,0,0",
                         "--response-out", str(out)])
        assert code == 0
        h = filtering.FilterCoeffs(json.loads(capsys.readouterr().out)["h"])
        op = galerkin.build_fg_shift(parse_graphon_spec("expsum:0.5"), 12, 5)
        want = filtering.frequency_response(filtering.fg_filter_operator(op, h))
        np.testing.assert_array_equal(np.loadtxt(out, delimiter=","), want)

    def test_design_rejects_svd_tol_outside_unit_interval(self, capsys):
        for tol in ("2", "0"):
            code = dispatch(["design", "--graphon", "er:0.5", "--order", "5",
                             "--ideal", "1,0,0,0,0", "--svd-tol", tol])
            assert code == 2
            assert "rel_tol" in capsys.readouterr().err

    def test_fg_operator_csv(self, tmp_path):
        out = tmp_path / "op.csv"
        code = dispatch(["fg-operator", "--graphon", "er:0.5", "--panels", "10",
                         "--basis", "5", "--out", str(out)])
        assert code == 0
        entries = np.loadtxt(out, delimiter=",")
        assert entries.shape == (5, 5)
        assert entries[0, 0] == pytest.approx(0.5, abs=1e-9)

    def test_homdensity_json(self, capsys):
        # every kernel value of ER(0.5) is 0.5, so each sample is 0.5^|E|
        for motif, flags, want in (("triangle", ["--seed", "1"], 0.125),
                                   ("custom:0-1,1-2,2-3,3-0", [], 0.0625)):
            code = dispatch(["homdensity", "--motif", motif, "--graphon",
                             "er:0.5", "--samples", "1000", *flags])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["estimate"] == pytest.approx(want)
            assert payload["samples"] == 1000

    def test_homdensity_single_sample_is_strict_json(self, capsys):
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        assert dispatch(["homdensity", "--graphon", "expsum:0.5",
                         "--samples", "1", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["stderr"] is None
        assert payload["samples"] == 1

    def test_experiment_convergence_writes_csv(self, tmp_path, capsys):
        code = dispatch(["experiment:convergence", "--graphon", "expsum:0.5",
                         "--n-values", "50,100", "--seeds", "0,1",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "convergence.csv").exists()
        assert "mean discrepancy" in capsys.readouterr().out

    def test_experiment_lowpass_writes_csvs(self, tmp_path):
        code = dispatch(["experiment:lowpass", "--graphon", "er:0.5",
                         "--n", "100", "--seeds", "0",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "lowpass.csv").exists()
        assert list(tmp_path.glob("lowpass_*_curves.csv"))

    def test_fg_operator_reads_a_grid_csv(self, tmp_path):
        grid, out = tmp_path / "grid.csv", tmp_path / "grid-op.csv"
        grid.write_text("0.2,0.7\n0.7,0.9\n")
        assert dispatch(["fg-operator", "--graphon", f"file:{grid}",
                         "--out", str(out)]) == 0
        assert np.loadtxt(out, delimiter=",").shape == (5, 5)

    def test_fg_operator_bad_graphon_exits_2_leaving_no_file(self, tmp_path, capsys):
        # a non-square grid and a spec of the wrong arity
        grid = tmp_path / "grid23.csv"
        grid.write_text("0.2,0.7,0.1\n0.7,0.9,0.3\n")
        for spec in (f"file:{grid}", "er:0.5,0.3"):
            assert dispatch(["fg-operator", "--graphon", spec,
                             "--out", str(tmp_path / "op.csv")]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [grid]

    def test_validation_failures_exit_2(self, tmp_path, capsys):
        for graphon, n in (("er:2.0", "10"), ("er:0.5", "0")):
            assert dispatch(["sample", "--graphon", graphon, "--n", n,
                             "--out", str(tmp_path / "g.edges")]) == 2
            assert "error" in capsys.readouterr().err
        assert dispatch(["solve", "--graphon", "er:0.5", "--panels", "4",
                         "--basis", "9", "--input", "y",
                         "--out", str(tmp_path / "s.csv")]) == 2
        # design takes its basis size from --ideal and has no --basis flag
        assert dispatch(["design", "--graphon", "er:0.5", "--order", "3",
                         "--ideal", "1,0,0", "--basis", "5"]) == 2
        assert "unrecognized arguments: --basis 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_basis_below_one_exits_2(self, tmp_path, capsys):
        commands = {
            "fg-operator": ["--graphon", "er:0.5", "--out", str(tmp_path / "op.csv")],
            "solve": ["--graphon", "er:0.5", "--out", str(tmp_path / "s.csv")],
            "experiment:convergence": ["--graphon", "er:0.5", "--n-values", "10",
                                       "--seeds", "0", "--out-dir", str(tmp_path / "c")],
        }
        for command, args in commands.items():
            for basis in ("0", "-2"):
                assert dispatch([command, *args, "--basis", basis]) == 2
                err = capsys.readouterr().err
                assert "error: basis size must be at least 1" in err
                assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_panels_below_one_exits_2(self, tmp_path, capsys):
        # the panel count is checked before the basis size is held against it
        commands = {
            "fg-operator": ["--graphon", "er:0.5", "--out", str(tmp_path / "op.csv")],
            "solve": ["--graphon", "er:0.5", "--out", str(tmp_path / "s.csv")],
            "experiment:convergence": ["--graphon", "er:0.5", "--n-values", "10",
                                       "--seeds", "0", "--out-dir", str(tmp_path / "c")],
        }
        for command, args in commands.items():
            for panels in ("0", "-3"):
                assert dispatch([command, *args, "--panels", panels]) == 2
                err = capsys.readouterr().err
                assert err == "error: need at least one panel\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("basis", ["1", "2"])
    def test_design_studies_sweep_orders_1_to_8_at_basis_1_and_2(self, tmp_path, basis):
        # the sweep passes n^2 at these basis sizes; the order bound's floor of 8 keeps it
        out = tmp_path / "consensus"
        assert dispatch(["experiment:consensus", "--graphon", "er:0.5", "--n", "10",
                         "--basis", basis, "--out-dir", str(out)]) == 0
        rows = (out / "consensus.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[3]) for r in rows] == list(range(1, 9))

    def test_design_studies_basis_below_one_exit_2(self, tmp_path, capsys):
        for study in ("lowpass", "consensus"):
            for basis in ("0", "-2"):
                out = tmp_path / f"{study}{basis}"
                assert dispatch([f"experiment:{study}", "--graphon", "er:0.5",
                                 "--n", "10", "--basis", basis,
                                 "--out-dir", str(out)]) == 2
                err = capsys.readouterr().err
                assert "error: basis size must be at least 1" in err
                assert "Traceback" not in err
                assert not out.exists()

    def test_lowpass_ideal_of_wrong_length_exits_2(self, tmp_path, capsys):
        # an explicit --ideal is used as given, never padded to the basis size
        out = tmp_path / "low"
        assert dispatch(["experiment:lowpass", "--graphon", "er:0.5", "--n", "10",
                         "--ideal", "1,2", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: ideal response length 2 does not match operator size 5" in err
        assert not out.exists()

    def test_repeated_seed_exits_2(self, tmp_path, capsys):
        args = [("convergence", ["--n-values", "20,40", "--seeds", "1,1"]),
                ("convergence", ["--n-values", "10", "--seeds", "1,1"]),
                ("lowpass", ["--n", "10", "--seeds", "0,0"]),
                ("consensus", ["--n", "10", "--seeds", "0,0"])]
        for i, (study, flags) in enumerate(args):
            out = tmp_path / f"{study}{i}"
            assert dispatch([f"experiment:{study}", "--graphon", "er:0.5", *flags,
                             "--out-dir", str(out)]) == 2
            assert "error: seeds must be distinct" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("study, flags", [
        ("convergence", ["--n-values", "10,20", "--seeds", "0,1"]),
        ("lowpass", ["--n", "10", "--seeds", "0"]),
        ("consensus", ["--n", "10", "--seeds", "0"])])
    def test_repeated_graphon_exits_2_before_any_spec_is_parsed(self, tmp_path,
                                                                monkeypatch, capsys,
                                                                study, flags):
        # the labels key a dict, which would keep one graphon's records
        monkeypatch.setattr(cli, "parse_graphon_spec",
                            lambda spec: pytest.fail("spec parsed"))
        out = tmp_path / "out"
        specs = ["er:0.5", "expdist:10", "er:0.5"]
        assert dispatch([f"experiment:{study}", *flags,
                         *[a for spec in specs for a in ("--graphon", spec)],
                         "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: graphons must be distinct, got {specs}\n"
        assert not out.exists()

    def test_graphons_sharing_a_curve_file_name_exit_2(self, tmp_path, capsys):
        specs = []
        for name in ("g_1.csv", "g-1.csv"):
            (tmp_path / name).write_text("0.2,0.7\n0.7,0.9\n")
            specs += ["--graphon", f"file:{tmp_path / name}"]
        out = tmp_path / "low"
        assert dispatch(["experiment:lowpass", "--n", "10", "--seeds", "0", *specs,
                         "--out-dir", str(out)]) == 2
        assert "would write the same curve files" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ideal", ["1,nan", "nan", "1,inf", "0,-inf,0"])
    def test_non_finite_ideal_response_exits_2(self, capsys, ideal):
        assert dispatch(["design", "--graphon", "er:0.5", "--order", "3",
                         "--ideal", ideal]) == 2
        err = capsys.readouterr().err
        assert "error: ideal response must be a nonempty finite vector" in err
        assert "filter coefficients" not in err

    def test_design_order_past_its_bound_exits_2(self, monkeypatch, capsys):
        # --ideal 1,0 is a basis of 2, so the bound is max(2^2, 8) = 8
        monkeypatch.setattr(filtering, "_powers", lambda w: pytest.fail("power formed"))
        assert dispatch(["design", "--graphon", "er:0.5", "--order", "100000000",
                         "--ideal", "1,0"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: filter order must lie in 1..8 (the larger of n^2 and 8 "
                       "at basis size 2), got 100000000\n")

    def test_malformed_custom_motif_exits_2(self, capsys):
        for spec, chunk in (("custom:", "''"), ("custom:0-1,2", "'2'"),
                            ("custom:a-b", "'a-b'")):
            assert dispatch(["homdensity", "--motif", spec, "--graphon", "er:0.5",
                             "--samples", "10"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: malformed edge {chunk} in motif")
            assert "'<i>-<j>'" in err and "Traceback" not in err

    def test_oversized_custom_motif_exits_2(self, capsys):
        for samples in ([], ["--samples", "10"]):
            assert dispatch(["homdensity", "--motif", "custom:0-8", "--graphon",
                             "er:0.5", *samples]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: motif needs 1..8 nodes, got 9")
            assert "Traceback" not in err

    @pytest.mark.parametrize("spec", ["expsum:nan", "sinprod:0.5,0.5,1e308"])
    def test_non_finite_graphon_spec_exits_2(self, tmp_path, capsys, spec):
        out = tmp_path / "out"
        commands = {
            "sample": ["--n", "50", "--out", str(out)],
            "fg-operator": ["--out", str(out)],
            "solve": ["--out", str(out)],
            "design": ["--order", "3", "--ideal", "1,0,0", "--response-out", str(out)],
            "homdensity": ["--samples", "10"],
            "experiment:convergence": ["--n-values", "50", "--seeds", "0",
                                       "--out-dir", str(out)],
        }
        for command, args in commands.items():
            assert dispatch([command, "--graphon", spec, *args]) == 2, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: malformed graphon spec '{spec}'")
            assert "finite" in captured.err and "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_empty_grid_csv_exits_2_with_one_error_line(self, tmp_path, capsys):
        grid, out = tmp_path / "empty.csv", tmp_path / "op.csv"
        grid.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(["fg-operator", "--graphon", f"file:{grid}",
                             "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("grid graphon requires a nonempty matrix\n")
        assert not out.exists()

    def test_blank_grid_csv_exits_2_with_one_error_line(self, tmp_path, capsys):
        grid, out = tmp_path / "blank.csv", tmp_path / "op.csv"
        grid.write_text("  \t\n \t \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(["fg-operator", "--graphon", f"file:{grid}",
                             "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("grid graphon requires a nonempty matrix\n")
        assert not out.exists()

    def test_expsum_huge_rate_runs_without_warning(self, tmp_path, capsys):
        # exp(-alpha*(x+y)) underflows to 0 off the origin; the suite turns
        # a RuntimeWarning into an error
        out = tmp_path / "g.edges"
        assert dispatch(["sample", "--graphon", "expsum:1e308", "--n", "50",
                         "--out", str(out)]) == 0
        assert dispatch(["homdensity", "--graphon", "expsum:1e308",
                         "--samples", "10"]) == 0
        assert capsys.readouterr().err == ""
        assert graph_from_edgelist(out).edge_count() == 0

    def test_homdensity_samples_above_bound_exit_2(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(homdensity, "hom_density_graphon", refuse)
        for samples in ("0", "1000000001", str(10 ** 20)):
            assert dispatch(["homdensity", "--graphon", "er:0.5",
                             "--samples", samples]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: --samples must lie in 1..1000000000, "
                                    f"got {samples}\n")

    def test_bad_seeds_exit_2(self, tmp_path, capsys):
        for seed in ("-1", str(2 ** 64)):
            assert dispatch(["sample", "--graphon", "er:0.5", "--n", "10",
                             "--seed", seed, "--out", str(tmp_path / "g.edges")]) == 2
            assert dispatch(["homdensity", "--graphon", "er:0.5",
                             "--samples", "10", "--seed", seed]) == 2
            assert dispatch(["experiment:convergence", "--graphon", "er:0.5",
                             "--n-values", "10", "--seeds", f"0,{seed}",
                             "--out-dir", str(tmp_path / "conv")]) == 2
            err = capsys.readouterr().err
            assert err.count("error: seed must be an integer") == 3
        assert not (tmp_path / "g.edges").exists()

    def test_non_finite_input_exits_2(self, tmp_path, capsys):
        for study in ("lowpass", "consensus", "convergence"):
            for value in ("nan", "inf"):
                out = tmp_path / f"{study}-{value}"
                size = ["--n-values", "50"] if study == "convergence" else ["--n", "50"]
                assert dispatch([f"experiment:{study}", "--graphon", "er:0.5",
                                 *size, "--seeds", "0", "--input", f"const:{value}",
                                 "--out-dir", str(out)]) == 2
                assert "error: input 'const:" in capsys.readouterr().err
                assert not out.exists()

    def test_order_outside_swept_orders_exits_2(self, tmp_path, capsys):
        for study in ("experiment:lowpass", "experiment:consensus"):
            for order in ("0", "9"):
                out = tmp_path / f"{study.split(':')[1]}{order}"
                assert dispatch([study, "--graphon", "er:0.5", "--n", "10",
                                 "--order", order, "--out-dir", str(out)]) == 2
                assert "error: chosen order" in capsys.readouterr().err
                assert not out.exists()

    def test_experiment_non_finite_discrepancy_exits_1(self, tmp_path, capsys):
        # the taps overflow float64 on purpose; numpy's overflow warnings,
        # one of them raised in a pool thread, are not shown for a failed run
        out = tmp_path / "out"
        assert dispatch(["experiment:convergence", "--graphon", "er:1",
                         "--n-values", "10", "--seeds", "0",
                         "--taps", "1e308,1e308,1e308", "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: experiment:convergence produced "
                                "non-finite values\n")
        assert not out.exists()

    def test_a_successful_run_re_emits_its_warnings(self, tmp_path, monkeypatch):
        def warn(args):
            warnings.warn("from the handler", RuntimeWarning)

        monkeypatch.setitem(cli._HANDLERS, "fg-operator", warn)
        argv = ["fg-operator", "--graphon", "er:0.5", "--out", str(tmp_path / "op.csv")]
        with pytest.warns(RuntimeWarning, match="from the handler"):
            assert dispatch(argv) == 0

    def test_a_failed_run_writes_only_its_error_line(self, tmp_path, monkeypatch,
                                                     capsys):
        def warn_then_fail(args):
            warnings.warn("from the handler", RuntimeWarning)
            warnings.warn("from the handler", UserWarning)
            raise ValueError("refused")

        monkeypatch.setitem(cli._HANDLERS, "fg-operator", warn_then_fail)
        argv = ["fg-operator", "--graphon", "er:0.5", "--out", str(tmp_path / "op.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch(argv) == 2
        assert caught == []
        assert capsys.readouterr().err == "error: refused\n"

    @pytest.mark.parametrize("residual, disc, code", [
        (0.5, 0.1, 0), (float("inf"), 0.1, 1), (0.5, float("nan"), 1)])
    def test_design_study_checks_measured_values_only(self, tmp_path, monkeypatch,
                                                      residual, disc, code):
        # the NaN discrepancy of every order but the chosen one is a placeholder
        records = [ExperimentRecord("er:0.5", 10, 0, k, residual if k == 8 else 0.5,
                                    disc if k == 5 else float("nan"))
                   for k in experiments.DESIGN_ORDERS]
        monkeypatch.setattr(experiments, "run_consensus", lambda cfg: (records, []))
        out = tmp_path / "out"
        assert dispatch(["experiment:consensus", "--graphon", "er:0.5", "--n", "10",
                         "--order", "5", "--out-dir", str(out)]) == code
        assert out.exists() == (code == 0)

    def test_non_finite_solve_operator_and_design_exit_1(self, tmp_path, monkeypatch,
                                                         capsys):
        nan = np.full((3, 3), np.nan)
        monkeypatch.setattr(galerkin, "fredholm_solve", lambda *args: nan[0])
        monkeypatch.setattr(galerkin, "build_fg_shift",
                            lambda *args: galerkin.OperatorMatrix(entries=nan))
        monkeypatch.setattr(filtering, "design_filter", lambda *args, **kwargs:
                            filtering.DesignResult(filtering.FilterCoeffs([1.0]),
                                                   float("nan"), 1))
        out = tmp_path / "out.csv"
        for command in ("solve", "fg-operator"):
            assert dispatch([command, "--graphon", "er:0.5", "--out", str(out)]) == 1
            assert capsys.readouterr().err.endswith("produced non-finite values\n")
        assert dispatch(["design", "--graphon", "er:0.5", "--order", "1",
                         "--ideal", "1,0,0"]) == 1
        assert "design residual produced non-finite values" in capsys.readouterr().err
        assert not out.exists()

    def test_input_too_large_for_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        # numpy raises MemoryError when it cannot allocate an array
        def refuse(*args):
            raise MemoryError("Unable to allocate 67.1 TiB for an array")

        monkeypatch.setattr(galerkin, "build_fg_shift", refuse)
        monkeypatch.setattr(galerkin, "fredholm_solve", refuse)
        for command, args in (("fg-operator", ["--panels", "3000000000"]),
                              ("solve", ["--points", "100000000000"])):
            assert dispatch([command, "--graphon", "er:0.5", *args, "--basis", "2",
                             "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err == ("error: input too large for memory: Unable to "
                           "allocate 67.1 TiB for an array\n")
        assert list(tmp_path.iterdir()) == []

    def test_consensus_has_no_ideal_flag(self, tmp_path, capsys):
        assert dispatch(["experiment:consensus", "--ideal", "1,0,0,0,0",
                         "--out-dir", str(tmp_path)]) == 2
        assert "--ideal" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert dispatch(["sample", "--bogus", "1"]) == 2

    def test_unreadable_grid_path_exits_2(self, tmp_path, capsys):
        assert dispatch(["fg-operator", "--graphon", "file:/no/such/file.csv",
                         "--out", str(tmp_path / "x.csv")]) == 2

    def test_help_lists_flags(self, capsys):
        assert dispatch(["solve", "--help"]) == 0
        text = capsys.readouterr().out
        for flag in ("--graphon", "--panels", "--basis", "--input", "--points",
                     "--out"):
            assert flag in text


class TestReadmeCommands:
    def test_documented_commands_parse(self):
        # parse, never run, every command of README's Command line section
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.strip()]
        assert lines and all(line.startswith("graphonsp ") for line in lines)
        parser = _build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])


def _subcommands():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _study(seeds, own):
    return {"--panels": (10, False), "--basis": (5, False), "--points": (200, False),
            "--unsorted": (False, False), **own, "--graphon": (None, False),
            "--seeds": (seeds, False), "--input": ("x_plus_sin", False),
            "--out-dir": (None, True)}


# each subcommand's options in the order --help lists them, without
# -h/--help, as (default, required)
_SURFACE = {
    "sample": {"--graphon": (None, True), "--seed": (0, False),
               "--unsorted": (False, False), "--out": (None, True),
               "--n": (None, True), "--latent-out": (None, False)},
    "fg-operator": {"--graphon": (None, True), "--panels": (10, False),
                    "--basis": (5, False), "--out": (None, True)},
    "solve": {"--graphon": (None, True), "--panels": (10, False), "--basis": (5, False),
              "--points": (200, False), "--out": (None, True), "--input": ("y", False)},
    "design": {"--graphon": (None, True), "--panels": (10, False),
               "--order": (None, True), "--ideal": (None, True),
               "--svd-tol": (1e-8, False), "--response-out": (None, False)},
    "homdensity": {"--graphon": (None, True), "--seed": (0, False),
                   "--motif": ("triangle", False), "--samples": (100000, False)},
    "experiment:lowpass": _study("0", {"--n": (2000, False), "--order": (5, False),
                                       "--ideal": (None, False)}),
    "experiment:consensus": _study("0", {"--n": (2000, False), "--order": (5, False)}),
    "experiment:convergence": _study("0,1,2,3,4", {
        "--n-values": ("100,400,1600", False), "--taps": ("0.5,0.3,0.2", False)}),
}


class TestSurface:
    def test_subcommands(self):
        assert list(_subcommands()) == list(_SURFACE)

    @pytest.mark.parametrize("command", list(_SURFACE))
    def test_options_and_defaults(self, command):
        parser = _subcommands()[command]
        options = {s: (a.default, a.required) for a in parser._actions
                   for s in a.option_strings if s not in ("-h", "--help")}
        assert options == _SURFACE[command]

    @pytest.mark.parametrize("command", list(_SURFACE))
    def test_options_in_declaration_order(self, command):
        # the order of --help, of the usage line and of argparse's list of
        # missing required arguments
        parser = _subcommands()[command]
        options = [s for a in parser._actions for s in a.option_strings]
        assert options == ["-h", "--help", *_SURFACE[command]]

    def test_no_action_belongs_to_two_subcommands(self):
        # a shared action would carry one subcommand's set_defaults to all
        owners = {}
        for command, parser in _subcommands().items():
            for action in parser._actions:
                assert owners.setdefault(id(action), command) == command, (
                    f"{action.option_strings} of {command} belongs to "
                    f"{owners[id(action)]}")

    def test_studies_take_repeatable_graphons(self):
        for command in ("experiment:lowpass", "experiment:consensus",
                        "experiment:convergence"):
            args = _build_parser().parse_args(
                [command, "--graphon", "er:0.5", "--graphon", "expdist:10",
                 "--out-dir", "out"])
            assert args.graphon == ["er:0.5", "expdist:10"]

    @pytest.mark.parametrize("argv, message", [
        # --samples, then --motif, then --graphon
        (["--motif", "bogus", "--graphon", "bogus:1"], "error: unknown motif 'bogus'\n"),
        (["--graphon", "bogus:1", "--samples", "0"],
         "error: --samples must lie in 1..1000000000, got 0\n"),
        (["--motif", "bogus", "--graphon", "bogus:1", "--samples", "0"],
         "error: --samples must lie in 1..1000000000, got 0\n"),
    ])
    def test_homdensity_validation_order(self, capsys, argv, message):
        assert dispatch(["homdensity", *argv]) == 2
        assert capsys.readouterr().err == message
