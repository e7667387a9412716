import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from graphonsp import experiments, filtering, galerkin
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


class TestParseMotifSpec:
    def test_named(self):
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
        code = dispatch(["homdensity", "--motif", "triangle", "--graphon",
                         "er:0.5", "--samples", "1000", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimate"] == pytest.approx(0.125)
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

    def test_validation_failures_exit_2(self, tmp_path, capsys):
        assert dispatch(["sample", "--graphon", "er:2.0", "--n", "10",
                         "--out", str(tmp_path / "g.edges")]) == 2
        assert "error" in capsys.readouterr().err
        assert dispatch(["solve", "--graphon", "er:0.5", "--panels", "4",
                         "--basis", "9", "--input", "y",
                         "--out", str(tmp_path / "s.csv")]) == 2
        # design takes its basis size from --ideal and has no --basis flag
        assert dispatch(["design", "--graphon", "er:0.5", "--order", "3",
                         "--ideal", "1,0,0", "--basis", "5"]) == 2
        assert "unrecognized arguments: --basis 5" in capsys.readouterr().err

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

    def test_malformed_custom_motif_exits_2(self, capsys):
        for spec, chunk in (("custom:", "''"), ("custom:0-1,2", "'2'"),
                            ("custom:a-b", "'a-b'")):
            assert dispatch(["homdensity", "--motif", spec, "--graphon", "er:0.5",
                             "--samples", "10"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: malformed edge {chunk} in motif")
            assert "'<i>-<j>'" in err and "Traceback" not in err

    def test_oversized_custom_motif_exits_2(self, capsys):
        assert dispatch(["homdensity", "--motif", "custom:0-8", "--graphon", "er:0.5",
                         "--samples", "10"]) == 2
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

    # the taps overflow float64 on purpose
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_experiment_non_finite_discrepancy_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert dispatch(["experiment:convergence", "--graphon", "er:1",
                         "--n-values", "10", "--seeds", "0",
                         "--taps", "1e308,1e308,1e308", "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: experiment:convergence produced "
                                "non-finite values\n")
        assert not out.exists()

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
