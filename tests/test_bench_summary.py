"""tools/bench_summary.py on synthetic record directories."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

MACHINE = {"nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "blas": "openblas",
           "blas_threads": 2}
METRICS = {"run_s": 1.0, "run_s_p90": 1.2, "cpu_s": 1.5, "peak_mb": 50.0,
           "setup_s": 0.1, "pass_rate": 1.0}


def write_runs(directory, workload, values, smoke=False, machine=MACHINE, seeds=None):
    """One record per value of ``values`` ({metric: [one value per seed]}),
    seeds 1, 2, ... unless given; metrics left out take METRICS' values."""
    directory.mkdir(exist_ok=True)
    count = len(next(iter(values.values())))
    for i, seed in enumerate(seeds or range(1, count + 1)):
        metrics = dict(METRICS, **{m: v[i] for m, v in values.items()})
        record = {"workload": workload, "seed": seed, "smoke": smoke, "seconds": 40,
                  "machine": machine, "metrics": metrics}
        (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def summarise(tmp_path):
    metrics = {"run_s": ("lower", 0.25), "pass_rate": ("higher", 0.01)}
    return bench_summary.summarise(bench_summary.load_records(tmp_path / "parent"),
                                   bench_summary.load_records(tmp_path / "change"),
                                   metrics)


class TestSpread:
    def test_median_and_inclusive_quartiles(self):
        assert bench_summary.spread([5, 1, 4, 2, 3]) == \
            {"median": 3, "q1": 2, "q3": 4, "runs": 5}
        assert bench_summary.spread([1, 2, 3, 4]) == \
            {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": 4}


class TestPairs:
    def test_wins_are_counted_in_each_metric_s_direction(self, tmp_path):
        write_runs(tmp_path / "parent", "sweep",
                   {"run_s": [1.0, 1.0, 1.0, 1.0], "pass_rate": [0.9, 0.9, 1.0, 1.0]})
        write_runs(tmp_path / "change", "sweep",
                   {"run_s": [0.9, 0.9, 0.9, 1.1], "pass_rate": [1.0, 0.8, 1.0, 1.0]})
        entry = summarise(tmp_path)["sweep"]
        assert entry["seeds"] == [1, 2, 3, 4]
        # lower is better for run_s, higher for pass_rate; a tie is no win
        assert entry["verdict"]["run_s"]["change_better_in"] == "3/4"
        assert entry["verdict"]["pass_rate"]["change_better_in"] == "1/4"
        assert entry["parent"]["run_s"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "runs": 4}
        assert entry["change"]["pass_rate"]["median"] == 1.0

    def test_smoke_records_and_unpaired_seeds_are_left_out(self, tmp_path):
        write_runs(tmp_path / "parent", "sweep", {"run_s": [1.0, 2.0, 3.0, 4.0]})
        write_runs(tmp_path / "change", "sweep", {"run_s": [1.0, 2.0]}, seeds=[2, 3])
        write_runs(tmp_path / "change", "sweep", {"run_s": [9.0]}, seeds=[4], smoke=True)
        # a workload with a single pair has no summary
        write_runs(tmp_path / "parent", "motifs", {"run_s": [1.0, 1.0]})
        write_runs(tmp_path / "change", "motifs", {"run_s": [1.0]}, seeds=[2])
        workloads = summarise(tmp_path)
        assert list(workloads) == ["sweep"]
        assert workloads["sweep"]["seeds"] == [2, 3]
        assert workloads["sweep"]["parent"]["run_s"]["median"] == 2.5


def verdict(before, after, better="lower", bound=0.25):
    return bench_summary.verdict(before, after, better, bound)


class TestVerdict:
    def test_worse_beyond_the_bound(self):
        v = verdict([1.0] * 10, [1.3] * 10)
        assert v["verdict"] == "worse" and v["worse_by"] == pytest.approx(0.3)
        assert not v["gain"]

    def test_worse_when_a_higher_is_better_metric_falls(self):
        v = verdict([1.0] * 10, [0.98] * 10, better="higher", bound=0.01)
        assert v["verdict"] == "worse" and v["worse_by"] == pytest.approx(0.02)

    def test_within_bound(self):
        v = verdict([1.0, 1.01, 0.99, 1.0], [1.1, 1.12, 1.09, 1.1])
        assert v["verdict"] == "within bound"
        assert v["worse_by"] == pytest.approx(0.1)

    def test_unresolved_when_the_parent_spreads_beyond_the_bound(self):
        # parent IQR / median = 0.5 / 1.0 > 0.25, the change no worse than that
        v = verdict([0.5, 0.75, 1.0, 1.25, 1.5], [0.6, 0.8, 1.1, 1.2, 1.4])
        assert v["verdict"] == "unresolved"

    def test_resolved_when_every_change_run_beats_every_parent_run(self):
        v = verdict([0.5, 0.75, 1.0, 1.25, 1.5], [0.1, 0.2, 0.3, 0.4, 0.45])
        assert v["verdict"] == "within bound" and v["worse_by"] == pytest.approx(-0.7)
        v = verdict([0.5, 0.75, 1.0, 1.25, 1.5], [1.6, 1.7, 1.8, 1.9, 2.0],
                    better="higher", bound=0.25)
        assert v["verdict"] == "within bound" and v["worse_by"] == pytest.approx(-0.8)

    def test_worse_outranks_unresolved(self):
        assert verdict([0.5, 0.75, 1.0, 1.25, 1.5], [2.0] * 5)["verdict"] == "worse"

    def test_gain_needs_nine_wins_in_ten_and_more_than_the_parent_iqr(self):
        parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
        faster = [0.9] * 9 + [1.1]
        assert verdict(parent, faster)["gain"]                     # 9/10
        assert not verdict(parent, [0.9] * 8 + [1.1] * 2)["gain"]  # 8/10
        # 10/10 wins, but by less than the parent's IQR of 0.015
        assert not verdict(parent, [p - 0.005 for p in parent])["gain"]
        assert verdict([0.9] * 10, [1.0] * 10, better="higher")["gain"]

    def test_zero_parent_median(self):
        assert verdict([0.0] * 4, [0.0] * 4)["worse_by"] == 0.0
        assert verdict([0.0] * 4, [1.0] * 4)["worse_by"] == math.inf


class TestMain:
    def run(self, tmp_path, capsys):
        out = tmp_path / "BENCH_test.json"
        code = bench_summary.main(["--label", "test", "--parent", str(tmp_path / "parent"),
                                   "--change", str(tmp_path / "change"),
                                   "--out", str(out)])
        assert code == 0
        return json.loads(out.read_text()), capsys.readouterr().out

    def test_writes_and_prints_each_verdict(self, tmp_path, capsys):
        write_runs(tmp_path / "parent", "operator", {"run_s": [1.0, 1.01, 0.99]})
        write_runs(tmp_path / "change", "operator", {"run_s": [1.5, 1.5, 1.5]})
        summary, printed = self.run(tmp_path, capsys)
        assert summary["machine"]["nproc"] == 2 and summary["seconds_per_run"] == [40]
        verdicts = summary["workloads"]["operator"]["verdict"]
        bounds = {m["name"]: m["bound"] for m in json.loads(
            (TOOL.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]}
        assert set(verdicts) == set(bounds)
        assert verdicts["run_s"]["verdict"] == "worse"
        assert verdicts["run_s"]["bound"] == bounds["run_s"]
        assert verdicts["peak_mb"]["verdict"] == "within bound"
        lines = printed.splitlines()
        assert len(lines) == len(bounds)
        assert any(line.startswith("operator  run_s ") and line.endswith(": worse")
                   for line in lines)

    def test_machine_lines_must_agree(self, tmp_path, capsys):
        write_runs(tmp_path / "parent", "sweep", {"run_s": [1.0, 1.0]})
        write_runs(tmp_path / "change", "sweep", {"run_s": [1.0, 1.0]},
                   machine=dict(MACHINE, numpy="1.26.4"))
        with pytest.raises(SystemExit, match="2 different machine lines"):
            self.run(tmp_path, capsys)

    def test_no_workload_with_two_pairs(self, tmp_path, capsys):
        write_runs(tmp_path / "parent", "sweep", {"run_s": [1.0, 1.0]})
        write_runs(tmp_path / "change", "sweep", {"run_s": [1.0]})
        with pytest.raises(SystemExit, match="no workload has two or more paired runs"):
            self.run(tmp_path, capsys)
