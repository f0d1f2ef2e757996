"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loader", "--dataset", "cora"])

    def test_dataset_all_expands(self):
        args = build_parser().parse_args(["loader", "--dataset", "all"])
        assert len(args.dataset) == 6

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "graphsage"
        assert args.placement == "cpu"
        assert args.epochs == 10


class TestCommands:
    def test_datasets_prints_table1(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "reddit" in out
        assert "114,615,892" in out

    def test_loader(self, capsys):
        assert main(["loader", "--dataset", "ppi"]) == 0
        out = capsys.readouterr().out
        assert "ppi" in out and "s" in out

    def test_samplers(self, capsys):
        assert main(["samplers", "--dataset", "ppi", "--sampler", "saint_rw"]) == 0
        out = capsys.readouterr().out
        assert "saint_rw" in out and "x" in out

    @pytest.mark.parametrize("kind", ["sage", "gin"])
    def test_conv(self, capsys, kind):
        assert main(["conv", "--dataset", "ppi", "--kind", kind]) == 0
        out = capsys.readouterr().out
        assert kind in out and "ms" in out

    def test_conv_reports_oom(self, capsys):
        assert main(["conv", "--dataset", "reddit", "--kind", "gat",
                     "--device", "gpu"]) == 0
        out = capsys.readouterr().out
        assert "OOM" in out

    def test_train(self, capsys):
        assert main(["train", "--dataset", "ppi", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "sampling" in out and "avg power" in out

    def test_train_with_cache(self, capsys):
        assert main(["train", "--dataset", "ppi", "--epochs", "1",
                     "--placement", "cpugpu", "--cache-fraction", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "cache50" in out

    def test_fullbatch(self, capsys):
        assert main(["fullbatch", "--dataset", "ppi", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "ms/epoch" in out


class TestSuiteCommand:
    def _suite_file(self, tmp_path):
        import json
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([
            {"kind": "loader", "framework": "dglite", "dataset": "ppi"},
        ]))
        return path

    def test_runs_and_prints_records(self, tmp_path, capsys):
        assert main(["suite", str(self._suite_file(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "loader/dglite" in out

    def test_writes_results(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        assert main(["suite", str(self._suite_file(tmp_path)),
                     "--out", str(out_file)]) == 0
        assert out_file.exists()

    def test_compare_clean_run_exits_zero(self, tmp_path, capsys):
        suite = self._suite_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["suite", str(suite), "--out", str(baseline)])
        assert main(["suite", str(suite), "--compare", str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_flags_drift(self, tmp_path, capsys):
        import json
        suite = self._suite_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["suite", str(suite), "--out", str(baseline)])
        records = json.loads(baseline.read_text())
        records[0]["seconds"] *= 10
        baseline.write_text(json.dumps(records))
        assert main(["suite", str(suite), "--compare", str(baseline)]) == 1
        assert "regression" in capsys.readouterr().out


class TestReportCommand:
    def test_aggregates_result_tables(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig99_demo.txt").write_text("Figure 99: demo\ncells")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "fig99_demo" in out and "Figure 99" in out

    def test_writes_to_file(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "a.txt").write_text("table A")
        out_file = tmp_path / "report.txt"
        assert main(["report", "--results-dir", str(results),
                     "--out", str(out_file)]) == 0
        assert "table A" in out_file.read_text()

    def test_empty_results_dir_errors(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["report", "--results-dir", str(empty)]) == 1


class TestResilienceCli:
    PLAN = {
        "seed": 0,
        "faults": [
            {"site": "storage.read", "kind": "error"},
            {"site": "transfer.h2d", "kind": "stall", "stall_seconds": 0.01},
        ],
    }

    def _write_plan(self, tmp_path):
        import json
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.PLAN))
        return path

    def test_train_with_fault_plan(self, tmp_path, capsys):
        plan = self._write_plan(tmp_path)
        assert main(["train", "--dataset", "ppi", "--epochs", "1",
                     "--placement", "cpugpu", "--faults", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "faults: 2 injected, 2 recovered" in out

    def test_report_telemetry_shows_resilience_section(self, tmp_path,
                                                       capsys):
        plan = self._write_plan(tmp_path)
        out_dir = tmp_path / "telemetry"
        assert main(["train", "--dataset", "ppi", "--epochs", "1",
                     "--placement", "cpugpu", "--faults", str(plan),
                     "--telemetry", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["report", "--telemetry", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "storage.read" in out
        assert "transfer.h2d" in out

    def test_checkpoint_halt_and_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.npz"
        assert main(["train", "--dataset", "ppi", "--epochs", "3",
                     "--checkpoint-every", "1", "--checkpoint", str(ckpt),
                     "--halt-after", "2"]) == 0
        out = capsys.readouterr().out
        assert "halted after" in out
        assert ckpt.exists()
        assert main(["train", "--dataset", "ppi", "--epochs", "3",
                     "--resume-from", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "avg power" in out

    def test_missing_plan_file_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "ppi", "--epochs", "1",
                  "--faults", "/nonexistent/plan.json"])
