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

    @pytest.mark.parametrize("kind, width", [("gcn2", "50"), ("gcn", "256")])
    def test_conv_prints_the_width_the_layer_runs_at(self, capsys, kind,
                                                     width):
        """gcn2 keeps ppi's 50 input features; the others run at 256."""
        assert main(["conv", "--dataset", "ppi", "--kind", kind]) == 0
        row = capsys.readouterr().out.splitlines()[2].split()
        assert row[:2] == ["ppi", width]

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

    @pytest.mark.parametrize("argv", [
        ["loader", "--dataset", "ppi"],
        ["samplers", "--dataset", "ppi", "--sampler", "saint_rw"],
        ["conv", "--dataset", "ppi", "--kind", "sage"],
        ["train", "--dataset", "ppi", "--epochs", "1"],
        ["fullbatch", "--dataset", "ppi", "--epochs", "1"],
    ], ids=lambda argv: argv[0])
    def test_output_is_deterministic_across_runs(self, capsys, argv):
        """Every printed number is simulated, so a re-run prints the same
        table to the last digit."""
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("argv", [
    ["report", "--telemetry", "out/tel"],
    ["report", "--top", "2"],
    ["report", "--sort", "bytes"],
    ["serve", "--reference-kernels"],
    ["train", "--reference-kernels"],
], ids=["report-telemetry", "report-top", "report-sort",
        "serve-reference-kernels", "train-reference-kernels"])
def test_retired_options_are_argparse_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


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

    def test_profile_analyze_shows_resilience_section(self, tmp_path,
                                                      capsys):
        plan = self._write_plan(tmp_path)
        out_dir = tmp_path / "telemetry"
        assert main(["train", "--dataset", "ppi", "--epochs", "1",
                     "--placement", "cpugpu", "--faults", str(plan),
                     "--telemetry", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["profile", "analyze", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "    storage.read       1 injected    1 recovered    1 " \
            "retries" in out
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

    @pytest.mark.parametrize("argv", [
        ["train", "--dataset", "ppi", "--epochs", "1"],
        ["serve", "--dataset", "ppi", "--scale", "0.3", "--requests", "8",
         "--rates", "100"],
    ], ids=["train", "serve"])
    def test_exhausted_recovery_is_a_one_line_error(self, argv, tmp_path,
                                                    capsys):
        import json
        plan = tmp_path / "exhaust.json"
        plan.write_text(json.dumps({
            "faults": [{"site": "storage.read", "kind": "error",
                        "count": 99}],
            "policies": {"storage.read": {"max_retries": 0}},
        }))
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--faults", str(plan)])
        assert exc.value.code == (
            f"repro {argv[0]}: storage.read: still failing after 1 "
            "attempt(s); retry budget exhausted")
        capsys.readouterr()

    def test_missing_plan_file_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "ppi", "--epochs", "1",
                  "--faults", "/nonexistent/plan.json"])


@pytest.mark.parametrize("flags, message", [
    (["--rates", "nan"], "need finite positive rates, got 'nan'"),
    (["--rates", "100,nan"], "need finite positive rates, got '100,nan'"),
    (["--rates", "inf"], "need finite positive rates, got 'inf'"),
    (["--budget-ms", "nan"], "latency budget must be finite and > 0"),
    (["--scale", "nan"], "dataset scale must be finite and > 0, got nan"),
    (["--scale", "0"], "dataset scale must be finite and > 0, got 0.0"),
    (["--nodes-per-request", "0"], "nodes_per_request must be >= 1"),
], ids=["rate-nan", "rates-100-nan", "rate-inf", "budget-nan", "scale-nan",
        "scale-0", "nodes-per-request-0"])
def test_serve_rejects_a_bad_knob_with_one_line(flags, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--dataset", "ppi", "--scale", "0.3",
              "--requests", "8"] + flags)
    assert exc.value.code.startswith("repro serve: ")
    assert message in exc.value.code and "\n" not in exc.value.code
    assert capsys.readouterr().out == ""  # rejected before any work


@pytest.mark.parametrize("command, message", [
    ("train", "epochs and representative_batches must be >= 1"),
    ("fullbatch", "epochs must be >= 1, got 0"),
])
def test_zero_epochs_is_a_one_line_error(command, message, capsys):
    """A rejected argument ends the command with one ``repro <cmd>:`` line,
    not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--dataset", "ppi", "--epochs", "0"])
    assert exc.value.code == f"repro {command}: {message}"
    capsys.readouterr()
