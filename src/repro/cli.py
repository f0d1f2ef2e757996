"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's experiment families:

* ``datasets`` — print Table 1.
* ``loader`` — Figure 3 (data-loader runtime for one or all datasets).
* ``samplers`` — Figure 4 (per-epoch sampler runtime).
* ``conv`` — Figure 5 (conv-layer forward runtime).
* ``train`` — Figures 6-21 (one end-to-end training experiment).
* ``serve`` — online inference serving with latency-budget
  micro-batching (``repro.serve/1`` report).
* ``fullbatch`` — Figures 22-24 (full-batch GraphSAGE).
* ``bench sweep`` / ``bench gate`` — perf-trajectory sweep matrix and
  the regression gate over the committed ``BENCH_*.json`` baselines.
* ``profile analyze`` / ``profile diff`` — offline critical-path,
  roofline, and differential analysis over telemetry directories.
"""

from __future__ import annotations

import argparse
import math
from typing import List, Optional

from repro.bench import (
    measure_conv_forward,
    measure_data_loader,
    measure_sampler_epoch,
    run_fullbatch_experiment,
    run_training_experiment,
)
from repro.datasets import DATASET_NAMES, list_datasets
from repro.errors import RecoveryExhausted
from repro.frameworks.nn import CONVS
from repro.telemetry.spans import PHASES

FRAMEWORKS = ("dglite", "pyglite")


def _dataset_args(value: str) -> List[str]:
    if value == "all":
        return list(DATASET_NAMES)
    if value not in DATASET_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown dataset {value!r}; pick 'all' or one of {DATASET_NAMES}"
        )
    return [value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for the IISWC'22 GNN-framework "
                    "characterization study.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print Table 1")

    loader = sub.add_parser("loader", help="Figure 3: data-loader runtime")
    loader.add_argument("--dataset", type=_dataset_args, default=list(DATASET_NAMES))

    samplers = sub.add_parser("samplers", help="Figure 4: sampler runtime")
    samplers.add_argument("--dataset", type=_dataset_args, default=["flickr"])
    samplers.add_argument("--sampler", choices=("neighbor", "cluster", "saint_rw"),
                          default="neighbor")
    samplers.add_argument("--seed", type=int, default=0,
                          help="sampler RNG seed (default 0, deterministic)")

    conv = sub.add_parser("conv", help="Figure 5: conv-layer forward runtime")
    conv.add_argument("--dataset", type=_dataset_args, default=["flickr"])
    conv.add_argument("--kind", default="gcn", choices=tuple(CONVS))
    conv.add_argument("--device", choices=("cpu", "gpu"), default="cpu")

    train = sub.add_parser("train", help="Figures 6-21: end-to-end training")
    train.add_argument("--framework", choices=FRAMEWORKS, default="dglite")
    train.add_argument("--dataset", type=_dataset_args, default=["ppi"])
    train.add_argument("--model",
                       choices=("graphsage", "clustergcn", "graphsaint"),
                       default="graphsage")
    train.add_argument("--placement",
                       choices=("cpu", "cpugpu", "gpu", "uvagpu"),
                       default="cpu")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--preload", action="store_true")
    train.add_argument("--prefetch", action="store_true")
    train.add_argument("--cache-fraction", type=float, default=0.0)
    train.add_argument("--workers", type=int, default=0,
                       help="parallel sampling workers (0 = inline); w keeps "
                            "at least w mini-batches in flight")
    train.add_argument("--pipeline", default="off", metavar="SPEC",
                       help="mini-batches in flight on the sampler/PCIe/GPU "
                            "lanes: 'off' (one: the serial schedule) or "
                            "'depth-N'")
    train.add_argument("--seed", type=int, default=0,
                       help="sampler/model RNG seed (default 0, deterministic)")
    train.add_argument("--telemetry", default=None, metavar="DIR",
                       help="write run.json/events.jsonl/metrics.prom/"
                            "trace.json to DIR (per-dataset subdirs when "
                            "multiple datasets are selected)")
    train.add_argument("--faults", default=None, metavar="PLAN",
                       help="JSON fault plan to inject deterministically "
                            "(schema in docs/resilience.md)")
    train.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                       help="save a resumable checkpoint every K epochs "
                            "(default: off)")
    train.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="checkpoint file for --checkpoint-every "
                            "(default out/ckpt.npz)")
    train.add_argument("--resume-from", default=None, metavar="PATH",
                       help="resume training from a checkpoint written by "
                            "--checkpoint-every")
    train.add_argument("--halt-after", type=int, default=None, metavar="E",
                       help="stop after E epochs as a simulated crash "
                            "(pair with --checkpoint-every, then resume)")
    train.add_argument("--reference-kernels", action="store_true",
                       help="run on the naive reference kernel schedule "
                            "(A/B partner for `repro profile diff`; charged "
                            "virtual cost is identical to the fast path)")

    serve = sub.add_parser(
        "serve",
        help="online inference serving: latency-budget micro-batching on "
             "the virtual clock (repro.serve/1 report)")
    serve.add_argument("--framework", choices=FRAMEWORKS + ("both",),
                       default="both")
    serve.add_argument("--dataset", choices=DATASET_NAMES, default="ppi")
    serve.add_argument("--rates", default="100", metavar="R1,R2,...",
                       help="comma-separated offered loads in requests per "
                            "virtual second (one serving window each)")
    serve.add_argument("--requests", type=int, default=64,
                       help="requests per serving window (default 64)")
    serve.add_argument("--trace", choices=("poisson", "bursty", "diurnal"),
                       default="poisson")
    serve.add_argument("--nodes-per-request", type=int, default=1)
    serve.add_argument("--budget-ms", type=float, default=50.0,
                       help="micro-batcher latency budget: no request waits "
                            "in the batcher longer than this (default 50)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch size cap (default 32)")
    serve.add_argument("--placement", choices=("cpu", "cpugpu"),
                       default="cpugpu")
    serve.add_argument("--pipeline", default="depth-4", metavar="SPEC",
                       help="'off' (serial batches) or 'depth-N' (N batches "
                            "in flight on the serving lanes; default depth-4)")
    serve.add_argument("--cache-fraction", type=float, default=0.25)
    serve.add_argument("--cache-policy", choices=("degree", "random"),
                       default="degree")
    serve.add_argument("--degraded", choices=("shed", "stale"),
                       default="shed",
                       help="on exhausted fault recovery: shed the batch or "
                            "serve stale-cache answers (default shed)")
    serve.add_argument("--seed", type=int, default=0,
                       help="trace/model RNG seed (default 0, deterministic)")
    serve.add_argument("--scale", type=float, default=1.0,
                       help="dataset logical-scale multiplier (default 1.0)")
    serve.add_argument("--faults", default=None, metavar="PLAN",
                       help="JSON fault plan for degraded-mode injection "
                            "(schema in docs/resilience.md)")
    serve.add_argument("--out", default=None, metavar="FILE",
                       help="write the repro.serve/1 JSON report here "
                            "(byte-identical across same-seed runs)")

    fullbatch = sub.add_parser("fullbatch", help="Figures 22-24: full-batch SAGE")
    fullbatch.add_argument("--framework", choices=FRAMEWORKS, default="dglite")
    fullbatch.add_argument("--dataset", type=_dataset_args, default=["ppi"])
    fullbatch.add_argument("--device", choices=("cpu", "gpu"), default="cpu")
    fullbatch.add_argument("--epochs", type=int, default=3)
    fullbatch.add_argument("--seed", type=int, default=0,
                           help="model RNG seed (default 0, deterministic)")

    sub.add_parser("observations",
                   help="run the eight-observation reproduction checklist")

    report = sub.add_parser("report",
                            help="aggregate benchmarks/results/*.txt into one file")
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--out", default=None,
                        help="write to this file instead of stdout")

    profile = sub.add_parser(
        "profile",
        help="offline analysis over telemetry artifacts (repro.profile/1)")
    profile_sub = profile.add_subparsers(dest="profile_command", required=True)
    analyze = profile_sub.add_parser(
        "analyze",
        help="critical path + roofline + flamegraph for one run directory")
    analyze.add_argument("dir", help="telemetry directory from "
                                     "`repro train --telemetry DIR`")
    analyze.add_argument("--out", default=None, metavar="DIR",
                         help="write profile.json/flame.folded here instead "
                              "of into the run directory")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    pdiff = profile_sub.add_parser(
        "diff",
        help="attribute the virtual-time delta between two run directories")
    pdiff.add_argument("base", help="baseline telemetry directory")
    pdiff.add_argument("current", help="comparison telemetry directory")
    pdiff.add_argument("--out", default=None, metavar="FILE",
                       help="also write the repro.profile/1 diff JSON here")
    pdiff.add_argument("--format", choices=("text", "json"), default="text")

    bench = sub.add_parser(
        "bench",
        help="perf-trajectory sweeps and regression gates (BENCH_*.json)")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    sweep = bench_sub.add_parser(
        "sweep",
        help="run the kernel/training sweep matrix and write BENCH_*.json")
    sweep.add_argument("--area",
                       choices=("kernels", "training", "serving", "all"),
                       default="all")
    sweep.add_argument("--out-dir", default=".",
                       help="directory for BENCH_<area>.json (default: repo "
                            "root, i.e. the committed baselines)")

    gate = bench_sub.add_parser(
        "gate",
        help="re-run the baseline's sweep cells and fail unless every "
             "cell reproduces bit for bit")
    gate.add_argument("--area",
                      choices=("kernels", "training", "serving", "all"),
                      default="all")
    gate.add_argument("--baseline-dir", default=".",
                      help="directory holding the committed BENCH_*.json")
    return parser


def cmd_datasets() -> None:
    print(f"{'dataset':<15}{'#nodes':>12}{'#edges':>14}{'#feat':>7}"
          f"{'#cls':>6}{'task':>12}{'split':>18}")
    for spec in list_datasets():
        task = "multi-label" if spec.multilabel else "single"
        split = f"{spec.split.train:.2f}/{spec.split.val:.2f}/{spec.split.test:.2f}"
        print(f"{spec.name:<15}{spec.logical_num_nodes:>12,}"
              f"{spec.logical_num_edges:>14,}{spec.num_features:>7}"
              f"{spec.num_classes:>6}{task:>12}{split:>18}")


def cmd_loader(datasets: List[str]) -> None:
    print(f"{'dataset':<15}" + "".join(f"{fw:>12}" for fw in FRAMEWORKS))
    for ds in datasets:
        cells = "".join(
            f"{measure_data_loader(fw, ds):>11.3f}s" for fw in FRAMEWORKS
        )
        print(f"{ds:<15}{cells}")


def cmd_samplers(datasets: List[str], sampler: str, seed: int = 0) -> None:
    print(f"sampler = {sampler}")
    print(f"{'dataset':<15}{'DGLite':>12}{'PyGLite':>12}{'ratio':>8}")
    for ds in datasets:
        dgl = measure_sampler_epoch("dglite", ds, sampler, seed=seed)["epoch"]
        pyg = measure_sampler_epoch("pyglite", ds, sampler, seed=seed)["epoch"]
        print(f"{ds:<15}{dgl:>11.3f}s{pyg:>11.3f}s{pyg / dgl:>7.1f}x")


def cmd_conv(datasets: List[str], kind: str, device: str) -> None:
    print(f"layer = {kind}, device = {device}, out_dim = 256")
    print(f"{'dataset':<15}{'DGLite':>14}{'PyGLite':>14}")
    for ds in datasets:
        cells = []
        for fw in FRAMEWORKS:
            result = measure_conv_forward(fw, ds, kind, device=device)
            cells.append("OOM" if result.oom
                         else f"{result.phases['forward'] * 1000:.3f}ms")
        print(f"{ds:<15}{cells[0]:>14}{cells[1]:>14}")


def cmd_train(args: argparse.Namespace) -> None:
    fault_plan = args.faults
    if fault_plan is not None:
        from repro.errors import FaultPlanError
        from repro.resilience import FaultPlan

        try:
            fault_plan = FaultPlan.from_file(fault_plan)
        except FaultPlanError as exc:
            raise SystemExit(f"repro train: {exc}")
    checkpoint = args.checkpoint
    if args.checkpoint_every and not checkpoint:
        checkpoint = "out/ckpt.npz"
    for ds in args.dataset:
        telemetry_dir = None
        if args.telemetry:
            telemetry_dir = args.telemetry
            if len(args.dataset) > 1:
                from pathlib import Path

                telemetry_dir = str(Path(args.telemetry) / ds)
        result = run_training_experiment(
            args.framework, ds, args.model, placement=args.placement,
            preload=args.preload, prefetch=args.prefetch, epochs=args.epochs,
            feature_cache_fraction=args.cache_fraction,
            num_workers=args.workers,
            pipeline=args.pipeline,
            seed=args.seed,
            telemetry_dir=telemetry_dir,
            fastpath=not args.reference_kernels,
            fault_plan=fault_plan,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=checkpoint,
            resume_from=args.resume_from,
            halt_after_epochs=args.halt_after,
        )
        print(f"\n{result.label} / {args.model} / {ds} "
              f"({args.epochs} epochs, {result.batches_per_epoch} batches/epoch)")
        for phase in PHASES:
            seconds = result.phases.get(phase, 0.0)
            print(f"  {phase:<15}{seconds:>10.2f}s "
                  f"{100 * result.phase_fraction(phase):>5.1f}%")
        print(f"  {'total':<15}{result.total_time:>10.2f}s")
        print(f"  avg power {result.avg_power:.1f} W, "
              f"energy {result.total_energy:.1f} J")
        if result.resilience:
            r = result.resilience
            print(f"  faults: {r.get('injected', 0)} injected, "
                  f"{r.get('recovered', 0)} recovered, "
                  f"{r.get('retries', 0)} retries, "
                  f"{r.get('degraded', 0)} degraded")
        if not result.completed:
            print(f"  halted after --halt-after {args.halt_after} epoch(s); "
                  f"resume with --resume-from {checkpoint}")
        if result.artifacts:
            print("  telemetry:")
            for name in sorted(result.artifacts):
                print(f"    {name:<10}{result.artifacts[name]}")


def _parse_rates(value: str) -> List[float]:
    try:
        rates = [float(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"repro serve: invalid rate list {value!r}")
    if not rates or not all(math.isfinite(r) and r > 0 for r in rates):
        raise SystemExit("repro serve: need finite positive rates, "
                         f"got {value!r}")
    return rates


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import BenchmarkError, FaultPlanError
    from repro.serving import (
        SERVE,
        ServeConfig,
        build_serve_report,
        format_serve_table,
        run_serving_curve,
    )

    fault_plan = args.faults
    if fault_plan is not None:
        from repro.resilience import FaultPlan

        try:
            fault_plan = FaultPlan.from_file(fault_plan)
        except FaultPlanError as exc:
            raise SystemExit(f"repro serve: {exc}")
    rates = _parse_rates(args.rates)
    frameworks = (list(FRAMEWORKS) if args.framework == "both"
                  else [args.framework])
    try:
        base = ServeConfig(
            framework=frameworks[0],
            dataset=args.dataset,
            rate=rates[0],
            num_requests=args.requests,
            trace=args.trace,
            nodes_per_request=args.nodes_per_request,
            budget_s=args.budget_ms / 1000.0,
            max_batch=args.max_batch,
            placement=args.placement,
            pipeline=args.pipeline,
            cache_fraction=args.cache_fraction,
            cache_policy=args.cache_policy,
            degraded_mode=args.degraded,
            seed=args.seed,
            dataset_scale=args.scale,
        )
    except BenchmarkError as exc:
        raise SystemExit(f"repro serve: {exc}")
    print(f"serve: {args.dataset} {args.trace} trace, "
          f"{args.requests} requests/window, budget {args.budget_ms:g} ms, "
          f"max batch {args.max_batch}, seed {args.seed}")
    results = run_serving_curve(base, rates, frameworks,
                                fault_plan=fault_plan, progress=print)
    report = build_serve_report(base, results)
    print()
    print(format_serve_table(report))
    shed = sum(r.shed for r in results)
    stale = sum(r.stale for r in results)
    if shed or stale:
        print(f"degraded service: {shed} request(s) shed, "
              f"{stale} served stale")
    if args.out:
        path = SERVE.write(args.out, report)
        print(f"wrote {path}")
    return 0


def cmd_fullbatch(args: argparse.Namespace) -> None:
    for ds in args.dataset:
        result = run_fullbatch_experiment(args.framework, ds,
                                          device=args.device,
                                          epochs=args.epochs,
                                          seed=args.seed)
        if result.oom:
            print(f"{result.label} / {ds}: OOM ({result.error})")
            continue
        print(f"{result.label} / {ds}: "
              f"{result.phases['training'] * 1000:.3f} ms/epoch, "
              f"avg power {result.avg_power:.1f} W, "
              f"energy {result.total_energy:.1f} J")


def cmd_report(args: argparse.Namespace) -> int:
    """Concatenate every emitted result table into one report."""
    from pathlib import Path

    results_dir = Path(args.results_dir)
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        print(f"no result tables under {results_dir} "
              "(run `pytest benchmarks/ --benchmark-only` first)")
        return 1
    sections = [f"Aggregated benchmark report ({len(files)} tables)\n"]
    for path in files:
        sections.append(f"\n### {path.stem}\n")
        sections.append(path.read_text().rstrip())
    text = "\n".join(sections) + "\n"
    if args.out:
        from repro.artifacts import atomic_write

        atomic_write(args.out, text)
        print(f"wrote {args.out} ({len(files)} tables)")
    else:
        print(text)
    return 0


def _bench_areas(value: str) -> List[str]:
    from repro.bench.artifacts import SWEEP_AREAS

    return list(SWEEP_AREAS) if value == "all" else [value]


def cmd_bench_sweep(args: argparse.Namespace) -> int:
    from repro.bench.artifacts import SWEEP, artifact_path
    from repro.bench.sweep import DEFAULT_SEEDS, run_sweep

    for area in _bench_areas(args.area):
        print(f"sweep: {area} (seeds {list(DEFAULT_SEEDS)})")
        artifact = run_sweep(area, progress=print)
        path = SWEEP.write(artifact_path(args.out_dir, area), artifact)
        print(f"wrote {path} ({len(artifact['cells'])} cells)")
    return 0


def cmd_bench_gate(args: argparse.Namespace) -> int:
    from repro.artifacts import load
    from repro.bench.artifacts import artifact_path, validate_baseline_dir
    from repro.bench.gate import GateResult, compare_artifacts, format_gate_report
    from repro.bench.sweep import SweepCell, run_sweep
    from repro.errors import BenchmarkError

    areas = _bench_areas(args.area)
    # A bad baseline is reported before any cell runs: nothing swept
    # against it could be compared.
    results = [GateResult(area=area, problems=problems)
               for area, problems
               in validate_baseline_dir(args.baseline_dir, areas).items()
               if problems]
    if not results:
        for area in areas:
            baseline = load(artifact_path(args.baseline_dir, area))
            try:
                fresh = run_sweep(area, seeds=baseline["seeds"],
                                  cells=[SweepCell.from_params(cell["params"])
                                         for cell in baseline["cells"]])
            except BenchmarkError as exc:
                results.append(GateResult(area=area, problems=[str(exc)]))
                continue
            results.append(compare_artifacts(baseline, fresh))
    print(format_gate_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.artifacts import dumps
    from repro.errors import BenchmarkError

    try:
        if args.profile_command == "analyze":
            from repro.profiling.analysis import (
                analyze_run_dir,
                format_profile_report,
            )

            bundle, payload = analyze_run_dir(args.dir, out_dir=args.out)
            if args.format == "json":
                print(dumps(payload), end="")
            else:
                print(format_profile_report(payload, bundle))
                for name, path in sorted(payload["artifacts"].items()):
                    print(f"wrote {name}: {path}")
            return 0
        from repro.profiling.analysis import diff_run_dirs, format_diff_report

        payload = diff_run_dirs(args.base, args.current)
        if args.out:
            from repro.profiling.analysis import PROFILE

            path = PROFILE.write(args.out, payload)
            print(f"wrote diff: {path}")
        if args.format == "json":
            print(dumps(payload), end="")
        else:
            print(format_diff_report(payload))
        return 0
    except BenchmarkError as exc:
        print(f"repro profile: {exc}")
        return 1


def cmd_bench(args: argparse.Namespace) -> int:
    if args.bench_command == "sweep":
        return cmd_bench_sweep(args)
    return cmd_bench_gate(args)


def _validate_parsed_args(parser: argparse.ArgumentParser,
                          args: argparse.Namespace) -> None:
    """Cross-flag checks that argparse cannot express per-argument.

    ``--pipeline depth-N`` (N >= 2) is CPU-side sampling overlap: combining
    it with an on-device sampling placement is rejected here, at parse
    time, as a hard argument error (exit code 2) — the same shared
    validation path (:func:`repro.datapipe.config.
    validate_pipeline_placement`) runs again inside ``TrainConfig`` and
    ``ServeConfig`` for programmatic callers.
    """
    if args.command in ("train", "serve"):
        from repro.datapipe.config import validate_pipeline_placement
        from repro.errors import BenchmarkError

        try:
            validate_pipeline_placement(args.pipeline, args.placement)
        except BenchmarkError as exc:
            parser.error(str(exc))


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_parsed_args(parser, args)
    try:
        return _dispatch(args)
    except RecoveryExhausted as exc:  # a --faults plan outlasted its retries
        raise SystemExit(f"repro {args.command}: {exc}")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "datasets":
        cmd_datasets()
    elif args.command == "loader":
        cmd_loader(args.dataset)
    elif args.command == "samplers":
        cmd_samplers(args.dataset, args.sampler, seed=args.seed)
    elif args.command == "conv":
        cmd_conv(args.dataset, args.kind, args.device)
    elif args.command == "train":
        cmd_train(args)
    elif args.command == "serve":
        return cmd_serve(args)
    elif args.command == "fullbatch":
        cmd_fullbatch(args)
    elif args.command == "observations":
        from repro.bench.observations import (
            format_observation_report,
            run_all_observations,
        )

        results = run_all_observations()
        print(format_observation_report(results))
        return 0 if all(r.passed for r in results) else 1
    elif args.command == "report":
        return cmd_report(args)
    elif args.command == "profile":
        return cmd_profile(args)
    elif args.command == "bench":
        return cmd_bench(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
