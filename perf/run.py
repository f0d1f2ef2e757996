#!/usr/bin/env python3
"""Run one workload of the perf benchmark in one single-threaded process.

    python3 perf/run.py --workload sage_train [--seed 0] [--trace 0|1]
    python3 perf/run.py --list

Protocol (see perf/README.md for the measurements behind it): one untimed
warm-up, then R rounds of ``gc.collect()`` -> timed cold set-up ->
``gc.collect()`` -> timed block of fixed work; host timings keep the best
of the R rounds, per set-up and per operation.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` does fewer untraced
rounds, then one round under the layer tracer, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
metrics of that mode.  Exit status is non-zero when any unit or
verification check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROUNDS = 15
TRACE_ROUNDS = 5  # untraced rounds before the traced one with --trace 1


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def print_list(bench: dict) -> None:
    print("workloads:")
    for item in bench["workloads"]:
        print(f"  {item['name']:<16} {item['why']}")
    print("end-to-end metrics:")
    for item in bench["end_to_end"]:
        print(f"  {item['name']:<28} {item['unit']:<9} better={item['better']:<7}"
              f" bound={100 * item['bound']:g}%")
    print("per-layer metrics (no bound):")
    for item in bench["per_layer"]:
        print(f"  {item['name']:<28} {item['unit']:<9} better={item['better']}")


def iqr_frac(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def fingerprint(args, rounds: int) -> str:
    import numpy
    import scipy

    threads = " ".join(f"{var}={os.environ.get(var, '')}"
                       for var in THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} {threads} "
            f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', '')} "
            f"seed={args.seed} rounds={rounds} quick={int(args.quick)}")


def run_round(workload, seed: int) -> Tuple[float, List[float], list]:
    """One round: (seconds of one cold set-up, seconds per unit, the units).

    The set-up sample is the mean over ``setup_repeats`` cold set-ups.
    """
    gc.collect()
    start = time.perf_counter()
    for _ in range(workload.setup_repeats):
        state = workload.setup(seed)
    setup_s = time.perf_counter() - start
    gc.collect()
    marks: List[float] = []
    units = workload.block(state, seed,
                           lambda _kind: marks.append(time.perf_counter()))
    marks.append(time.perf_counter())
    return (setup_s / workload.setup_repeats,
            [b - a for a, b in zip(marks, marks[1:])], units)


def measure(workload, seed: int, rounds: int):
    """The untraced rounds: set-up time and unit times per round,
    ``sim_s`` per round, the last round's units, units attempted, and the
    failed units of any round."""
    setups: List[float] = []
    unit_times: List[List[float]] = []  # [round][unit position]
    sims: List[float] = []
    attempted = 0
    failures: list = []
    units: list = []
    for _ in range(rounds):
        round_setup, round_units, units = run_round(workload, seed)
        setups.append(round_setup)
        unit_times.append(round_units)
        sims.append(sum(unit.sim_s for unit in units))
        attempted += len(units)
        failures += [unit for unit in units if unit.error]
    return setups, unit_times, sims, units, attempted, failures


def traced_round(workload, seed: int, tracer) -> Tuple[float, list]:
    """One round under the tracer: (block seconds, the block's units)."""
    seen = set()

    def on_unit(kind: str) -> None:
        tracer.unit = f"{kind}#{len(seen)}"
        tracer.keep_spans = kind not in seen  # full spans: first of a kind
        seen.add(kind)

    gc.collect()
    tracer.start("setup")
    state = workload.setup(seed)
    tracer.stop()
    gc.collect()
    tracer.start("block")
    units = workload.block(state, seed, on_unit)
    return tracer.stop(), units


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the driver and ignored: the work "
                             "of a run is fixed, and sized to run_seconds")
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"default {ROUNDS}, or {TRACE_ROUNDS} untraced "
                             "rounds with --trace 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrunk unit counts (smoke test only)")
    parser.add_argument("--list", action="store_true")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.list:
        print_list(bench)
        return 0

    # One process, one thread: pin BLAS before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Started as a script, sys.path[0] is perf/ and perf/trace.py would
    # shadow the stdlib `trace`; import through the package instead.
    if sys.path and Path(sys.path[0] or ".").resolve() == ROOT / "perf":
        sys.path.pop(0)
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: interpreter-side import cost)
    from perf import workloads as wl
    from perf.trace import LAYERS, ROOT_LAYER, LayerTracer
    import_s = time.perf_counter() - start

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload](wl.QUICK if args.quick else wl.FULL)
    rounds = args.rounds or (TRACE_ROUNDS if args.trace else ROUNDS)

    print(f"# perf benchmark  workload={workload.name}  "
          f"unit={workload.unit!r}  trace={args.trace}")
    print(f"# host: {fingerprint(args, rounds)}")
    print("# simulated clock: cost model unvalidated in absolute terms "
          "(validated against the paper by shape only); no error figure")

    run_round(workload, args.seed)  # warm-up, untimed
    setups, unit_times, sims, units, attempted, failures = measure(
        workload, args.seed, rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    traced_block_s = 0.0
    traced_units: list = []
    if args.trace:
        tracer = LayerTracer()
        traced_block_s, traced_units = traced_round(workload, args.seed,
                                                    tracer)
        attempted += len(traced_units)
        failures += [unit for unit in traced_units if unit.error]

    # ---- verification (untimed, after RSS is read) -------------------
    for unit in failures[:3]:
        print(f"FAILED unit {unit.kind}:\n{unit.error}")
    checks = workload.checks(units, args.seed)
    checks.append(wl.Check("sim_s_first_round_eq_last", sims[0] == sims[-1],
                           f"{sims[0]!r} vs {sims[-1]!r}"))
    if args.trace:
        traced_sim = sum(unit.sim_s for unit in traced_units)
        checks.append(wl.Check("traced_sim_s_eq_untraced",
                               traced_sim == sims[-1],
                               f"{traced_sim!r} vs {sims[-1]!r}"))
    for check in checks:
        print(f"check {check.name:<58} {'ok' if check.ok else 'FAILED'}"
              f"{'  ' + check.detail if check.detail else ''}")
    attempted += len(checks)
    failed = len(failures) + sum(1 for check in checks if not check.ok)

    # ---- metrics ------------------------------------------------------
    blocks = [sum(times) for times in unit_times]
    # Host timings keep the best of the rounds, for the set-up and for each
    # operation of the block: the host's noise only ever adds time, and the
    # best of 15 moved half as much from run to run as the median did.
    best_block_s = sum(map(min, zip(*unit_times)))
    work = sum(unit.work for unit in units)
    end_to_end = {
        "host_units_per_s": work / best_block_s,
        "setup_s": min(setups),
        "host_peak_rss_mb": rss_mb,
        "sim_s": sims[-1],
    }
    per_layer: Dict[str, float] = dict(wl.sim_layer_metrics(units))
    per_layer.update({
        "perf.import_s": import_s,
        "perf.ops_attempted": attempted,
        "perf.ops_failed": failed,
        "perf.block_s_iqr_frac": iqr_frac(blocks),
        "perf.setup_s_iqr_frac": iqr_frac(setups),
    })
    if tracer is not None:
        block_self = tracer.self_seconds("block")
        setup_self = tracer.self_seconds("setup")
        entries = tracer.entries("block")
        for layer in LAYERS:
            per_layer[f"{layer}.host_self_s"] = block_self.get(layer, 0.0)
            per_layer[f"{layer}.calls"] = entries.get(layer, 0)
        per_layer["perf.trace_overhead_x"] = (
            traced_block_s / statistics.median(blocks))
        out_dir = ROOT / "perf" / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}.json"
        tracer.write_chrome_trace(str(trace_path))

    units_by_name = {item["name"]: item["unit"]
                     for item in bench["end_to_end"] + bench["per_layer"]}
    print(f"# rounds={len(blocks)}  units/block {work} in {len(units)} "
          f"operations  block_s at each operation's best {best_block_s:.4f}  "
          f"best round {min(blocks):.4f} median {statistics.median(blocks):.4f} (iqr "
          f"{100 * iqr_frac(blocks):.1f}%)  setup_s best {min(setups):.4f} "
          f"median {statistics.median(setups):.4f} (iqr "
          f"{100 * iqr_frac(setups):.1f}%; each round the mean of "
          f"{workload.setup_repeats} cold set-ups)")
    print(f"{'metric':<30} {'value':>16}  unit")
    for name, value in {**end_to_end, **per_layer}.items():
        print(f"{name:<30} {value:>16.6g}  {units_by_name.get(name, '')}")
    if tracer is not None:
        total = sum(block_self.values()) or 1.0
        setup_total = sum(setup_self.values()) or 1.0
        print(f"# traced block {traced_block_s:.4f} s; layer self-time shares "
              "of the block, of one cold set-up, and block entries by "
              "calling layer:")
        by_caller = sorted(tracer.entries_by_caller("block").items())
        for layer in (ROOT_LAYER,) + LAYERS:
            callers = ", ".join(f"{caller}:{count}"
                                for (caller, callee), count in by_caller
                                if callee == layer)
            print(f"#   {layer:<11} {100 * block_self.get(layer, 0.0) / total:6.2f}%"
                  f" {100 * setup_self.get(layer, 0.0) / setup_total:6.2f}%"
                  f"  {callers}")
        print(f"# chrome trace: {trace_path.relative_to(ROOT)} "
              f"({len(tracer.spans)} spans; open in https://ui.perfetto.dev)")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    reported = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {item["name"]: {"value": reported[item["name"]],
                                   "unit": item["unit"]}
                    for item in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # Hash randomisation reshapes the heap from run to run (peak RSS of
    # sampler_epochs: 138-152 MB with it, 139 MB six times in six without),
    # so it is pinned, which has to happen before the interpreter starts.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
