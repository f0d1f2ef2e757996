#!/usr/bin/env python3
"""A/A check: two alternating sets of runs of the same tree must agree.

    python3 perf/aa.py [--runs 5] [--seed 0]

Runs set A and set B of every workload, alternating which set goes first,
and prints per (workload, end-to-end metric) both medians, their gap, the
bound from BENCHMARK.json and each set's inter-quartile spread as a share
of its median.  Every run uses the same ``--seed``.  Exits non-zero when
a gap exceeds its bound or when any two runs report a different ``sim_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

from run import ROOT, iqr_frac, load_benchmark  # perf/run.py, same directory


def run_once(bench: dict, workload: str, seed: int) -> Dict[str, float]:
    command = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"aa: {workload} seed {seed} exited "
                         f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = [item["name"] for item in bench["workloads"]]
    # (set, workload, metric) -> one value per run
    values: Dict[Tuple[str, str, str], List[float]] = {}
    for index in range(args.runs):
        for which in ("AB", "BA")[index % 2]:
            for workload in workloads:
                metrics = run_once(bench, workload, args.seed)
                for name, value in metrics.items():
                    values.setdefault((which, workload, name), []).append(value)
                print(f"run {index} set {which} {workload:<15}  " +
                      "  ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                      flush=True)

    bad = 0
    print(f"\n{'workload':<15} {'metric':<17} {'median A':>12} {'median B':>12}"
          f" {'gap':>7} {'bound':>6} {'iqr A':>6} {'iqr B':>6}")
    for workload in workloads:
        for item in bench["end_to_end"]:
            name, bound = item["name"], item["bound"]
            a = values[("A", workload, name)]
            b = values[("B", workload, name)]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_b - med_a) / med_a
            notes = []
            if gap > bound:
                bad += 1
                notes.append("GAP EXCEEDS BOUND")
            elif gap > bound / 2:
                notes.append("gap > bound/2")
            if max(iqr_frac(a), iqr_frac(b)) > bound / 3:
                notes.append("iqr > bound/3")
            if name == "sim_s" and len(set(a + b)) > 1:
                bad += 1
                notes.append("SIM_S DIFFERS BETWEEN RUNS")
            print(f"{workload:<15} {name:<17} {med_a:>12.6g} {med_b:>12.6g}"
                  f" {100 * gap:>6.2f}% {100 * bound:>5.1f}%"
                  f" {100 * iqr_frac(a):>5.1f}% {100 * iqr_frac(b):>5.1f}%"
                  f"  {'; '.join(notes)}")
    out_dir = ROOT / "perf" / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "aa.json", "w", encoding="utf-8") as handle:
        json.dump({"|".join(key): vals for key, vals in values.items()},
                  handle, indent=1)
    print(f"\n{'FAIL' if bad else 'ok'}: {bad} of "
          f"{len(workloads) * len(bench['end_to_end'])} pairs out of bounds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
