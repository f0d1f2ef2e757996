"""Experiment harness: one entry point per paper experiment family."""

from repro.bench.harness import (
    ExperimentResult,
    measure_conv_forward,
    measure_data_loader,
    measure_sampler_epoch,
    run_fullbatch_experiment,
    run_training_experiment,
)
from repro.bench.format import format_matrix, format_series
from repro.bench.gate import compare_artifacts, format_gate_report
from repro.bench.sweep import SweepCell, run_sweep

__all__ = [
    "ExperimentResult",
    "SweepCell",
    "compare_artifacts",
    "format_gate_report",
    "format_matrix",
    "format_series",
    "run_sweep",
    "measure_conv_forward",
    "measure_data_loader",
    "measure_sampler_epoch",
    "run_fullbatch_experiment",
    "run_training_experiment",
]
