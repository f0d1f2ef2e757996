"""Experiment harness: one entry point per paper experiment family."""

from repro.bench.harness import (
    ExperimentResult,
    conv_out_features,
    measure_conv_forward,
    measure_data_loader,
    measure_sampler_epoch,
    run_fullbatch_experiment,
    run_training_experiment,
)
from repro.bench.format import format_series
from repro.bench.gate import compare_artifacts, format_gate_report
from repro.bench.sweep import SweepCell, run_sweep

__all__ = [
    "ExperimentResult",
    "SweepCell",
    "compare_artifacts",
    "conv_out_features",
    "format_gate_report",
    "format_series",
    "run_sweep",
    "measure_conv_forward",
    "measure_data_loader",
    "measure_sampler_epoch",
    "run_fullbatch_experiment",
    "run_training_experiment",
]
