"""Online inference serving on the virtual clock (``repro serve``).

The stack, bottom to top: :mod:`repro.serving.workload` draws seeded
open-loop request traces; :mod:`repro.serving.batcher` coalesces them
into latency-budgeted micro-batches; :mod:`repro.serving.engine` runs
each batch as a fetch/h2d/compute/d2h stage chain on
:func:`repro.datapipe.run_epoch` with the warm
:class:`~repro.frameworks.feature_cache.GpuFeatureCache` path;
:mod:`repro.serving.latency` turns completions into exact tail
quantiles; :mod:`repro.serving.schema` freezes it all into the
byte-deterministic ``repro.serve/1`` report.
"""

from repro.serving.batcher import Batch, form_batches
from repro.serving.engine import (ServeConfig, ServeResult,
                                  run_serving_curve, run_serving_experiment)
from repro.serving.latency import LatencyAccountant, nearest_rank
from repro.serving.schema import SERVE, build_serve_report, format_serve_table
from repro.serving.workload import TRACE_KINDS, Request, generate_trace

__all__ = [
    "Batch", "form_batches", "ServeConfig", "ServeResult",
    "run_serving_curve", "run_serving_experiment", "LatencyAccountant",
    "nearest_rank", "SERVE", "build_serve_report", "format_serve_table",
    "TRACE_KINDS", "Request", "generate_trace",
]
