"""Composable streaming datapipe over the virtual clock.

DGL-graphbolt-style stages (``ItemSampler -> NeighborSampler ->
FeatureFetcher -> CopyTo``) with bounded prefetch queues: real execution
stays item-sequential (so RNG consumption and numerics are bit-identical
to the serial schedule), while every stage's measured cost is placed on
its own resource lane by the executor's lane scheduler — sampling
and H2D copy overlap GPU compute exactly as the paper's prefetching case
study describes.

``pipeline="depth-N"`` allows N items in flight; depth-1 *is* the serial
schedule, expressed on lanes, and ``"off"`` is its spelling.
"""

from repro.datapipe.config import PipelineConfig, parse_pipeline
from repro.datapipe.pipeline import EndItem, EpochReport, Stage, run_epoch
from repro.datapipe.staging import StagingPool

__all__ = [
    "EndItem",
    "EpochReport",
    "PipelineConfig",
    "Stage",
    "StagingPool",
    "parse_pipeline",
    "run_epoch",
]
