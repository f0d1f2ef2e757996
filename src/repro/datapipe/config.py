"""The ``pipeline=off|depth-N`` knob shared by trainer, CLI, and bench."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BenchmarkError


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed pipeline knob: how many mini-batches may be in flight."""

    depth: int = 1

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise BenchmarkError("pipeline depth must be >= 1")


def parse_pipeline(spec: str) -> PipelineConfig:
    """Parse ``"off"`` (one item in flight) or ``"depth-N"`` (N >= 1)."""
    if spec == "off":
        return PipelineConfig(1)
    if spec.startswith("depth-"):
        try:
            depth = int(spec[len("depth-"):])
        except ValueError:
            depth = 0
        if depth >= 1:
            return PipelineConfig(depth)
    raise BenchmarkError(
        f"unknown pipeline spec {spec!r}; expected 'off' or 'depth-N' (N >= 1)"
    )


#: Placements that sample on-device: the datapipe overlaps *CPU-side*
#: sampling, so more than one batch in flight is a contradiction there.
ON_DEVICE_PLACEMENTS = ("gpu", "uvagpu")


def validate_pipeline_placement(pipeline: str, placement: str) -> PipelineConfig:
    """The single pipeline × placement validation path (CLI, trainer, serve).

    Parses the ``pipeline`` spec and rejects depth >= 2 under the
    on-device sampling placements (``gpu``/``uvagpu``) — those sample on
    the GPU already, so there is no CPU-side stage to overlap.  The CLI
    calls this at argument-parse time so the contradiction is a hard
    argument error, not a mid-run traceback; :class:`TrainConfig` and
    ``repro serve`` reuse the same call as a backstop.
    """
    config = parse_pipeline(pipeline)
    if config.depth >= 2 and placement in ON_DEVICE_PLACEMENTS:
        raise BenchmarkError(
            f"--pipeline {pipeline} cannot be combined with "
            f"--placement {placement}: the datapipe pipelines CPU-side "
            "sampling; GPU/UVA placements sample on-device already"
        )
    return config
