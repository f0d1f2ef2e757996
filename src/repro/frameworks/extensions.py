"""Extension samplers beyond the paper's benchmarked trio.

The paper's Sections 2.1 and 4.1 discuss — but do not benchmark —
GraphSAINT's node/edge sampling variants and the layer-wise FastGCN /
LADIES samplers.  These wrappers plug those algorithms into the same
charging machinery, so the ablation benches can quantify the trade-offs
the paper only cites (node/edge sampling inferior to random walks;
LADIES' "non-negligible overhead").
"""

from __future__ import annotations

from typing import Optional

from repro.frameworks.base import (
    Framework,
    FrameworkGraph,
    _BlockSamplerWrapper,
    _SubgraphSamplerWrapper,
)
from repro.sampling.layerwise import FastGCNSampler, LadiesSampler
from repro.sampling.saint_variants import SaintEdgeSampler, SaintNodeSampler


class WrappedSaintNodeSampler(_SubgraphSamplerWrapper):
    """GraphSAINT node-sampling variant."""

    kind = "saint_node"

    def __init__(self, framework: Framework, fgraph: FrameworkGraph,
                 budget: int = 6000, seed: Optional[int] = None) -> None:
        super().__init__(framework, fgraph, mode="cpu")
        self.algorithm = SaintNodeSampler(fgraph.graph, budget, seed)


class WrappedSaintEdgeSampler(_SubgraphSamplerWrapper):
    """GraphSAINT edge-sampling variant."""

    kind = "saint_edge"

    def __init__(self, framework: Framework, fgraph: FrameworkGraph,
                 budget: int = 4000, seed: Optional[int] = None) -> None:
        super().__init__(framework, fgraph, mode="cpu")
        self.algorithm = SaintEdgeSampler(fgraph.graph, budget, seed)


class WrappedFastGCNSampler(_BlockSamplerWrapper):
    """FastGCN layer-wise sampler (independent per-layer draws)."""

    kind = "fastgcn"

    def __init__(self, framework: Framework, fgraph: FrameworkGraph,
                 layer_sizes=(400, 400), batch_size: int = 512,
                 seed: Optional[int] = None) -> None:
        super().__init__(framework, fgraph, mode="cpu")
        self.algorithm = FastGCNSampler(fgraph.graph, layer_sizes, batch_size, seed)

    @property
    def last_isolated_fraction(self) -> float:
        """Fraction of frontier nodes left without sampled in-neighbors."""
        return self.algorithm.last_isolated_fraction


class WrappedLadiesSampler(_BlockSamplerWrapper):
    """LADIES layer-dependent importance sampler."""

    kind = "ladies"

    def __init__(self, framework: Framework, fgraph: FrameworkGraph,
                 layer_sizes=(400, 400), batch_size: int = 512,
                 seed: Optional[int] = None) -> None:
        super().__init__(framework, fgraph, mode="cpu")
        self.algorithm = LadiesSampler(fgraph.graph, layer_sizes, batch_size, seed)


EXTENSION_SAMPLERS = {
    "saint_node": WrappedSaintNodeSampler,
    "saint_edge": WrappedSaintEdgeSampler,
    "fastgcn": WrappedFastGCNSampler,
    "ladies": WrappedLadiesSampler,
}


def make_extension_sampler(framework: Framework, fgraph: FrameworkGraph,
                           kind: str, seed: Optional[int] = 0, **kwargs):
    """Build one of the extension samplers by name.

    ``seed`` defaults to 0 (deterministic); pass ``None`` for a
    nondeterministic RNG.
    """
    if kind not in EXTENSION_SAMPLERS:
        raise KeyError(
            f"unknown extension sampler {kind!r}; "
            f"available: {', '.join(EXTENSION_SAMPLERS)}"
        )
    framework._prepare_sampling(fgraph)
    return EXTENSION_SAMPLERS[kind](framework, fgraph, seed=seed, **kwargs)
