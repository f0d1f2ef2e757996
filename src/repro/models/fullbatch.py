"""Full-batch GraphSAGE training (Figures 22-24).

A two-layer mean-aggregator GraphSAGE trained on the *entire* graph, no
sampling.  The paper reports one-epoch runtime, power, and energy on CPU
and GPU for both frameworks.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import BenchmarkError
from repro.frameworks.base import Framework, FrameworkGraph
from repro.kernels.adj import SparseAdj
from repro.kernels.transfer import adj_to_device, to_device
from repro.models.base import make_loss, two_layer_net
from repro.telemetry.runtime import tracer_for
from repro.telemetry.spans import PHASE_CATEGORY, SpanTracer
from repro.tensor.module import Module
from repro.tensor.optim import Adam
from repro.tensor.tensor import Tensor


def build_fullbatch_sage(framework: Framework, fgraph: FrameworkGraph,
                         hidden: int = 256, dropout: float = 0.5,
                         seed: int = 0) -> Module:
    """Two-layer mean-aggregator GraphSAGE over the full graph."""
    stats = fgraph.stats
    return two_layer_net(
        framework,
        "sage",
        in_features=stats.num_features,
        hidden=hidden,
        out_features=stats.num_classes,
        style="subgraph",  # one square adjacency reused by both layers
        dropout=dropout,
        seed=seed,
    )


class FullBatchTrainer:
    """Full-graph gradient descent on CPU or GPU."""

    def __init__(
        self,
        framework: Framework,
        fgraph: FrameworkGraph,
        model: Module,
        device: str = "cpu",
        lr: float = 1e-3,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if device not in ("cpu", "gpu"):
            raise BenchmarkError("full-batch device must be 'cpu' or 'gpu'")
        self.framework = framework
        self.fgraph = fgraph
        self.model = model
        self.device_key = device
        self.machine = fgraph.machine
        self.tracer = tracer or tracer_for(self.machine.clock)
        self.loss_fn = make_loss(fgraph.stats.multilabel)
        self.lr = lr
        self._prepared = False
        self._adj: Optional[SparseAdj] = None
        self._x: Optional[Tensor] = None

    def setup(self) -> None:
        """Place the graph, features, and model on the training device."""
        machine = self.machine
        device = machine.device(self.device_key)
        with self.tracer.span("data_movement", PHASE_CATEGORY), \
                self.framework.activate():
            self._adj = adj_to_device(self.fgraph.adj, device, machine.pcie,
                                      tag="fullbatch-graph")
            self._x = to_device(self.fgraph.features, device, machine.pcie,
                                tag="fullbatch-features")
            self.model.to(device, link=machine.pcie if device.kind == "gpu" else None)
        self.optimizer = Adam(self.model.parameters(), lr=self.lr)
        self._prepared = True

    def train_epochs(self, epochs: int = 1) -> List[float]:
        """Run full-batch epochs; returns the per-epoch training loss."""
        if not self._prepared:
            self.setup()
        graph = self.fgraph.graph
        train_rows = graph.train_nodes()
        losses: List[float] = []
        for _ in range(epochs):
            self.model.train()
            self.optimizer.zero_grad()
            with self.tracer.span("training", PHASE_CATEGORY), \
                    self.framework.activate():
                logits = self.model(self._adj, self._x)
                loss = self.loss_fn(logits[train_rows], graph.labels[train_rows])
                loss.backward()
                self.optimizer.step()
            losses.append(loss.item())
        return losses

    def epoch_time(self) -> float:
        """Average training seconds per epoch so far."""
        return self.tracer.phase_rollup().get("training", 0.0)
