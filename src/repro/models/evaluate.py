"""Model evaluation: full-graph inference and task metrics.

The paper excludes inference benchmarking and accuracy comparisons (its
footnote 3), but a usable library needs them: after training with any of
the pipelines, ``evaluate`` runs full-graph inference and reports the
task's metric (accuracy for single-label datasets, micro-F1 for the
multi-label PPI/Yelp) on the train/val/test splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.frameworks.base import Framework, FrameworkGraph
from repro.kernels.adj import SparseAdj
from repro.tensor import functional as F
from repro.tensor.module import Module
from repro.tensor.tensor import Tensor, no_grad


@dataclass(frozen=True)
class EvalReport:
    """Metric per split, plus which metric it is."""

    metric: str  # "accuracy" | "micro_f1"
    train: float
    val: float
    test: float


def _split_metric(logits: Tensor, labels: np.ndarray, mask: np.ndarray,
                  multilabel: bool) -> float:
    rows = np.nonzero(mask)[0]
    if rows.size == 0:
        return float("nan")
    subset = Tensor(logits.data[rows])
    if multilabel:
        return F.micro_f1(subset, labels[rows])
    return F.accuracy(subset, labels[rows])


def full_graph_logits(framework: Framework, fgraph: FrameworkGraph,
                      model: Module, device: str = "cpu") -> Tensor:
    """One inference pass over the entire graph (charged on the clock).

    The model must be a :class:`~repro.models.base.SubgraphNet`-style
    network (every layer sees the same square adjacency); block-trained
    GraphSAGE models evaluate this way too — layer-wise full-graph
    inference is exactly how the DGL/PyG examples evaluate sampled models.
    """
    machine = fgraph.machine
    target = machine.device(device)
    adj = fgraph.adj_on(target) if device == "gpu" else fgraph.adj
    if adj.device is not target:
        adj = adj.with_device(target)
    features = fgraph.features_on(target)
    if features.device is not target:
        features = Tensor(features.data, device=target,
                          work_scale=features.work_scale, _owns_memory=False)
    model.eval()
    with framework.activate(), no_grad():
        if hasattr(model, "_layers") and model.__class__.__name__ == "BlockNet":
            # feed the square adjacency to every layer
            logits = _blocknet_full_graph(model, adj, features)
        else:
            logits = model(adj, features)
    return logits


def _blocknet_full_graph(model, adj: SparseAdj, x: Tensor) -> Tensor:
    for i, layer in enumerate(model._layers):
        x = layer(adj, x)
        if i < len(model._layers) - 1:
            x = F.relu(x)
    return x


def evaluate(framework: Framework, fgraph: FrameworkGraph, model: Module,
             device: str = "cpu") -> EvalReport:
    """Full-graph inference + per-split metric."""
    logits = full_graph_logits(framework, fgraph, model, device=device)
    graph = fgraph.graph
    multilabel = fgraph.stats.multilabel
    return EvalReport(
        metric="micro_f1" if multilabel else "accuracy",
        train=_split_metric(logits, graph.labels, graph.train_mask, multilabel),
        val=_split_metric(logits, graph.labels, graph.val_mask, multilabel),
        test=_split_metric(logits, graph.labels, graph.test_mask, multilabel),
    )
