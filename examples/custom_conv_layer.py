"""Extending the library: write a custom conv layer against the kernel API.

Implements a simple GIN-style layer (Xu et al., "How Powerful are GNNs")
in the terms of the library's zoo (``repro.frameworks.nn``): one class
whose ``forward`` is the fused lowering, and a subclass that overrides
only ``forward`` with the gather/scatter lowering.  Inside the library
the pair would be one ``CONVS`` row and ``profile.fused_convs`` would
pick the lowering per framework; here both are hand-written outside the
zoo so each can be priced under *both* profiles — verifies they agree
numerically and shows how the profiles price the *same math* differently.

Run:  python examples/custom_conv_layer.py
"""

import numpy as np

from repro.frameworks import get_framework
from repro.frameworks.base import Framework
from repro.hardware import paper_testbed
from repro.kernels import SparseAdj, gather, scatter_add, spmm
from repro.tensor import Linear, Module, Parameter, Tensor, functional as F
from repro.tensor.tensor import no_grad


class FusedGINConv(Module):
    """GIN layer via one fused SpMM: h' = MLP((1 + eps) * h + sum_neigh h)."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        super().__init__()
        self.eps = Parameter(np.zeros(1, dtype=np.float32))
        self.lin1 = Linear(in_features, out_features, seed=seed)
        self.lin2 = Linear(out_features, out_features, seed=seed + 1)

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        aggregated = spmm(adj, x)  # fused neighbor sum
        combined = x * (self.eps + 1.0) + aggregated
        return self.lin2(F.relu(self.lin1(combined)))


class ScatterGINConv(FusedGINConv):
    """The same GIN layer via the unfused gather -> scatter pipeline."""

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        messages = gather(adj, x, side="src")  # materializes E x F
        aggregated = scatter_add(adj, messages)
        combined = x * (self.eps + 1.0) + aggregated
        return self.lin2(F.relu(self.lin1(combined)))


def time_forward(framework: Framework, layer_cls, dataset: str = "flickr") -> float:
    machine = paper_testbed()
    fgraph = framework.load(dataset, machine)
    layer = layer_cls(fgraph.stats.num_features, 64, seed=7)
    with framework.activate(), no_grad():
        start = machine.clock.now
        layer(fgraph.adj, fgraph.features)
        return machine.clock.now - start


def main() -> None:
    # 1. the two implementations are numerically identical
    rng = np.random.default_rng(0)
    adj = SparseAdj(rng.integers(0, 50, 400), rng.integers(0, 50, 400), 50, 50)
    x = Tensor(rng.random((50, 16)).astype(np.float32))
    fused_out = FusedGINConv(16, 8, seed=1)(adj, x)
    scatter_out = ScatterGINConv(16, 8, seed=1)(adj, x)
    max_diff = float(np.abs(fused_out.data - scatter_out.data).max())
    print(f"fused vs scatter GIN max |diff| = {max_diff:.2e}  (same math)\n")

    # 2. ...but the simulated machine prices the paths differently
    print(f"{'implementation':<22}{'DGLite profile':>16}{'PyGLite profile':>17}")
    print("-" * 55)
    for name, layer_cls in (("FusedGINConv", FusedGINConv),
                            ("ScatterGINConv", ScatterGINConv)):
        dgl_t = time_forward(get_framework("dglite"), layer_cls)
        pyg_t = time_forward(get_framework("pyglite"), layer_cls)
        print(f"{name:<22}{dgl_t * 1000:>14.2f}ms{pyg_t * 1000:>15.2f}ms")

    print("\nTakeaways:")
    print("  * The fused layer avoids the E x F message buffer entirely;")
    print("    the scatter layer pays for it in memory AND in the weak")
    print("    CPU scatter kernel (much worse under the PyGLite profile).")
    print("  * New layers compose from the kernel API (spmm / gather /")
    print("    scatter_add / sddmm / segment_softmax) and inherit the")
    print("    cost model automatically — no profiling code needed.")


if __name__ == "__main__":
    main()
