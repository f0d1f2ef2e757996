"""Framework microscope: compare DGL-style vs PyG-style kernels layer by layer.

Reproduces the Figure 5 functional test interactively for one dataset:
every conv layer, CPU vs GPU, both frameworks — including the OOM failures
of PyG's unfused attention layers on large graphs.

Run:  python examples/framework_comparison.py [dataset]
"""

import sys

from repro.bench import measure_conv_forward
from repro.datasets import DATASET_NAMES

LAYERS = ("gcn", "gcn2", "cheb", "sage", "gat", "gatv2", "tag", "sg")


def main(dataset: str = "flickr") -> None:
    if dataset not in DATASET_NAMES:
        raise SystemExit(f"unknown dataset {dataset!r}; pick one of {DATASET_NAMES}")

    print(f"One forward pass over the full {dataset} graph "
          "(out_dim = 256; gcn2 keeps the input width)\n")
    header = (f"{'layer':<8}{'DGL cpu':>12}{'PyG cpu':>12}{'cpu ratio':>10}"
              f"{'DGL gpu':>12}{'PyG gpu':>12}{'best gpu speedup':>18}")
    print(header)
    print("-" * len(header))

    for kind in LAYERS:
        cells = {}
        for fw in ("dglite", "pyglite"):
            for dev in ("cpu", "gpu"):
                result = measure_conv_forward(fw, dataset, kind, device=dev)
                cells[(fw, dev)] = "OOM" if result.oom else result.phases["forward"]

        def fmt(value):
            return f"{value:>12}" if isinstance(value, str) else f"{value * 1000:>10.2f}ms"

        dgl_cpu, pyg_cpu = cells[("dglite", "cpu")], cells[("pyglite", "cpu")]
        dgl_gpu, pyg_gpu = cells[("dglite", "gpu")], cells[("pyglite", "gpu")]
        ratio = (f"{pyg_cpu / dgl_cpu:>9.1f}x"
                 if not isinstance(pyg_cpu, str) and not isinstance(dgl_cpu, str)
                 else f"{'-':>10}")
        speedup = (f"{dgl_cpu / dgl_gpu:>16.1f}x"
                   if not isinstance(dgl_gpu, str) else f"{'-':>17}")
        print(f"{kind:<8}{fmt(dgl_cpu)}{fmt(pyg_cpu)}{ratio}"
              f"{fmt(dgl_gpu)}{fmt(pyg_gpu)}{speedup}")

    print("\n'OOM' = the unfused gather/scatter path materialized an")
    print("E x 256 message buffer that exceeds the device memory at the")
    print("dataset's paper scale (PyG lacks fused kernels for ChebConv,")
    print("GATConv, and GATv2Conv — Observation 3).")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "flickr")
