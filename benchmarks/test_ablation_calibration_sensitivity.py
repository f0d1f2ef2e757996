"""Ablation: robustness of the paper's observations to calibration error.

The reproduction's only tuned numbers are the per-framework kernel
efficiencies and sampler unit costs.  This bench perturbs the most
influential constants by 2x in the direction *unfavourable* to each
conclusion and checks the qualitative observations survive — i.e. the
reproduced orderings are not knife-edge artifacts of the chosen values.
"""

from conftest import emit

from repro.bench import format_series
from repro.frameworks import PYGLITE_PROFILE, Framework, get_framework
from repro.hardware.machine import paper_testbed
from repro.tensor.tensor import no_grad


def _conv_forward(framework, dataset: str, kind: str, device: str) -> float:
    machine = paper_testbed()
    fgraph = framework.load(dataset, machine)
    from repro.kernels.transfer import adj_to_device, to_device
    with framework.activate(), no_grad():
        target = machine.device(device)
        adj = adj_to_device(fgraph.adj, target, machine.pcie)
        x = to_device(fgraph.features, target, machine.pcie)
        conv = framework.conv(kind, fgraph.stats.num_features, 256, seed=0)
        conv.to(target)
        start = machine.clock.now
        conv(adj, x)
        return machine.clock.now - start


def _sampler_epoch(framework, dataset: str) -> float:
    machine = paper_testbed()
    fgraph = framework.load(dataset, machine)
    sampler = framework.neighbor_sampler(fgraph, seed=0)
    batches = sampler.num_batches()
    start = machine.clock.now
    iterator = iter(sampler.epoch())
    ran = 0
    for _ in range(min(4, batches)):
        if next(iterator, None) is None:
            break
        ran += 1
    return (machine.clock.now - start) * batches / max(1, ran)


def test_ablation_calibration_sensitivity(once):
    def run():
        out = {}
        dgl, pyg = get_framework("dglite"), get_framework("pyglite")

        # Observation 3 (DGL wins conv on CPU) under a 2x *better* PyG
        # CPU SpMM than calibrated.
        pyg_fast_spmm = Framework(
            PYGLITE_PROFILE.with_efficiency_scaled("spmm", "cpu", 2.0))
        out["conv_cpu"] = {
            "dgl_baseline": _conv_forward(dgl, "reddit", "gcn", "cpu"),
            "pyg_baseline": _conv_forward(pyg, "reddit", "gcn", "cpu"),
            "pyg_2x_spmm": _conv_forward(pyg_fast_spmm, "reddit", "gcn", "cpu"),
        }

        # Observation 2 (DGL sampler wins) under a 2x *faster* PyG
        # neighbor sampler.
        pyg_fast_sampler = Framework(
            PYGLITE_PROFILE.with_sampler_scaled("neighbor", 0.5))
        out["sampler"] = {
            "dgl_baseline": _sampler_epoch(dgl, "flickr"),
            "pyg_baseline": _sampler_epoch(pyg, "flickr"),
            "pyg_half_cost": _sampler_epoch(pyg_fast_sampler, "flickr"),
        }

        # The GPU small-graph crossover (PyG wins PPI) under a 2x *worse*
        # PyG GPU SpMM.
        pyg_slow_gpu = Framework(
            PYGLITE_PROFILE.with_efficiency_scaled("spmm", "gpu", 0.5))
        out["conv_gpu_ppi"] = {
            "dgl_baseline": _conv_forward(dgl, "ppi", "gcn", "gpu"),
            "pyg_baseline": _conv_forward(pyg, "ppi", "gcn", "gpu"),
            "pyg_half_spmm": _conv_forward(pyg_slow_gpu, "ppi", "gcn", "gpu"),
        }
        return out

    results = once(run)
    emit("ablation_calibration_sensitivity",
         format_series("Ablation: 2x calibration perturbations "
                       "(adversarial direction)", results, unit="s",
                       precision=5))

    # Obs 3 survives a 2x PyG CPU SpMM improvement.
    assert results["conv_cpu"]["dgl_baseline"] < results["conv_cpu"]["pyg_2x_spmm"]
    # Obs 2 survives a 2x PyG sampler improvement.
    assert results["sampler"]["dgl_baseline"] < results["sampler"]["pyg_half_cost"]
    # Perturbations acted in the expected direction.
    assert results["conv_cpu"]["pyg_2x_spmm"] < results["conv_cpu"]["pyg_baseline"]
    assert results["sampler"]["pyg_half_cost"] < results["sampler"]["pyg_baseline"]
    # The GPU crossover is the *known* sensitive result: with a 2x worse
    # PyG GPU SpMM it flips, which is why EXPERIMENTS.md calls it a
    # crossover rather than a robust ordering.
    assert (results["conv_gpu_ppi"]["pyg_baseline"]
            < results["conv_gpu_ppi"]["dgl_baseline"])
    assert (results["conv_gpu_ppi"]["pyg_half_spmm"]
            > results["conv_gpu_ppi"]["pyg_baseline"])
