"""An epoch's lane schedule, pinned: what the datapipe commits to the clock
hashes to committed literals.

The lane scheduler, ``VirtualClock.commit_schedule``, the phase split and
the power sampler are host-time hot spots that get rewritten for speed.
A rewrite must place and commit the same schedule bit for bit; these pins
are that proof.  Each hash runs over the ``float.hex()`` of:

- ``busy_intervals()`` in commit order;
- every key's ``_starts``/``_ends``/``_cumdur`` index;
- each epoch's ``phases`` and ``lane_busy``, and its terminal job ends;
- every CPU and GPU power sample.

A literal moves only with a deliberate behaviour change.  Print the
current values with:

    PYTHONPATH=src python tests/test_schedule_pins.py
"""

import hashlib
from unittest import mock

import pytest

from repro.datapipe import pipeline as pipeline_module
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.models import trainer as trainer_module
from repro.models.graphsage import build_graphsage
from repro.models.trainer import MiniBatchTrainer, TrainConfig
from repro.power.monitor import EnergyMonitor
from repro.serving import engine as engine_module
from repro.serving.engine import ServeConfig, run_serving_experiment

#: Run name -> sha256 of its schedule (see the module docstring).
SCHEDULE_PINS = {
    "train:off":
        "b56378b25de6e94cffa62d45d83974cf71e50aacdc1732b0da4ad0035ecf7d43",
    "train:depth-4":
        "94097d328751bf14f45dc7fdab186df9deadc6be0cdb715e2084b76944235f4a",
    "serve:depth-4":
        "7258518e3fbd24518b2c4fa15eacecdf770b37cc02c0822dd60ffe14093d6788",
}


def _spying(module, reports):
    """Patch ``module.run_epoch`` with a copy that keeps each report."""
    def spy(*args, **kwargs):
        reports.append(pipeline_module.run_epoch(*args, **kwargs))
        return reports[-1]
    return mock.patch.object(module, "run_epoch", spy)


def _digest(clock, reports, energy) -> str:
    h = hashlib.sha256()

    def put(*values):
        h.update(" ".join(v.hex() if isinstance(v, float) else str(v)
                          for v in values).encode())
        h.update(b"\n")

    for iv in clock.busy_intervals():
        put(iv.device, iv.start, iv.end, iv.tag)
    for key in sorted(clock._starts):
        put(key, *clock._starts[key])
        put(key, *clock._ends[key])
        put(key, *clock._cumdur[key])
    for report in reports:
        put(*(v for item in report.phases.items() for v in item))
        put(*(v for item in report.lane_busy.items() for v in item))
        put(*report.item_ends)
    for sample in energy.cpu_power_trace + energy.gpu_power_trace:
        put(sample.time, sample.watts)
    put(energy.cpu_energy, energy.gpu_energy)
    return h.hexdigest()


def _train(pipeline: str) -> str:
    """Two epochs of ppi ×0.3 cpugpu GraphSAGE: 3 executed batches each,
    the rest symbolic; two sampler workers share the CPU."""
    fw = get_framework("dglite")
    machine = paper_testbed()
    fgraph = fw.load("ppi", machine, scale=0.3)
    sampler = fw.neighbor_sampler(fgraph, fanouts=(4, 4), batch_size=32,
                                  mode="cpu", seed=3)
    net = build_graphsage(fw, fgraph, hidden=16, seed=3)
    config = TrainConfig(epochs=2, placement="cpugpu",
                         representative_batches=3, seed=3,
                         pipeline=pipeline, num_workers=2)
    trainer = MiniBatchTrainer(fw, fgraph, sampler, net, config)
    monitor = EnergyMonitor(machine, interval=0.1)
    monitor.start()
    reports = []
    with _spying(trainer_module, reports):
        trainer.run()
    assert reports and all(r.extrapolated for r in reports)
    return _digest(machine.clock, reports, monitor.stop())


def _serve(pipeline: str) -> str:
    """One ppi serving window: 48 requests in 6 batches, two in flight."""
    reports, machines = [], []

    def testbed():
        machines.append(paper_testbed())
        return machines[-1]
    with _spying(engine_module, reports), \
            mock.patch.object(engine_module, "paper_testbed", testbed):
        result = run_serving_experiment(ServeConfig(
            "dglite", "ppi", rate=20000.0, num_requests=48, max_batch=8,
            pipeline=pipeline, dataset_scale=0.3, seed=5))
    assert len(reports) == 1 and len(machines) == 1
    return _digest(machines[0].clock, reports, result.energy)


RUNS = {"train:off": lambda: _train("off"),
        "train:depth-4": lambda: _train("depth-4"),
        "serve:depth-4": lambda: _serve("depth-4")}


@pytest.mark.parametrize("name", sorted(SCHEDULE_PINS))
def test_schedule_matches_the_pin(name):
    assert RUNS[name]() == SCHEDULE_PINS[name]


if __name__ == "__main__":
    for name in sorted(RUNS):
        print(f"    {name!r}:\n        {RUNS[name]()!r},")
