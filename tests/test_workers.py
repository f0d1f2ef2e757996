"""Tests for parallel sampling workers (``num_workers=w``).

Workers are a lane declaration on the one datapipe schedule: a pool of
``min(w, in-flight depth, cores)`` sampler lanes at sublinear efficiency,
with at least ``w`` mini-batches in flight.
"""

import numpy as np
import pytest

from repro.errors import BenchmarkError
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.models.graphsage import build_graphsage, graphsage_sampler
from repro.models.trainer import MiniBatchTrainer, TrainConfig
from repro.simtime import VirtualClock


def make_trainer(num_workers=0, placement="cpugpu", epochs=1, reps=3,
                 pipeline="off"):
    machine = paper_testbed()
    fw = get_framework("dglite")
    fgraph = fw.load("ppi", machine, scale=0.3)
    sampler = graphsage_sampler(fw, fgraph, seed=0)
    net = build_graphsage(fw, fgraph, hidden=16, seed=0)
    config = TrainConfig(epochs=epochs, placement=placement,
                         num_workers=num_workers, pipeline=pipeline,
                         representative_batches=reps)
    return MiniBatchTrainer(fw, fgraph, sampler, net, config)


class TestDeferredClock:
    def test_measures_without_advancing(self):
        clock = VirtualClock()
        with clock.deferred() as record:
            clock.advance(1.0)
            clock.occupy("cpu", 2.0)
        assert clock.now == 0.0
        assert record.total == pytest.approx(3.0)
        assert record.busy["cpu"] == pytest.approx(2.0)

    def test_no_busy_intervals_recorded(self):
        clock = VirtualClock()
        with clock.deferred():
            clock.occupy("cpu", 2.0)
        assert clock.busy_time("cpu") == 0.0

    def test_nesting_rejected(self):
        clock = VirtualClock()
        with pytest.raises(RuntimeError):
            with clock.deferred():
                with clock.deferred():
                    pass

    def test_normal_operation_resumes_after(self):
        clock = VirtualClock()
        with clock.deferred():
            clock.advance(5.0)
        clock.advance(1.0)
        assert clock.now == pytest.approx(1.0)


class TestConfigValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(BenchmarkError):
            TrainConfig(num_workers=-1)

    def test_workers_with_gpu_sampling_rejected(self):
        with pytest.raises(BenchmarkError):
            TrainConfig(placement="gpu", num_workers=4)


class TestWorkerSpeedup:
    @staticmethod
    def speedup(trainer):
        workers, inflation = trainer.sampler_pool()
        return workers / inflation

    def test_zero_and_one_workers_are_serial(self):
        assert make_trainer(0).sampler_pool() == (1, 1.0)
        assert make_trainer(1).sampler_pool() == (1, 1.0)
        assert make_trainer(0).in_flight() == make_trainer(1).in_flight() == 1

    def test_sublinear(self):
        trainer = make_trainer(8)
        assert trainer.sampler_pool()[0] == trainer.in_flight() == 8
        assert 1.0 < self.speedup(trainer) < 8.0

    def test_capped_at_cores(self):
        trainer = make_trainer(10_000)
        cores = (trainer.machine.cpu.spec.sockets
                 * trainer.machine.cpu.spec.cores_per_socket)
        assert trainer.sampler_pool()[0] == cores
        assert self.speedup(trainer) <= cores

    def test_workers_alone_raise_the_in_flight_depth(self):
        """``--workers 4`` with ``--pipeline off`` still overlaps: the
        depth is something the code works out, max(depth, workers)."""
        assert make_trainer(4).in_flight() == 4
        assert make_trainer(4, pipeline="depth-8").in_flight() == 8
        assert make_trainer(4, pipeline="depth-2").in_flight() == 4
        assert make_trainer(2, pipeline="depth-8").sampler_pool()[0] == 2


class TestWorkerTraining:
    def test_workers_reduce_sampling_phase(self):
        base = make_trainer(0).run()
        pooled = make_trainer(8).run()
        assert pooled.phases["sampling"] < base.phases["sampling"]
        assert pooled.total_time < base.total_time

    def test_results_are_numerically_identical(self):
        """Workers change cost accounting, never the sampled batches."""
        base = make_trainer(0, epochs=2).run()
        pooled = make_trainer(8, epochs=2).run()
        assert base.losses == pytest.approx(pooled.losses, rel=1e-6)
        assert base.batches_per_epoch == pooled.batches_per_epoch

    def test_cpu_placement_gets_parallelism_but_no_pipelining(self):
        # (The name predates the single schedule: worker lanes now run
        # ahead of the train lane on every placement.)
        base = make_trainer(0, placement="cpu").run()
        pooled = make_trainer(8, placement="cpu").run()
        assert pooled.phases["sampling"] < base.phases["sampling"]

    def test_pipelining_hides_up_to_one_training_step(self):
        """Sampling hides behind training, never the other way round:
        the training phase is what the schedule cannot shrink."""
        base = make_trainer(0).run()
        pooled = make_trainer(8).run()
        assert pooled.phases["sampling"] >= 0
        assert np.isfinite(pooled.total_time)
        assert pooled.phases["training"] == pytest.approx(
            base.phases["training"], rel=1e-9)
        assert pooled.total_time >= base.phases["training"]

    def test_total_time_monotone_in_workers(self):
        times = [make_trainer(w).run().total_time for w in (0, 2, 4, 8)]
        assert times == sorted(times, reverse=True)
        assert times[0] / times[-1] < 8
