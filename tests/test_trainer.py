"""Tests for the mini-batch trainer: phases, placements, extrapolation.

The trainer has one schedule (the datapipe).  ``PINNED`` holds what the
bespoke serial loop it replaced charged at commit 02f3ec7 — stored values
that detect a fault in the cost model, not a second implementation.
"""

import numpy as np
import pytest

from repro.bench.harness import run_training_experiment
from repro.errors import BenchmarkError
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.models.clustergcn import build_clustergcn
from repro.models.graphsage import build_graphsage
from repro.models.graphsaint import build_graphsaint, graphsaint_sampler
from repro.models.trainer import MiniBatchTrainer, TrainConfig


def make_trainer(placement="cpu", preload=False, prefetch=False, epochs=1,
                 reps=2, framework="dglite", model="graphsage",
                 pipeline="off"):
    fw = get_framework(framework)
    machine = paper_testbed()
    fgraph = fw.load("ppi", machine, scale=0.3)
    if placement == "gpu":
        fgraph.preload_to_gpu()
    if model == "graphsage":
        mode = {"gpu": "gpu", "uvagpu": "uva"}.get(placement, "cpu")
        sampler = fw.neighbor_sampler(fgraph, fanouts=(4, 4), batch_size=64,
                                      mode=mode, seed=0)
        net = build_graphsage(fw, fgraph, hidden=16, seed=0)
    elif model == "graphsaint":
        sampler = graphsaint_sampler(fw, fgraph, seed=0)
        net = build_graphsaint(fw, fgraph, hidden=16, seed=0)
    else:
        sampler = fw.cluster_sampler(fgraph, seed=0)
        net = build_clustergcn(fw, fgraph, hidden=16, seed=0)
    config = TrainConfig(epochs=epochs, placement=placement, preload=preload,
                         prefetch=prefetch, representative_batches=reps, seed=0,
                         pipeline=pipeline)
    return MiniBatchTrainer(fw, fgraph, sampler, net, config)


class TestTrainConfig:
    def test_placement_validated(self):
        with pytest.raises(BenchmarkError):
            TrainConfig(placement="fpga")

    def test_epoch_bounds(self):
        with pytest.raises(BenchmarkError):
            TrainConfig(epochs=0)
        with pytest.raises(BenchmarkError):
            TrainConfig(representative_batches=0)

    @pytest.mark.parametrize("knob, match", [
        ({"num_workers": -1}, "num_workers must be >= 0"),
        ({"num_workers": 2, "placement": "gpu"}, "CPU-side samplers only"),
        ({"checkpoint_every": -1}, "checkpoint_every must be >= 0"),
        ({"checkpoint_every": 2}, "needs a checkpoint_path"),
        ({"halt_after_epochs": 0}, "halt_after_epochs must be >= 1"),
    ])
    def test_each_bad_knob_rejected(self, knob, match):
        with pytest.raises(BenchmarkError, match=match):
            TrainConfig(**knob)

    def test_off_is_one_batch_in_flight(self):
        assert TrainConfig().pipeline == "off"
        assert TrainConfig().pipeline_depth == 1
        assert TrainConfig(pipeline="depth-1").pipeline_depth == 1

    def test_on_device_sampling_rejects_only_overlap(self):
        for placement in ("gpu", "uvagpu"):
            TrainConfig(placement=placement, pipeline="off")
            TrainConfig(placement=placement, pipeline="depth-1")
            with pytest.raises(BenchmarkError, match="sample on-device"):
                TrainConfig(placement=placement, pipeline="depth-2")

    def test_prefetch_with_explicit_depth_rejected(self):
        TrainConfig(placement="cpugpu", prefetch=True)
        for spec in ("depth-1", "depth-4"):
            with pytest.raises(BenchmarkError, match="prefetch"):
                TrainConfig(placement="cpugpu", prefetch=True, pipeline=spec)

    def test_placement_flags(self):
        assert not TrainConfig(placement="cpu").trains_on_gpu
        assert TrainConfig(placement="cpugpu").trains_on_gpu
        assert TrainConfig(placement="gpu").samples_on_gpu
        assert not TrainConfig(placement="cpugpu").samples_on_gpu


class TestCpuRun:
    def test_phases_and_losses(self):
        trainer = make_trainer(placement="cpu", epochs=2)
        result = trainer.run()
        assert set(result.phases) >= {"sampling", "training"}
        assert "data_movement" not in result.phases  # nothing moves on CPU
        assert len(result.losses) == 2 * min(2, result.batches_per_epoch)
        assert result.total_time > 0

    def test_loss_decreases_over_epochs(self):
        trainer = make_trainer(placement="cpu", epochs=6, reps=4)
        result = trainer.run()
        first = np.mean(result.losses[:3])
        last = np.mean(result.losses[-3:])
        assert last < first


class TestExtrapolation:
    def test_extrapolated_run_scales_phase_time(self):
        full = make_trainer(placement="cpu", epochs=1, reps=10_000)
        partial = make_trainer(placement="cpu", epochs=1, reps=2)
        full_result = full.run()
        partial_result = partial.run()
        assert partial_result.batches_per_epoch == full_result.batches_per_epoch
        assert partial_result.executed_batches < full_result.executed_batches
        # Extrapolated totals approximate the fully-executed totals.
        assert partial_result.phases["sampling"] == pytest.approx(
            full_result.phases["sampling"], rel=0.5
        )
        assert partial_result.phases["training"] == pytest.approx(
            full_result.phases["training"], rel=0.5
        )

    def test_extrapolation_extends_device_busy_time(self):
        trainer = make_trainer(placement="cpu", epochs=1, reps=1)
        machine = trainer.machine
        result = trainer.run()
        busy = machine.clock.busy_time(machine.cpu.name)
        assert busy > 0
        # busy time should roughly fill the sampling+training phases
        assert busy == pytest.approx(
            result.phases["sampling"] + result.phases["training"], rel=0.2
        )


class TestGpuPlacements:
    def test_cpugpu_has_movement_phase(self):
        result = make_trainer(placement="cpugpu").run()
        assert result.phases.get("data_movement", 0) > 0

    def test_preload_reduces_movement(self):
        base = make_trainer(placement="cpugpu", epochs=1).run()
        pre = make_trainer(placement="cpugpu", preload=True, epochs=1).run()
        # Pre-loading pays one bulk copy but removes per-batch feature
        # copies; on PPI with one epoch the *per-batch* portion shrinks.
        assert pre.phases["data_movement"] != base.phases["data_movement"]

    def test_gpu_sampling_runs(self):
        result = make_trainer(placement="gpu").run()
        assert result.total_time > 0
        assert result.phases.get("sampling", 0) > 0

    def test_uva_sampling_runs(self):
        result = make_trainer(placement="uvagpu").run()
        assert result.total_time > 0

    def test_gpu_sampler_faster_than_cpu_sampler(self):
        cpu = make_trainer(placement="cpugpu", epochs=1).run()
        gpu = make_trainer(placement="gpu", epochs=1).run()
        assert gpu.phases["sampling"] < cpu.phases["sampling"]


class TestPrefetch:
    """``prefetch=True`` is a lane declaration: two batches in flight,
    sample/fetch/copy on one ``loader`` lane behind the train lane."""

    def test_prefetch_reduces_visible_movement(self):
        base = make_trainer(placement="cpugpu", epochs=1, reps=4).run()
        pref = make_trainer(placement="cpugpu", prefetch=True, epochs=1, reps=4).run()
        assert pref.phases.get("data_movement", 0) <= base.phases["data_movement"]
        # improvement is modest ("albeit a little bit"), not free: what is
        # hidden is loader time behind compute, so the gain is bounded by
        # the time spent training, which the schedule cannot shrink.
        assert pref.total_time < base.total_time
        assert base.total_time - pref.total_time \
            <= base.phases["training"] * (1 + 1e-9)
        assert pref.phases["training"] == pytest.approx(
            base.phases["training"], rel=1e-9)

    def test_prefetch_ignored_by_pyg(self):
        base = make_trainer(placement="cpugpu", epochs=1, framework="pyglite").run()
        pref = make_trainer(placement="cpugpu", prefetch=True, epochs=1,
                            framework="pyglite").run()
        assert pref.phases["data_movement"] == pytest.approx(
            base.phases["data_movement"], rel=1e-6
        )

    def test_prefetch_is_one_loader_lane(self):
        trainer = make_trainer(placement="cpugpu", prefetch=True, reps=4)
        assert trainer.in_flight() == 2
        trainer.run()
        lanes = {iv.device.partition("@")[2]
                 for iv in trainer.machine.clock.busy_intervals()} - {""}
        assert lanes == {"loader", "train"}

    def test_prefetch_without_a_copy_changes_nothing(self):
        base = make_trainer(placement="cpu").run()
        pref = make_trainer(placement="cpu", prefetch=True).run()
        assert pref.phases == base.phases


class TestClusterModel:
    def test_cluster_partition_charged_in_sampling_phase(self):
        trainer = make_trainer(model="clustergcn", placement="cpu", epochs=1)
        result = trainer.run()
        assert result.phases["sampling"] > 0
        assert len(result.losses) > 0

    def test_subgraph_loss_uses_train_rows(self):
        trainer = make_trainer(model="clustergcn", placement="cpu", epochs=1)
        result = trainer.run()
        assert all(np.isfinite(result.losses))


class TestSourceNotOverPulled:
    def test_graphsaint_rng_advances_once_per_executed_batch(self):
        """Each executed batch is one ``RandomWalkSampler.sample()``; a
        batch drawn only to be dropped would move the RNG and make every
        later epoch sample different sub-graphs."""
        epochs, reps = 2, 1
        trainer = make_trainer(model="graphsaint", epochs=epochs, reps=reps)
        assert trainer.sampler.num_batches() > reps  # the source is cut short
        trainer.run()
        reference = make_trainer(model="graphsaint").sampler.algorithm
        for _ in range(epochs * reps):
            reference.sample()
        assert trainer.sampler.algorithm.rng.bit_generator.state \
            == reference.rng.bit_generator.state


# ----------------------------------------------------------------------
# Pinned at the parent commit (02f3ec7), on its serial loop: 2 epochs of
# ppi x0.3, seed 0, 2 representative batches (GraphSAINT: 1, fewer than
# its 2 batches per epoch, so the source is cut short), power sampled
# every 1 ms.  key -> (phases, losses, total_energy).
# ----------------------------------------------------------------------
PINNED_CASES = {
    "cpu": dict(placement="cpu"),
    "cpugpu": dict(placement="cpugpu"),
    "gpu": dict(placement="gpu"),
    "uvagpu": dict(placement="uvagpu"),
    "preload": dict(placement="cpugpu", preload=True),
    "cache20": dict(placement="cpugpu", feature_cache_fraction=0.2),
}

PINNED = {'dglite/clustergcn/cpu': ({'data_loading': 0.022417714,
                            'sampling': 0.040481974759348484,
                            'training': 0.046260430406874775},
                           [0.7461961507797241,
                            0.7005924582481384,
                            0.70847088098526,
                            0.6720929741859436],
                           25.950408375724784),
 'dglite/clustergcn/cpugpu': ({'data_loading': 0.022417714,
                               'data_movement': 0.004368241074073763,
                               'sampling': 0.040481974759348484,
                               'training': 0.04170360963524897},
                              [0.7461961507797241,
                               0.7005924582481384,
                               0.70847088098526,
                               0.6720929741859436],
                              28.464105732838327),
 'dglite/graphsage/cache20': ({'data_loading': 0.022417714,
                               'data_movement': 0.012629676626943668,
                               'sampling': 0.16399122256436804,
                               'training': 0.03678926701431612},
                              [0.904943585395813,
                               0.7676793336868286,
                               0.6672030687332153,
                               0.6169859766960144],
                              58.190940546892804),
 'dglite/graphsage/cpu': ({'data_loading': 0.022417714,
                           'sampling': 0.16399122256436818,
                           'training': 0.099312768452185},
                          [0.904943585395813,
                           0.7676793336868286,
                           0.6672030687332153,
                           0.6169859766960144],
                          69.20799690905571),
 'dglite/graphsage/cpugpu': ({'data_loading': 0.022417714,
                              'data_movement': 0.014368560126269792,
                              'sampling': 0.16399122256436818,
                              'training': 0.03678926701431612},
                             [0.904943585395813,
                              0.7676793336868286,
                              0.6672030687332153,
                              0.6169859766960144],
                             58.30131849737256),
 'dglite/graphsage/gpu': ({'data_loading': 0.022417714,
                           'data_movement': 0.0005152436666666683,
                           'sampling': 0.019322257525556545,
                           'training': 0.03678926701431685},
                          [0.904943585395813,
                           0.7676793336868286,
                           0.6672030687332153,
                           0.6169859766960144],
                          22.71345998442616),
 'dglite/graphsage/preload': ({'data_loading': 0.022417714,
                               'data_movement': 0.0032382525815164032,
                               'sampling': 0.16244973561272558,
                               'training': 0.036789267014315855},
                              [0.904943585395813,
                               0.7676793336868286,
                               0.6672030687332153,
                               0.6169859766960144],
                              56.70767987506478),
 'dglite/graphsage/uvagpu': ({'data_loading': 0.022417714,
                              'data_movement': 8.930966666666554e-05,
                              'sampling': 0.02762181515386608,
                              'training': 0.03678926701431685},
                             [0.904943585395813,
                              0.7676793336868286,
                              0.6672030687332153,
                              0.6169859766960144],
                             25.32033601548523),
 'dglite/graphsaint/cpu': ({'data_loading': 0.022417714,
                            'sampling': 0.005197584015422474,
                            'training': 0.017926180126932055},
                           [0.7074156403541565, 0.6773218512535095],
                           10.363841324876862),
 'dglite/graphsaint/cpugpu': ({'data_loading': 0.022417714,
                               'data_movement': 0.0017978549896697608,
                               'sampling': 0.005197584015422474,
                               'training': 0.004139139508855708},
                              [0.7074156403541565, 0.6773218512535095],
                              7.503205160424357),
 'pyglite/clustergcn/cpu': ({'data_loading': 0.010861474,
                             'sampling': 0.17956187587045977,
                             'training': 0.06065499601591057},
                            [0.7461961507797241,
                             0.7005924582481384,
                             0.70847088098526,
                             0.6720929741859436],
                            64.03233292216032),
 'pyglite/clustergcn/cpugpu': ({'data_loading': 0.010861474,
                                'data_movement': 0.004368241074074318,
                                'sampling': 0.17956187587045977,
                                'training': 0.034470604994188414},
                               [0.7461961507797241,
                                0.7005924582481384,
                                0.70847088098526,
                                0.6720929741859436],
                               60.70480021992117),
 'pyglite/graphsage/cache20': ({'data_loading': 0.010861474,
                                'data_movement': 0.012629676626943108,
                                'sampling': 1.4493852113005405,
                                'training': 0.03282011052011105},
                               [0.904943585395813,
                                0.7676793336868286,
                                0.6672030687332153,
                                0.6169859766960144],
                               372.3230179091076),
 'pyglite/graphsage/cpu': ({'data_loading': 0.010861474,
                            'sampling': 1.4493852113005405,
                            'training': 0.1320098756716029},
                           [0.904943585395813,
                            0.7676793336868286,
                            0.6672030687332153,
                            0.6169859766960144],
                           392.6209956181732),
 'pyglite/graphsage/cpugpu': ({'data_loading': 0.010861474,
                               'data_movement': 0.014368560126268803,
                               'sampling': 1.4493852113005405,
                               'training': 0.03282011052011098},
                              [0.904943585395813,
                               0.7676793336868286,
                               0.6672030687332153,
                               0.6169859766960144],
                              372.4333958595869),
 'pyglite/graphsage/preload': ({'data_loading': 0.010861474,
                                'data_movement': 0.003238252581515909,
                                'sampling': 1.447843724348897,
                                'training': 0.032820110520111245},
                               [0.904943585395813,
                                0.7676793336868286,
                                0.6672030687332153,
                                0.6169859766960144],
                               370.8397572372795),
 'pyglite/graphsaint/cpu': ({'data_loading': 0.010861474,
                             'sampling': 0.013016263149959649,
                             'training': 0.030898414067673748},
                            [0.7074156403541565, 0.6773218512535095],
                            15.938295228320186),
 'pyglite/graphsaint/cpugpu': ({'data_loading': 0.010861474,
                                'data_movement': 0.0017978549896697678,
                                'sampling': 0.013016263149959642,
                                'training': 0.0038749942638973828},
                               [0.7074156403541565, 0.6773218512535095],
                               9.81460605136668)}


class TestPinnedParentValues:
    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_matches_the_serial_loop_it_replaced(self, key):
        framework, model, case = key.split("/")
        phases, losses, energy = PINNED[key]
        result = run_training_experiment(
            framework, "ppi", model, epochs=2, dataset_scale=0.3, seed=0,
            representative_batches=1 if model == "graphsaint" else 2,
            monitor_interval=0.001, **PINNED_CASES[case])
        assert not result.oom
        assert result.losses == losses
        assert set(result.phases) == set(phases)
        for name, seconds in phases.items():
            assert result.phases[name] == pytest.approx(seconds, rel=1e-9)
        # The lanes interleave the extrapolated batches the serial loop
        # charged phase by phase, so a power sample can land on another
        # device's share of the same seconds: largest drift seen 3.2e-4.
        assert result.total_energy == pytest.approx(energy, rel=2e-3)
