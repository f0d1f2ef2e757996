"""Crash–resume equivalence: kill at epoch k, resume, match the straight run.

The checkpoint carries model + optimizer state, the loss history, the
phase totals, and every RNG the loop consumes, so a resumed run must be
*numerically indistinguishable* from one that never crashed: identical
parameters, identical losses, phase totals within 1e-9.
"""

import numpy as np
import pytest

from repro.errors import BenchmarkError
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.models.checkpoint import CheckpointError, save_checkpoint
from repro.models.graphsage import build_graphsage, graphsage_sampler
from repro.models.trainer import MiniBatchTrainer, TrainConfig

EPOCHS = 3
KILL_AFTER = 2


def _fresh_trainer(framework, placement="cpu", **config_kwargs):
    """A brand-new stack: machine, graph, sampler, model, trainer."""
    fw = get_framework(framework)
    machine = paper_testbed()
    fgraph = fw.load("ppi", machine, scale=0.3)
    sampler = graphsage_sampler(fw, fgraph, seed=0)
    net = build_graphsage(fw, fgraph, hidden=16, seed=0)
    config = TrainConfig(epochs=EPOCHS, placement=placement,
                         representative_batches=2, seed=0, **config_kwargs)
    trainer = MiniBatchTrainer(fw, fgraph, sampler, net, config)
    return trainer, net


def _straight_and_resumed(framework, tmp_path, placement="cpu"):
    ckpt = tmp_path / "train.npz"

    straight_trainer, straight_net = _fresh_trainer(framework, placement)
    straight = straight_trainer.run()

    killed_trainer, _ = _fresh_trainer(
        framework, placement, checkpoint_every=1, checkpoint_path=str(ckpt),
        halt_after_epochs=KILL_AFTER,
    )
    killed = killed_trainer.run()

    resumed_trainer, resumed_net = _fresh_trainer(
        framework, placement, resume_from=str(ckpt),
    )
    resumed = resumed_trainer.run()
    return straight, straight_net, killed, resumed, resumed_net


@pytest.mark.parametrize("framework", ["dglite", "pyglite"])
class TestCrashResumeEquivalence:
    def test_killed_run_reports_the_crash(self, framework, tmp_path):
        straight, _, killed, _, _ = _straight_and_resumed(framework, tmp_path)
        assert not killed.completed
        # Only KILL_AFTER of the EPOCHS epochs ran before the "crash".
        assert len(killed.losses) == \
            len(straight.losses) * KILL_AFTER // EPOCHS

    def test_resumed_parameters_are_bit_identical(self, framework, tmp_path):
        _, straight_net, _, resumed, resumed_net = \
            _straight_and_resumed(framework, tmp_path)
        assert resumed.completed
        assert resumed.start_epoch == KILL_AFTER
        straight_state = dict(straight_net.named_parameters())
        resumed_state = dict(resumed_net.named_parameters())
        assert set(straight_state) == set(resumed_state)
        for name, value in straight_state.items():
            assert np.array_equal(value.data, resumed_state[name].data), name

    def test_loss_history_matches_exactly(self, framework, tmp_path):
        straight, _, killed, resumed, _ = \
            _straight_and_resumed(framework, tmp_path)
        # The resumed run carries the killed run's loss prefix forward.
        assert resumed.losses[:len(killed.losses)] == killed.losses
        assert len(resumed.losses) == len(straight.losses)
        for a, b in zip(straight.losses, resumed.losses):
            assert abs(a - b) < 1e-9

    def test_phase_totals_match_to_1e9(self, framework, tmp_path):
        straight, _, _, resumed, _ = \
            _straight_and_resumed(framework, tmp_path)
        assert set(resumed.phases) == set(straight.phases)
        for phase, seconds in straight.phases.items():
            assert abs(resumed.phases[phase] - seconds) < 1e-9, phase


class TestCrashResumeCpuGpu:
    def test_equivalence_holds_with_data_movement(self, tmp_path):
        straight, straight_net, _, resumed, resumed_net = \
            _straight_and_resumed("dglite", tmp_path, placement="cpugpu")
        resumed_state = dict(resumed_net.named_parameters())
        for name, value in straight_net.named_parameters():
            assert np.array_equal(value.data, resumed_state[name].data)
        assert set(resumed.phases) == set(straight.phases)
        assert "data_movement" in straight.phases
        for phase, seconds in straight.phases.items():
            assert abs(resumed.phases[phase] - seconds) < 1e-9, phase


class TestCheckpointingMechanics:
    def test_checkpoint_every_requires_a_path(self):
        with pytest.raises(BenchmarkError, match="checkpoint_path"):
            TrainConfig(checkpoint_every=1)

    def test_checkpointing_never_perturbs_the_clock(self, tmp_path):
        plain_trainer, _ = _fresh_trainer("dglite")
        checked_trainer, _ = _fresh_trainer(
            "dglite", checkpoint_every=1,
            checkpoint_path=str(tmp_path / "every.npz"),
        )
        plain = plain_trainer.run()
        checked = checked_trainer.run()
        # Checkpoint I/O is off the virtual clock (async writes): the
        # reported breakdown is identical with and without it.
        assert checked.phases == plain.phases
        assert checked.losses == plain.losses

    def test_resume_rejects_foreign_checkpoints(self, tmp_path):
        trainer, net = _fresh_trainer("dglite")
        path = tmp_path / "foreign.npz"
        save_checkpoint(path, net, metadata={"kind": "something-else"})
        resumed_trainer, _ = _fresh_trainer("dglite",
                                            resume_from=str(path))
        with pytest.raises(CheckpointError, match="not a training"):
            resumed_trainer.run()

    def test_resume_from_missing_file_fails_clearly(self, tmp_path):
        trainer, _ = _fresh_trainer(
            "dglite", resume_from=str(tmp_path / "nope.npz"))
        with pytest.raises(CheckpointError):
            trainer.run()
