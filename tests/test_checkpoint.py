"""Tests for model/optimizer checkpointing."""

import json
import os

import numpy as np
import pytest

from repro.models.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from repro.tensor import functional as F
from repro.tensor.module import Linear, Module
from repro.tensor.optim import Adam
from repro.tensor.tensor import Tensor


class TwoLayer(Module):
    """Linear -> Linear: the smallest model with two parameter groups."""

    def __init__(self, seed1, seed2=None):
        super().__init__()
        self.fc1 = Linear(4, 8, seed=seed1)
        self.fc2 = Linear(8, 3, seed=seed1 if seed2 is None else seed2)

    def forward(self, x):
        return self.fc2(self.fc1(x))


def _train_a_bit(model, optimizer, steps=5):
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((16, 4)).astype(np.float32))
    y = rng.integers(0, 3, 16)
    for _ in range(steps):
        optimizer.zero_grad()
        F.cross_entropy(model(x), y).backward()
        optimizer.step()


class TestRoundtrip:
    def test_parameters_restored_exactly(self, tmp_path):
        model = TwoLayer(0, 1)
        opt = Adam(model.parameters(), lr=0.01)
        _train_a_bit(model, opt)
        save_checkpoint(tmp_path / "ckpt.npz", model, opt)

        fresh = TwoLayer(9)
        fresh_opt = Adam(fresh.parameters(), lr=0.5)
        load_checkpoint(tmp_path / "ckpt.npz", fresh, fresh_opt)

        for (_, a), (_, b) in zip(model.named_parameters(),
                                  fresh.named_parameters()):
            assert np.array_equal(a.data, b.data)
        assert fresh_opt.lr == 0.01
        assert fresh_opt._step_count == opt._step_count

    def test_adam_moments_restored(self, tmp_path):
        model = Linear(4, 3, seed=0)
        opt = Adam(model.parameters(), lr=0.01)
        _train_a_bit(model, opt)
        save_checkpoint(tmp_path / "ckpt.npz", model, opt)

        fresh = Linear(4, 3, seed=5)
        fresh_opt = Adam(fresh.parameters(), lr=0.01)
        load_checkpoint(tmp_path / "ckpt.npz", fresh, fresh_opt)
        for m_old, m_new in zip(opt._m, fresh_opt._m):
            assert np.allclose(m_old, m_new)

    def test_resume_matches_uninterrupted_training(self, tmp_path):
        """Train 10 steps straight vs 5 + checkpoint + resume + 5."""
        straight = Linear(4, 3, seed=0)
        straight_opt = Adam(straight.parameters(), lr=0.05)
        _train_a_bit(straight, straight_opt, steps=10)

        half = Linear(4, 3, seed=0)
        half_opt = Adam(half.parameters(), lr=0.05)
        _train_a_bit(half, half_opt, steps=5)
        save_checkpoint(tmp_path / "half.npz", half, half_opt)

        resumed = Linear(4, 3, seed=7)
        resumed_opt = Adam(resumed.parameters(), lr=0.05)
        load_checkpoint(tmp_path / "half.npz", resumed, resumed_opt)
        _train_a_bit(resumed, resumed_opt, steps=5)

        assert np.allclose(straight.weight.data, resumed.weight.data, atol=1e-6)

    def test_metadata_roundtrip(self, tmp_path):
        model = Linear(2, 2, seed=0)
        save_checkpoint(tmp_path / "m.npz", model,
                        metadata={"epoch": 7, "dataset": "ppi"})
        meta = load_checkpoint(tmp_path / "m.npz", Linear(2, 2, seed=1))
        assert meta == {"epoch": 7, "dataset": "ppi"}

    def test_model_only_checkpoint(self, tmp_path):
        model = Linear(2, 2, seed=0)
        save_checkpoint(tmp_path / "m.npz", model)
        load_checkpoint(tmp_path / "m.npz", Linear(2, 2, seed=1))


class TestErrors:
    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.npz", Linear(2, 2))

    def test_architecture_mismatch(self, tmp_path):
        save_checkpoint(tmp_path / "m.npz", Linear(2, 2, seed=0))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "m.npz", TwoLayer(0))

    def test_shape_mismatch(self, tmp_path):
        save_checkpoint(tmp_path / "m.npz", Linear(2, 2, seed=0))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "m.npz", Linear(2, 3, seed=0))

    def test_bad_version(self, tmp_path):
        path = save_checkpoint(tmp_path / "m.npz", Linear(2, 2, seed=0))
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        manifest = json.loads(str(arrays["manifest"]))
        manifest["_format_version"] = 42
        arrays["manifest"] = np.array(json.dumps(manifest))
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path, Linear(2, 2))

    def test_truncated_archive_is_a_checkpoint_error(self, tmp_path):
        """A kill inside a non-atomic write leaves a cut-short archive."""
        path = save_checkpoint(tmp_path / "m.npz", Linear(2, 2, seed=0))
        path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
        with pytest.raises(CheckpointError, match="m.npz"):
            load_checkpoint(path, Linear(2, 2))

    def test_interrupted_save_keeps_the_previous_checkpoint(
            self, tmp_path, monkeypatch):
        model = Linear(3, 1, seed=0)
        path = save_checkpoint(tmp_path / "m.npz", model,
                               metadata={"epoch": 1})
        first = model.weight.data.copy()
        model.weight.data = np.full_like(first, 2.0)

        def killed(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(OSError, match="killed"):
            save_checkpoint(path, model, metadata={"epoch": 2})
        monkeypatch.undo()
        restored = Linear(3, 1, seed=9)
        assert load_checkpoint(path, restored) == {"epoch": 1}
        assert np.array_equal(restored.weight.data, first)
        assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]


class TestGnnModelCheckpoint:
    def test_trained_gnn_roundtrips_with_eval_parity(self, tmp_path, machine):
        from repro.frameworks import get_framework
        from repro.models.evaluate import evaluate
        from repro.models.fullbatch import FullBatchTrainer, build_fullbatch_sage
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        model = build_fullbatch_sage(fw, fgraph, hidden=16, dropout=0.0, seed=0)
        trainer = FullBatchTrainer(fw, fgraph, model, device="cpu")
        trainer.train_epochs(5)
        save_checkpoint(tmp_path / "gnn.npz", model, trainer.optimizer)

        restored = build_fullbatch_sage(fw, fgraph, hidden=16, dropout=0.0,
                                        seed=99)
        load_checkpoint(tmp_path / "gnn.npz", restored)
        assert (evaluate(fw, fgraph, model).val
                == pytest.approx(evaluate(fw, fgraph, restored).val))


class TestPathNormalization:
    def test_suffixless_path_returns_the_real_file(self, tmp_path):
        """Regression: np.savez appends .npz, so saving to "model.ckpt"
        used to return a path that does not exist on disk."""
        model = Linear(4, 3, seed=0)
        written = save_checkpoint(tmp_path / "model.ckpt", model)
        assert written.exists()
        assert written.name == "model.ckpt.npz"
        assert not (tmp_path / "model.ckpt").exists()

    def test_load_accepts_both_spellings(self, tmp_path):
        model = Linear(4, 3, seed=0)
        save_checkpoint(tmp_path / "model.ckpt", model)
        for spelling in ("model.ckpt", "model.ckpt.npz"):
            fresh = Linear(4, 3, seed=7)
            load_checkpoint(tmp_path / spelling, fresh)
            for (_, a), (_, b) in zip(model.named_parameters(),
                                      fresh.named_parameters()):
                assert np.array_equal(a.data, b.data)

    def test_npz_path_is_untouched(self, tmp_path):
        written = save_checkpoint(tmp_path / "plain.npz", Linear(2, 2, seed=0))
        assert written == tmp_path / "plain.npz"
        assert written.exists()


class TestPartialAdamMoments:
    def _frozen_first_layer(self, seed):
        """A model whose first layer never receives a gradient."""
        model = TwoLayer(seed)
        for p in model.fc1.parameters():
            p.requires_grad = False
        return model

    def test_never_stepped_moments_round_trip_as_none(self, tmp_path):
        model = self._frozen_first_layer(seed=0)
        opt = Adam(model.parameters(), lr=0.01)
        _train_a_bit(model, opt)
        stepped = [m is not None for m in opt._m]
        assert True in stepped and False in stepped  # genuinely partial
        save_checkpoint(tmp_path / "partial.npz", model, opt)

        fresh = self._frozen_first_layer(seed=5)
        fresh_opt = Adam(fresh.parameters(), lr=0.01)
        load_checkpoint(tmp_path / "partial.npz", fresh, fresh_opt)
        assert [m is not None for m in fresh_opt._m] == stepped
        assert [v is not None for v in fresh_opt._v] == stepped

    def test_restore_resets_stale_moments(self, tmp_path):
        """Regression: restoring a partial checkpoint into an optimizer
        that HAS stepped used to keep the target's stale moments."""
        model = self._frozen_first_layer(seed=0)
        opt = Adam(model.parameters(), lr=0.01)
        _train_a_bit(model, opt)
        save_checkpoint(tmp_path / "partial.npz", model, opt)

        # The target optimizer trained a fully-trainable copy: every
        # parameter has moments, some of which the checkpoint lacks.
        warm = TwoLayer(3)
        warm_opt = Adam(warm.parameters(), lr=0.01)
        _train_a_bit(warm, warm_opt)
        assert all(m is not None for m in warm_opt._m)

        load_checkpoint(tmp_path / "partial.npz", warm, warm_opt)
        expected = [m is not None for m in opt._m]
        assert [m is not None for m in warm_opt._m] == expected
        assert [v is not None for v in warm_opt._v] == expected
        for m_old, m_new in zip(opt._m, warm_opt._m):
            if m_old is not None:
                assert np.allclose(m_old, m_new)
