import math
from dataclasses import replace

import numpy as np
import pytest

from hmic import training
from hmic.errors import HmicError
from hmic.model import ModelConfig, init_params, loss_and_grads
from hmic.training import TrainConfig, cosine_lr, train, write_training_log

MICRO = ModelConfig(channels=(2, 3, 4), head_channels=4)


def separable_corpus(n_per_class=10, seed=0):
    """Two classes with energy in the top vs bottom half of the patch; the
    patches come as an (N, 1, 8, 8) batch."""
    rng = np.random.default_rng(seed)
    matrices, labels = [], []
    for cls in (0, 1):
        for _ in range(n_per_class):
            m = rng.normal(scale=0.05, size=(8, 8))
            if cls == 0:
                m[:4, :] += 1.0
            else:
                m[4:, :] += 1.0
            matrices.append(m[None])
            labels.append(cls)
    return np.array(matrices), np.array(labels)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 30) == pytest.approx(1e-4)
        assert cosine_lr(29, 30) == pytest.approx(1e-6)
        mid = cosine_lr(29, 59)
        assert mid == pytest.approx((1e-4 + 1e-6) / 2)

    def test_rates_are_python_floats(self):
        # An np.float64 rate would make every float32 Adam update build a
        # float64 temporary per tensor under NumPy 2's promotion rules.
        assert all(type(cosine_lr(e, 7)) is float for e in range(7))

    def test_single_epoch_uses_max(self):
        assert cosine_lr(0, 1) == 1e-4

    def test_monotone_decay(self):
        values = [cosine_lr(e, 20) for e in range(20)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestTrain:
    def test_separable_toy_converges_below_log2(self, monkeypatch):
        # 20 clips in batches of 8, 8 and 4, at a rate the micro network needs
        monkeypatch.setattr(training, "BATCH_SIZE", 8)
        monkeypatch.setattr(training, "LR_MAX", 1e-2)
        matrices, labels = separable_corpus()
        _, log = train(matrices, labels, labels, 2, 2, MICRO, TrainConfig(epochs=25, seed=5))
        losses = [row.loss_total for row in log]
        assert all(a > b for a, b in zip(losses[:8], losses[1:8]))
        assert losses[-1] < math.log(2)

    def test_identical_seed_is_bitwise_identical(self):
        matrices, labels = separable_corpus()
        config = TrainConfig(epochs=3, seed=9)
        first, _ = train(matrices, labels, labels, 2, 2, MICRO, config)
        second, _ = train(matrices, labels, labels, 2, 2, MICRO, config)
        assert first.tensors.keys() == second.tensors.keys()
        for name in first.tensors:
            assert first.tensors[name].dtype == np.float32
            np.testing.assert_array_equal(first.tensors[name], second.tensors[name])

    def test_training_stays_float32(self):
        matrices, labels = separable_corpus(n_per_class=4)
        params, _ = train(matrices, labels, labels, 2, 2, MICRO,
                          TrainConfig(epochs=2, seed=4))
        assert {value.dtype for value in params.tensors.values()} == {np.dtype(np.float32)}
        _, grads = loss_and_grads(params, matrices, labels, labels)
        assert grads.keys() == params.tensors.keys()
        assert {grad.dtype for grad in grads.values()} == {np.dtype(np.float32)}

    def test_different_seed_changes_parameters(self):
        matrices, labels = separable_corpus()
        first, _ = train(matrices, labels, labels, 2, 2, MICRO,
                         TrainConfig(epochs=2, seed=1))
        second, _ = train(matrices, labels, labels, 2, 2, MICRO,
                          TrainConfig(epochs=2, seed=2))
        assert any(
            not np.array_equal(first.tensors[name], second.tensors[name])
            for name in first.tensors
        )

    def test_domain_only_leaves_group_head_at_init(self):
        matrices, labels = separable_corpus()
        config = TrainConfig(epochs=2, seed=3)
        params, log = train(matrices, labels, labels, 2, 2,
                            replace(MICRO, id_loss_weight=1.0), config)
        init = init_params(MICRO, 2, 2, np.random.default_rng(np.random.SeedSequence([3, 0])))
        start = init.astype(np.float32).tensors
        np.testing.assert_array_equal(params.tensors["cls_ag.w"], start["cls_ag.w"])
        np.testing.assert_array_equal(params.tensors["head.w"], start["head.w"])
        assert not np.array_equal(params.tensors["cls_id.w"], start["cls_id.w"])
        assert all(row.loss_total == row.loss_id for row in log)

    def test_attribute_only_leaves_id_head_at_init(self):
        matrices, labels = separable_corpus()
        config = TrainConfig(epochs=2, seed=3)
        params, log = train(matrices, labels, labels, 2, 2,
                            replace(MICRO, id_loss_weight=0.0), config)
        init = init_params(MICRO, 2, 2, np.random.default_rng(np.random.SeedSequence([3, 0])))
        start = init.astype(np.float32).tensors
        np.testing.assert_array_equal(params.tensors["cls_id.w"], start["cls_id.w"])
        assert not np.array_equal(params.tensors["conv1.w"], start["conv1.w"])
        assert all(row.loss_total == row.loss_ag for row in log)

    def test_non_finite_loss_aborts_before_the_update(self):
        matrices, labels = separable_corpus(n_per_class=4)
        matrices[5, 0, 2, 3] = np.nan
        with pytest.raises(HmicError, match="epoch 0, batch 0"):
            train(matrices, labels, labels, 2, 2, MICRO, TrainConfig(epochs=2))

    @pytest.mark.parametrize("shape", [(4, 8, 8), (4, 2, 8, 8)])
    def test_features_that_are_not_a_clip_batch_are_rejected(self, shape):
        with pytest.raises(HmicError, match=r"expected \(N, 1, H, W\) features"):
            train(np.zeros(shape), np.zeros(4, int), np.zeros(4, int), 1, 1, MICRO, TrainConfig())

    def test_empty_corpus_rejected(self):
        with pytest.raises(HmicError, match="empty"):
            train(np.zeros((0, 1, 8, 8)), np.array([]), np.array([]), 1, 1, MICRO, TrainConfig())

    def test_label_space_mismatch_rejected(self):
        matrices, labels = separable_corpus(n_per_class=2)
        with pytest.raises(HmicError, match="label"):
            train(matrices, labels, labels, 1, 2, MICRO, TrainConfig())  # ids exceed n_sections
        negative = labels - 1  # in range above, -1 below
        with pytest.raises(HmicError, match="label"):
            train(matrices, negative, labels, 2, 2, MICRO, TrainConfig())
        with pytest.raises(HmicError, match="label"):
            train(matrices, labels, negative, 2, 2, MICRO, TrainConfig())


def test_training_log_csv(tmp_path):
    matrices, labels = separable_corpus(n_per_class=2)
    _, log = train(matrices, labels, labels, 2, 2, MICRO,
                   TrainConfig(epochs=4, seed=0))
    path = tmp_path / "log.csv"
    write_training_log(path, log)
    lines = path.read_bytes().decode().split("\r\n")  # csv.writer's line ends
    assert lines[0] == "epoch,loss_id,loss_ag,loss_total,lr"
    assert len(lines) == 6 and lines[-1] == ""
    assert [float(line.split(",")[-1]) for line in lines[1:-1]] == [
        float(f"{row.lr:.12g}") for row in log]
    epoch, loss_id, loss_ag, loss_total, lr = lines[1].split(",")
    assert float(loss_total) == pytest.approx(
        0.5 * float(loss_id) + 0.5 * float(loss_ag), rel=1e-9
    )
