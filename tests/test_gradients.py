"""Finite-difference validation of the hand-written backward pass."""

from dataclasses import replace

import numpy as np
import pytest

from hmic import model
from hmic.errors import HmicError
from hmic.model import NET_DTYPE, ModelConfig, init_params, loss_and_grads

from oracles import gradient_check

MICRO = ModelConfig(channels=(2, 3, 4), head_channels=4)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, 1, 8, 10))
    labels_id = np.array([0, 1, 0])
    labels_ag = np.array([2, 0, 1])
    return x, labels_id, labels_ag


def fresh_params(seed=11, weight=0.5):
    return init_params(replace(MICRO, id_loss_weight=weight), 2, 3, np.random.default_rng(seed))


@pytest.mark.parametrize("weight", [0.5, 1.0, 0.0])
def test_all_parameter_gradients_match_finite_differences(batch, weight):
    x, labels_id, labels_ag = batch
    worst = gradient_check(fresh_params(weight=weight), x, labels_id, labels_ag, eps=1e-5)
    assert worst < 1e-4


@pytest.mark.parametrize("weight", [0.5, 1.0, 0.0])
def test_gradients_across_chunks_match_finite_differences(batch, weight, micro_chunks):
    x, labels_id, labels_ag = batch
    worst = gradient_check(fresh_params(weight=weight), x, labels_id, labels_ag, eps=1e-5)
    assert worst < 1e-4


@pytest.mark.parametrize("weight", [0.5, 1.0, 0.0])
def test_gradients_across_chunks_match_one_chunk(batch, weight, micro_chunks, monkeypatch):
    x, labels_id, labels_ag = batch
    params = fresh_params(weight=weight)
    _, chunked = loss_and_grads(params, x, labels_id, labels_ag)
    monkeypatch.setattr(model, "_CHUNK_PIXELS", x.size)
    _, whole = loss_and_grads(params, x, labels_id, labels_ag)
    assert chunked.keys() == whole.keys()
    for name, grad in whole.items():
        scale = max(np.linalg.norm(grad), np.finfo(float).tiny)
        assert np.linalg.norm(chunked[name] - grad) <= 1e-13 * scale, name


def test_gradients_are_linear_in_the_loss_weight(batch):
    x, labels_id, labels_ag = batch
    _, at_one = loss_and_grads(fresh_params(weight=1.0), x, labels_id, labels_ag)
    _, at_zero = loss_and_grads(fresh_params(weight=0.0), x, labels_id, labels_ag)
    for weight in (0.25, 0.5, 0.9):
        _, mixed = loss_and_grads(fresh_params(weight=weight), x, labels_id, labels_ag)
        for name in mixed:
            combined = weight * at_one[name] + (1.0 - weight) * at_zero[name]
            np.testing.assert_allclose(mixed[name], combined, rtol=1e-9, atol=1e-14)


def test_loss_is_linear_in_the_weight(batch):
    x, labels_id, labels_ag = batch
    for weight in (0.0, 0.3, 0.7, 1.0):
        breakdown, _ = loss_and_grads(fresh_params(weight=weight), x, labels_id, labels_ag)
        assert breakdown.loss_total == pytest.approx(
            weight * breakdown.loss_id + (1.0 - weight) * breakdown.loss_ag, abs=0
        )


def test_loss_across_chunks_is_linear_in_the_weight(batch, micro_chunks):
    x, labels_id, labels_ag = batch
    for weight in (0.0, 0.3, 0.7, 1.0):
        breakdown, _ = loss_and_grads(fresh_params(weight=weight), x, labels_id, labels_ag)
        assert breakdown.loss_total == (
            weight * breakdown.loss_id + (1.0 - weight) * breakdown.loss_ag
        )


def test_gradient_check_refuses_float32_parameters(batch):
    # eps = 1e-5 is below float32's resolution near 1, so a float32 check
    # would read a meaningless error instead of failing.
    x, labels_id, labels_ag = batch
    with pytest.raises(HmicError, match="needs float64 parameters, conv1.w is float32"):
        gradient_check(fresh_params().astype(NET_DTYPE), x, labels_id, labels_ag)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_step_matches_the_float64_step_of_the_same_params(seed):
    # One default-size 32-clip step in three chunks: the float32 gradients
    # agree with the float64 gradients of the same (float32-exact) weights to
    # within 1e-5 of each tensor's largest gradient.
    rng = np.random.default_rng(seed)
    params = init_params(ModelConfig(), 6, 12, rng).astype(NET_DTYPE)
    x = rng.normal(size=(32, 1, 128, 63)).astype(NET_DTYPE)
    labels = np.arange(32)
    low, low_grads = loss_and_grads(params, x, labels % 6, labels % 12)
    high, high_grads = loss_and_grads(params.astype(np.float64), x, labels % 6, labels % 12)
    assert low.loss_total == pytest.approx(high.loss_total, rel=1e-6)
    for name, grad in high_grads.items():
        assert low_grads[name].dtype == NET_DTYPE
        worst = np.abs(low_grads[name] - grad).max() / np.abs(grad).max()
        assert worst < 1e-5, (name, worst)
