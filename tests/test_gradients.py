"""Finite-difference validation of the hand-written backward pass."""

import numpy as np
import pytest

from hmic import model
from hmic.model import ModelConfig, init_params, loss_and_grads
from hmic.training import gradient_check

MICRO = ModelConfig(channels=(2, 3, 4), head_channels=4)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, 1, 8, 10))
    labels_id = np.array([0, 1, 0])
    labels_ag = np.array([2, 0, 1])
    return x, labels_id, labels_ag


def fresh_params(seed=11):
    return init_params(MICRO, 2, 3, np.random.default_rng(seed))


@pytest.mark.parametrize("weight", [0.5, 1.0, 0.0])
def test_all_parameter_gradients_match_finite_differences(batch, weight):
    x, labels_id, labels_ag = batch
    worst = gradient_check(fresh_params(), x, labels_id, labels_ag, weight, eps=1e-5)
    assert worst < 1e-4


@pytest.mark.parametrize("weight", [0.5, 1.0, 0.0])
def test_gradients_across_chunks_match_finite_differences(batch, weight, micro_chunks):
    x, labels_id, labels_ag = batch
    worst = gradient_check(fresh_params(), x, labels_id, labels_ag, weight, eps=1e-5)
    assert worst < 1e-4


@pytest.mark.parametrize("weight", [0.5, 1.0, 0.0])
def test_gradients_across_chunks_match_one_chunk(batch, weight, micro_chunks, monkeypatch):
    x, labels_id, labels_ag = batch
    params = fresh_params()
    _, chunked = loss_and_grads(params, x, labels_id, labels_ag, weight)
    monkeypatch.setattr(model, "_CHUNK_PIXELS", x.size)
    _, whole = loss_and_grads(params, x, labels_id, labels_ag, weight)
    assert chunked.keys() == whole.keys()
    for name, grad in whole.items():
        scale = max(np.linalg.norm(grad), np.finfo(float).tiny)
        assert np.linalg.norm(chunked[name] - grad) <= 1e-13 * scale, name


def test_gradients_are_linear_in_the_loss_weight(batch):
    x, labels_id, labels_ag = batch
    params = fresh_params()
    _, at_one = loss_and_grads(params, x, labels_id, labels_ag, 1.0)
    _, at_zero = loss_and_grads(params, x, labels_id, labels_ag, 0.0)
    for weight in (0.25, 0.5, 0.9):
        _, mixed = loss_and_grads(params, x, labels_id, labels_ag, weight)
        for name in mixed:
            combined = weight * at_one[name] + (1.0 - weight) * at_zero[name]
            np.testing.assert_allclose(mixed[name], combined, rtol=1e-9, atol=1e-14)


def test_loss_is_linear_in_the_weight(batch):
    x, labels_id, labels_ag = batch
    params = fresh_params()
    for weight in (0.0, 0.3, 0.7, 1.0):
        breakdown, _ = loss_and_grads(params, x, labels_id, labels_ag, weight)
        assert breakdown.loss_total == pytest.approx(
            weight * breakdown.loss_id + (1.0 - weight) * breakdown.loss_ag, abs=0
        )


def test_loss_across_chunks_is_linear_in_the_weight(batch, micro_chunks):
    x, labels_id, labels_ag = batch
    params = fresh_params()
    for weight in (0.0, 0.3, 0.7, 1.0):
        breakdown, _ = loss_and_grads(params, x, labels_id, labels_ag, weight)
        assert breakdown.loss_total == (
            weight * breakdown.loss_id + (1.0 - weight) * breakdown.loss_ag
        )
