import math
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hmic import nn
from hmic.model import (
    NET_DTYPE,
    LossBreakdown,
    ModelConfig,
    ModelError,
    forward_features,
    init_params,
    loss_and_grads,
)

MICRO = ModelConfig(channels=(2, 3, 4), head_channels=4)


def micro_params(seed=0, n_sections=2, n_groups=3, weight=0.5):
    """Micro-config parameters whose loss weighs the section-ID head by ``weight``."""
    rng = np.random.default_rng(seed)
    return init_params(replace(MICRO, id_loss_weight=weight), n_sections, n_groups, rng)


def mixed_loss(logits_id, logits_ag, labels_id, labels_ag, weight):
    """The loss breakdown of the two heads' logits: the formula, written out."""
    loss_id, _ = nn.softmax_cross_entropy(logits_id, labels_id)
    loss_ag, _ = nn.softmax_cross_entropy(logits_ag, labels_ag)
    return LossBreakdown(loss_id, loss_ag, weight * loss_id + (1.0 - weight) * loss_ag)


def conv2d_oracle(x, w, b):
    """Direct quadruple-loop 3x3 same-padding convolution."""
    B, C, H, W = x.shape
    O = w.shape[0]
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((B, O, H, W))
    for n in range(B):
        for o in range(O):
            for y in range(H):
                for xx in range(W):
                    acc = 0.0
                    for c in range(C):
                        for i in range(3):
                            for j in range(3):
                                acc += padded[n, c, y + i, xx + j] * w[o, c, i, j]
                    out[n, o, y, xx] = acc + b[o]
    return out


def conv2d_backward_oracle(dout, x, w):
    """Loop-form gradients of the 3x3 same-padding convolution."""
    B, C, H, W = x.shape
    O = w.shape[0]
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dpadded = np.zeros_like(padded)
    dw = np.zeros_like(w)
    db = np.zeros(O)
    for n in range(B):
        for o in range(O):
            for y in range(H):
                for xx in range(W):
                    g = dout[n, o, y, xx]
                    db[o] += g
                    for c in range(C):
                        for i in range(3):
                            for j in range(3):
                                dw[o, c, i, j] += g * padded[n, c, y + i, xx + j]
                                dpadded[n, c, y + i, xx + j] += g * w[o, c, i, j]
    return dpadded[:, :, 1:-1, 1:-1], dw, db


def avg_pool2_reshape_mean(x):
    """The pooling formula the slice sum replaced; the bitwise reference."""
    B, C, H, W = x.shape
    H2, W2 = H // 2, W // 2
    return x[:, :, : 2 * H2, : 2 * W2].reshape(B, C, H2, 2, W2, 2).mean(axis=(3, 5))


def avg_pool2_backward_repeat(dout, H, W):
    """The pooling backward the slice assignment replaced; the bitwise reference."""
    B, C, H2, W2 = dout.shape
    dx = np.zeros((B, C, H, W))
    dx[:, :, : 2 * H2, : 2 * W2] = np.repeat(np.repeat(dout, 2, axis=2), 2, axis=3) / 4.0
    return dx


# The reshape-mean adds each window as (a + b) + (c + d) once the pooled width
# is 2 or more, as the slice sum does; every pipeline input (63 or 313 frames)
# keeps it there. A pooled width of 1 makes numpy add ((a + b) + c) + d.
POOL_SHAPES = [(2, 3, 8, 6), (2, 3, 7, 5), (3, 2, 9, 10), (32, 8, 128, 63), (1, 1, 2, 4)]


# (B, C, O, H, W): one input channel, whose weight gradient is a GEMM over nine
# column rows; more input than output channels, where the input gradient's
# col2im narrows the channels; an empty batch; and images narrower than the kernel.
CONV_SHAPES = [(2, 3, 5, 4, 4), (2, 3, 4, 7, 6), (2, 1, 4, 7, 6), (2, 5, 3, 6, 5),
               (0, 3, 4, 7, 6), (1, 2, 3, 1, 2)]
CONV_IDS = ["B{}-C{}-O{}-{}x{}".format(*shape) for shape in CONV_SHAPES]


class TestPrimitives:
    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=CONV_IDS)
    def test_conv_matches_loop_oracle(self, shape):
        B, C, O, H, W = shape
        rng = np.random.default_rng(7)
        x = rng.normal(size=(B, C, H, W))
        w = rng.normal(size=(O, C, 3, 3))
        b = rng.normal(size=O)
        out, _ = nn.conv2d(x, w, b)
        assert out.shape == (B, O, H, W)
        np.testing.assert_allclose(out, conv2d_oracle(x, w, b), rtol=1e-12, atol=1e-12)

    def test_avg_pool_drops_odd_tail(self):
        x = np.arange(2 * 1 * 5 * 7, dtype=float).reshape(2, 1, 5, 7)
        out, _ = nn.avg_pool2(x)
        assert out.shape == (2, 1, 2, 3)
        assert out[0, 0, 0, 0] == np.mean([x[0, 0, 0, 0], x[0, 0, 0, 1], x[0, 0, 1, 0], x[0, 0, 1, 1]])

    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=CONV_IDS)
    def test_conv_backward_matches_loop_oracle(self, shape):
        B, C, O, H, W = shape
        rng = np.random.default_rng(11)
        x = rng.normal(size=(B, C, H, W))
        w = rng.normal(size=(O, C, 3, 3))
        dout = rng.normal(size=(B, O, H, W))
        dx, dw, db = nn.conv2d_backward(dout, (x, w))
        assert dx.shape == x.shape and dw.shape == w.shape
        dx_ref, dw_ref, db_ref = conv2d_backward_oracle(dout, x, w)
        np.testing.assert_allclose(dx, dx_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw, dw_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db, db_ref, rtol=1e-12, atol=1e-12)

    def test_conv_backward_without_dx_keeps_dw_and_db(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 7, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        dout = rng.normal(size=(2, 4, 7, 6))
        _, dw, db = nn.conv2d_backward(dout, (x, w))
        dx_none, dw_only, db_only = nn.conv2d_backward(dout, (x, w), need_dx=False)
        assert dx_none is None
        np.testing.assert_array_equal(dw_only, dw)
        np.testing.assert_array_equal(db_only, db)

    @pytest.mark.parametrize("shape", POOL_SHAPES)
    @pytest.mark.parametrize("layout", ["contiguous", "conv_output", "reversed_rows"])
    def test_avg_pool_is_bitwise_the_reshape_mean(self, shape, layout):
        rng = np.random.default_rng(13)
        x = rng.normal(size=shape)
        if layout == "conv_output":  # channel-major memory, as the conv GEMM returns
            x = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        elif layout == "reversed_rows":
            x = x[:, :, ::-1]
        out, cache = nn.avg_pool2(x)
        np.testing.assert_array_equal(out, avg_pool2_reshape_mean(x))
        dout = rng.normal(size=out.shape)
        np.testing.assert_array_equal(
            nn.avg_pool2_backward(dout, cache), avg_pool2_backward_repeat(dout, *shape[2:])
        )

    def test_avg_pool_of_width_one_is_within_rounding_of_the_reshape_mean(self):
        x = np.random.default_rng(14).normal(size=(2, 3, 6, 3))
        out, _ = nn.avg_pool2(x)
        np.testing.assert_allclose(out, avg_pool2_reshape_mean(x), rtol=0, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(
        logits=hnp.arrays(
            np.float64,
            (4, 6),
            elements=st.floats(min_value=-30, max_value=30, allow_nan=False),
        )
    )
    def test_softmax_rows_sum_to_one(self, logits):
        # B * dlogits is softmax minus the one-hot labels, so each row sums to 0.
        labels = np.arange(logits.shape[0]) % logits.shape[1]
        _, dlogits = nn.softmax_cross_entropy(logits, labels)
        rows = (logits.shape[0] * dlogits).sum(axis=1)
        np.testing.assert_allclose(rows, 0.0, rtol=0, atol=1e-12)

    def test_cross_entropy_is_nonnegative_and_label_checked(self):
        logits = np.array([[0.3, -0.2, 1.0]])
        value, _ = nn.softmax_cross_entropy(logits, np.array([2]))
        assert value >= 0.0
        with pytest.raises(ValueError, match="out of range"):
            nn.softmax_cross_entropy(logits, np.array([3]))

    def test_cross_entropy_gradient_vanishes_at_minimum(self):
        # huge-margin logits: the loss sits at its floor and the residual is ~0
        logits = np.array([[40.0, 0.0]])
        value, dlogits = nn.softmax_cross_entropy(logits, np.array([0]))
        assert value < 1e-6
        assert np.max(np.abs(dlogits)) < 1e-6


class TestForwardFeatures:
    def test_deterministic(self):
        params = micro_params()
        x = np.random.default_rng(1).normal(size=(1, 1, 8, 8))
        np.testing.assert_array_equal(forward_features(params, x), forward_features(params, x))

    def test_all_zero_params_give_zero_features(self):
        params = micro_params()
        for tensor in params.tensors.values():
            tensor[...] = 0.0
        x = np.random.default_rng(2).normal(size=(1, 1, 8, 8))
        assert np.all(forward_features(params, x) == 0.0)

    def test_feature_dims_follow_config(self):
        params = micro_params()
        assert forward_features(params, np.zeros((3, 1, 16, 10))).shape == (3, 4)

    def test_too_small_input_rejected(self):
        with pytest.raises(ModelError, match="too small"):
            forward_features(micro_params(), np.zeros((1, 1, 4, 4)))

    def test_multichannel_input_rejected(self):
        with pytest.raises(ModelError):
            forward_features(micro_params(), np.zeros((1, 2, 8, 8)))

    @pytest.mark.parametrize("shape", [(8, 8), (2, 8, 8), (2, 1, 1, 8, 8)])
    def test_input_that_is_not_a_batch_is_rejected(self, shape):
        for run in (forward_features, lambda p, x: loss_and_grads(p, x, [0], [0])):
            with pytest.raises(ModelError, match=r"expected \(B, 1, H, W\) input"):
                run(micro_params(), np.zeros(shape))

    @settings(max_examples=25, deadline=None)
    @example(n_clips=30, n_frames=70, seed=0)  # chunks of 11, 11 and 8 clips
    @given(
        n_clips=st.integers(1, 30),
        n_frames=st.integers(8, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_features_do_not_depend_on_the_chunking(self, n_clips, n_frames, seed):
        # Default widths: 11-97 clips per chunk, so stacks of up to 30 clips
        # at 8-70 frames run as one chunk or as several with a remainder.
        rng = np.random.default_rng(seed)
        params = init_params(ModelConfig(), 3, 4, rng)
        x = rng.normal(size=(n_clips, 1, 128, n_frames))
        # Under 16 frames one clip's head conv is a GEMM with 16 pixel
        # columns, and OpenBLAS sums GEMMs of fewer than 32 in another order,
        # so there a clip's features move by rounding with its chunk.
        self._assert_stack_equals_per_clip(params, x, exact=n_frames >= 16)

    def test_features_do_not_depend_on_the_chunking_at_dcase_size(self):
        rng = np.random.default_rng(12)
        params = init_params(ModelConfig(), 3, 4, rng)
        self._assert_stack_equals_per_clip(params, rng.normal(size=(3, 1, 128, 313)))

    @staticmethod
    def _assert_stack_equals_per_clip(params, x, exact=True):
        stacked = forward_features(params, x)
        expected = np.concatenate([forward_features(params, x[i:i + 1]) for i in range(len(x))])
        if exact:
            np.testing.assert_array_equal(stacked, expected)
        else:
            np.testing.assert_allclose(stacked, expected, rtol=1e-12, atol=1e-15)

    def test_empty_stack_gives_empty_features(self):
        assert forward_features(micro_params(), np.zeros((0, 1, 16, 16))).shape == (0, 4)

    @staticmethod
    def _forward_peak(dtype):
        rng = np.random.default_rng(10)
        params = init_params(ModelConfig(), 6, 12, rng).astype(dtype)
        x = rng.normal(size=(32, 1, 128, 313)).astype(dtype)
        tracemalloc.start()
        try:
            forward_features(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_inference_memory_stays_bounded(self):
        # 32 clips at 128x313 peak near 16 MB in chunks of two clips; as one
        # 32-clip batch they peaked at about 360 MB.
        peak = self._forward_peak(np.float64)
        assert peak < 60e6, f"peak {peak / 1e6:.0f} MB"

    def test_float32_inference_memory_stays_bounded(self):
        # The network's own dtype halves the float64 peak, to near 8 MB.
        peak = self._forward_peak(NET_DTYPE)
        assert peak < 30e6, f"peak {peak / 1e6:.0f} MB"


def head_logits(params, feat_low, feat_high):
    """Both heads' logits, as loss_and_grads computes them."""
    t = params.tensors
    logits_id, _ = nn.linear(feat_low, t["cls_id.w"], t["cls_id.b"])
    logits_ag, _ = nn.linear(feat_high, t["cls_ag.w"], t["cls_ag.b"])
    return logits_id, logits_ag


class TestClassify:
    def test_zero_features_zero_bias_give_zero_logits(self):
        params = micro_params()
        params.tensors["cls_id.b"][...] = 0.0
        params.tensors["cls_ag.b"][...] = 0.0
        logits_id, logits_ag = head_logits(params, np.zeros((2, 4)), np.zeros((2, 4)))
        assert np.all(logits_id == 0.0)
        assert np.all(logits_ag == 0.0)

    def test_identity_weight_passes_feature_through(self):
        params = micro_params(n_sections=4, n_groups=4)
        params.tensors["cls_id.w"][...] = np.eye(4)
        params.tensors["cls_id.b"][...] = 0.0
        feat = np.array([[0.5, -1.0, 2.0, 0.0]])
        logits_id, _ = head_logits(params, feat, feat)
        np.testing.assert_array_equal(logits_id, feat)

    def test_matches_loop_matmul_oracle(self):
        rng = np.random.default_rng(3)
        params = micro_params()
        feat_low = rng.normal(size=(3, 4))
        logits_id, logits_ag = head_logits(params, feat_low, rng.normal(size=(3, 4)))
        w, b = params.tensors["cls_id.w"], params.tensors["cls_id.b"]
        expected = np.empty((3, 2))
        for n in range(3):
            for k in range(2):
                expected[n, k] = sum(feat_low[n, d] * w[k, d] for d in range(4)) + b[k]
        np.testing.assert_allclose(logits_id, expected, rtol=1e-12)
        assert logits_ag.shape == (3, 3)


def zero_head_params(n_sections, n_groups):
    """Micro parameters whose classifier weights and biases are zero, so both
    heads give uniform logits."""
    params = micro_params(n_sections=n_sections, n_groups=n_groups)
    for name in ("cls_id.w", "cls_id.b", "cls_ag.w", "cls_ag.b"):
        params.tensors[name][...] = 0.0
    return params


class TestLoss:
    def test_uniform_logits_give_log_k(self):
        x = np.random.default_rng(4).normal(size=(5, 1, 8, 8))
        result, _ = loss_and_grads(zero_head_params(4, 7), x, np.zeros(5, int), np.zeros(5, int))
        assert abs(result.loss_id - math.log(4)) < 1e-12
        assert abs(result.loss_ag - math.log(7)) < 1e-12

    def test_endpoint_weights(self):
        x = np.random.default_rng(4).normal(size=(3, 1, 8, 8))
        labels_id = np.array([0, 1, 0])
        labels_ag = np.array([4, 2, 0])
        at_one, _ = loss_and_grads(micro_params(n_groups=5, weight=1.0), x, labels_id, labels_ag)
        at_zero, _ = loss_and_grads(micro_params(n_groups=5, weight=0.0), x, labels_id, labels_ag)
        assert at_one.loss_total == at_one.loss_id
        assert at_zero.loss_total == at_zero.loss_ag

    def test_three_class_hand_example(self):
        # logits (2, 0, 0) with true class 0: CE = ln(1 + 2 e^-2)
        logits = np.array([[2.0, 0.0, 0.0]])
        value, _ = nn.softmax_cross_entropy(logits, np.array([0]))
        assert abs(value - math.log(1.0 + 2.0 * math.exp(-2.0))) < 1e-12

    def test_breakdown_identity_holds_exactly(self):
        x = np.random.default_rng(5).normal(size=(2, 1, 8, 8))
        params = micro_params(n_sections=3, n_groups=4, weight=0.3)
        result, _ = loss_and_grads(params, x, np.array([0, 2]), np.array([1, 3]))
        assert result.loss_total == 0.3 * result.loss_id + 0.7 * result.loss_ag

    @settings(max_examples=40, deadline=None)
    @given(
        weight=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_total_between_component_losses(self, weight, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 1, 8, 8))
        labels_id = rng.integers(0, 3, 4)
        labels_ag = rng.integers(0, 5, 4)
        params = micro_params(seed, n_sections=3, n_groups=5, weight=weight)
        result, _ = loss_and_grads(params, x, labels_id, labels_ag)
        lo = min(result.loss_id, result.loss_ag)
        hi = max(result.loss_id, result.loss_ag)
        assert lo - 1e-12 <= result.loss_total <= hi + 1e-12

    def test_weight_out_of_range_rejected(self):
        # loss_and_grads reads the weight from a config, which refuses it
        for weight in (1.2, -0.1):
            with pytest.raises(ModelError, match="id_loss_weight must be in"):
                micro_params(weight=weight)

    @staticmethod
    def _breakdown_and_cross_entropy_inputs(x, weight, monkeypatch):
        """loss_and_grads on three clips, and the (logits, labels) of each
        cross-entropy it took, in call order."""
        seen = []
        real = nn.softmax_cross_entropy

        def recording(logits, labels):
            seen.append((logits.copy(), labels))
            return real(logits, labels)

        monkeypatch.setattr(nn, "softmax_cross_entropy", recording)
        breakdown, _ = loss_and_grads(micro_params(weight=weight), x, np.array([0, 1, 1]),
                                      np.array([2, 0, 1]))
        return breakdown, seen

    @pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
    def test_loss_and_grads_breakdown_is_loss_of_its_logits(self, weight, monkeypatch):
        x = np.random.default_rng(9).normal(size=(3, 1, 8, 8))
        breakdown, seen = self._breakdown_and_cross_entropy_inputs(x, weight, monkeypatch)
        assert len(seen) == 2  # one cross-entropy per head
        (logits_id, labels_id), (logits_ag, labels_ag) = seen
        assert breakdown == mixed_loss(logits_id, logits_ag, labels_id, labels_ag, weight)

    @pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
    def test_chunked_breakdown_is_loss_of_its_concatenated_logits(self, weight, micro_chunks,
                                                                   monkeypatch):
        x = np.random.default_rng(9).normal(size=(3, 1, 8, 10))
        breakdown, seen = self._breakdown_and_cross_entropy_inputs(x, weight, monkeypatch)
        assert len(seen) == 2 * math.ceil(3 / micro_chunks)  # both heads, every chunk
        logits_id, labels_id = (np.concatenate(parts) for parts in zip(*seen[0::2]))
        logits_ag, labels_ag = (np.concatenate(parts) for parts in zip(*seen[1::2]))
        whole = mixed_loss(logits_id, logits_ag, labels_id, labels_ag, weight)
        for got, want in zip(astuple(breakdown), astuple(whole)):
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_empty_batch_rejected(self):
        with pytest.raises(ModelError, match="empty"):
            loss_and_grads(micro_params(), np.zeros((0, 1, 8, 10)), np.array([], int),
                           np.array([], int))

    @pytest.mark.parametrize("head", ["id", "ag"])
    @pytest.mark.parametrize("n_labels", [6, 3, (4, 1)], ids=["6", "3", "4x1"])
    def test_labels_not_one_per_clip_rejected(self, head, n_labels, micro_chunks):
        # 6 labels on 4 clips in chunks of 2 would otherwise train on the first 4.
        x = np.zeros((4, 1, 8, 10))
        fitting = np.zeros(4, int)
        misfit = np.zeros(n_labels, int)
        labels = (misfit, fitting) if head == "id" else (fitting, misfit)
        with pytest.raises(ModelError, match="label shapes"):
            loss_and_grads(micro_params(), x, *labels)


class TestAblationWeights:
    def test_endpoint_weight_silences_other_head(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 1, 8, 8))
        labels_id = np.array([0, 1])
        labels_ag = np.array([0, 2])
        _, grads_domain = loss_and_grads(micro_params(weight=1.0), x, labels_id, labels_ag)
        assert np.all(grads_domain["cls_ag.w"] == 0.0)
        assert np.all(grads_domain["head.w"] == 0.0)
        _, grads_attr = loss_and_grads(micro_params(weight=0.0), x, labels_id, labels_ag)
        assert np.all(grads_attr["cls_id.w"] == 0.0)
        assert np.any(grads_attr["conv1.w"] != 0.0)  # backbone still learns

    def test_endpoint_weight_silences_other_head_across_chunks(self, micro_chunks):
        x = np.random.default_rng(6).normal(size=(3, 1, 8, 10))
        labels_id = np.array([0, 1, 1])
        labels_ag = np.array([0, 2, 1])
        _, grads_domain = loss_and_grads(micro_params(weight=1.0), x, labels_id, labels_ag)
        for name in ("cls_ag.w", "cls_ag.b", "head.w", "head.b", "head.g"):
            assert np.all(grads_domain[name] == 0.0), name
        _, grads_attr = loss_and_grads(micro_params(weight=0.0), x, labels_id, labels_ag)
        for name in ("cls_id.w", "cls_id.b"):
            assert np.all(grads_attr[name] == 0.0), name
        assert np.any(grads_attr["conv1.w"] != 0.0)


class TestBackward:
    def test_only_conv1_skips_its_input_gradient(self, monkeypatch):
        calls = []
        original = nn.conv2d_backward

        def recording(dout, cache, need_dx=True):
            calls.append((cache[1].shape[1], need_dx))
            return original(dout, cache, need_dx=need_dx)

        monkeypatch.setattr(nn, "conv2d_backward", recording)
        x = np.random.default_rng(8).normal(size=(2, 1, 8, 8))
        loss_and_grads(micro_params(), x, np.array([0, 1]), np.array([0, 2]))
        assert sorted(calls) == [(1, False), (2, True), (3, True), (4, True)]

    def test_backward_gradients_reach_each_layer_channel_major(self, monkeypatch):
        # Every backward array is channel-major behind its NCHW shape; a
        # C-contiguous dout here would mean a layout copy in each elementwise op.
        seen = []

        def recording(name):
            original = getattr(nn, name)

            def record(dout, *args, **kwargs):
                seen.append((name, dout.shape, dout.transpose(1, 0, 2, 3).flags.c_contiguous))
                return original(dout, *args, **kwargs)

            monkeypatch.setattr(nn, name, record)

        for name in ("conv2d_backward", "channel_scale_backward", "relu_backward"):
            recording(name)
        x = np.random.default_rng(8).normal(size=(3, 1, 16, 12))
        loss_and_grads(micro_params(), x, np.array([0, 1, 1]), np.array([0, 2, 1]))
        assert len(seen) == 12
        assert [entry for entry in seen if not entry[2]] == []

    @staticmethod
    def _step_peak(n_frames, dtype=np.float64):
        rng = np.random.default_rng(9)
        params = init_params(ModelConfig(), 6, 12, rng).astype(dtype)
        x = rng.normal(size=(32, 1, 128, n_frames)).astype(dtype)
        labels = np.arange(32)
        tracemalloc.start()
        try:
            loss_and_grads(params, x, labels % 6, labels % 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_training_step_memory_stays_bounded(self):
        # One default-size step, in chunks of 12 clips, peaks near 39 MB. As one
        # 32-clip batch it peaked at 101 MB; with the input gradient as the
        # forward GEMM on a (9*O, B*H*W) column matrix of dout, at 141 MB.
        peak = self._step_peak(63)
        assert peak < 60e6, f"peak {peak / 1e6:.0f} MB"

    def test_training_step_memory_stays_bounded_at_dcase_size(self):
        # 32 clips at 128x313 peak near 33 MB in chunks of two clips; as one
        # batch they peaked at 506 MB.
        peak = self._step_peak(313)
        assert peak < 60e6, f"peak {peak / 1e6:.0f} MB"

    def test_float32_training_step_memory_stays_bounded(self):
        # Near 20 MB, half the float64 step's peak.
        peak = self._step_peak(63, NET_DTYPE)
        assert peak < 30e6, f"peak {peak / 1e6:.0f} MB"

    def test_float32_training_step_memory_stays_bounded_at_dcase_size(self):
        # Near 17 MB, half the float64 step's peak.
        peak = self._step_peak(313, NET_DTYPE)
        assert peak < 30e6, f"peak {peak / 1e6:.0f} MB"
