"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hmic import nn, pipeline, training  # noqa: E402
from hmic.config import RunConfig  # noqa: E402
from hmic.datagen import (  # noqa: E402
    AttributeSpec, ClipCounts, MachineSpec, SectionSpec, SynthSpec, generate,
)
from hmic.training import TrainConfig  # noqa: E402
from spans import Hook, Recorder, installed, self_times, totals_by_name  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    recorder = Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = recorder.begin("root")
    a = recorder.begin("a")
    b = recorder.begin("b")
    recorder.end(b)
    recorder.end(a)
    c = recorder.begin("c")
    recorder.end(c)
    recorder.end(root)
    assert [s.parent for s in recorder.spans] == [-1, 0, 1, 0]
    assert self_times(recorder.spans) == [3, 2, 1, 4]
    assert sum(self_times(recorder.spans)) == 10  # self times tile the root


def test_totals_group_by_name_and_sum_counters():
    recorder = Recorder(clock=FakeClock([0, 1, 3, 4, 6, 10]))
    outer = recorder.begin("outer")
    for _ in range(2):
        inner = recorder.begin("inner")
        recorder.end(inner).counters = {"bytes": 5}
    recorder.end(outer)
    totals = totals_by_name(recorder.spans)
    assert totals["inner"].calls == 2
    assert totals["inner"].self_s == 4
    assert totals["inner"].counters == {"bytes": 10}
    assert totals["outer"].self_s == 6
    assert totals["outer"].total_s == 10


def test_installed_wraps_and_restores_even_when_the_call_raises():
    class Owner:
        @staticmethod
        def boom():
            raise ValueError("x")

    original = vars(Owner)["boom"]
    recorder = Recorder()
    with installed(recorder, [Hook(Owner, "boom", "owner.boom")]):
        with pytest.raises(ValueError):
            Owner.boom()
    assert vars(Owner)["boom"] is original
    assert [s.name for s in recorder.spans] == ["owner.boom"]
    assert recorder.spans[0].end >= recorder.spans[0].start


def _loop_conv(x, w, b):
    """Reference 3x3 same-padding convolution that counts its multiply-adds."""
    batch, chans, height, width = x.shape
    outs = w.shape[0]
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((batch, outs, height, width))
    macs = 0
    for n, o, h, col in product(range(batch), range(outs), range(height), range(width)):
        acc = b[o]
        for c, i, j in product(range(chans), range(3), range(3)):
            acc += padded[n, c, h + i, col + j] * w[o, c, i, j]
            macs += 1
        out[n, o, h, col] = acc
    return out, macs


def _loop_conv_backward(dout, x, w):
    """Reference weight and input gradients, with their multiply-add counts."""
    batch, chans, height, width = x.shape
    outs = w.shape[0]
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dw = np.zeros_like(w)
    dpadded = np.zeros_like(padded)
    dw_macs = dx_macs = 0
    for n, o, h, col, c, i, j in product(range(batch), range(outs), range(height),
                                         range(width), range(chans), range(3), range(3)):
        dw[o, c, i, j] += padded[n, c, h + i, col + j] * dout[n, o, h, col]
        dpadded[n, c, h + i, col + j] += w[o, c, i, j] * dout[n, o, h, col]
        dw_macs += 1
        dx_macs += 1
    return dpadded[:, :, 1:-1, 1:-1], dw, dw_macs, dx_macs


def test_conv_flop_counts_match_a_counting_reference():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 5, 4))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    out, cache = nn.conv2d(x, w, b)
    ref, macs = _loop_conv(x, w, b)
    np.testing.assert_allclose(out, ref, atol=1e-12)
    assert layers.conv_forward_flops(out.shape, w.shape) == 2 * macs

    dout = rng.standard_normal(out.shape)
    dx, dw, _ = nn.conv2d_backward(dout, cache)
    ref_dx, ref_dw, dw_macs, dx_macs = _loop_conv_backward(dout, x, w)
    np.testing.assert_allclose(dx, ref_dx, atol=1e-12)
    np.testing.assert_allclose(dw, ref_dw, atol=1e-12)
    assert layers.conv_backward_flops(dout.shape, dx.shape, dw.shape) == 2 * (dw_macs + dx_macs)
    assert layers.conv_backward_flops(dout.shape, None, dw.shape) == 2 * dw_macs


def test_conv_hooks_name_blocks_from_weight_shapes():
    rng = np.random.default_rng(1)
    recorder = Recorder()
    hooks = [h for h in layers.hooks() if h.owner is nn and h.attr.startswith("conv2d")]
    with installed(recorder, hooks):
        out, cache = nn.conv2d(rng.standard_normal((1, 8, 6, 6)),
                               rng.standard_normal((16, 8, 3, 3)), np.zeros(16))
        nn.conv2d_backward(out, cache)
    names = [s.name for s in recorder.spans]
    assert names == ["nn.conv2d.conv2", "nn.conv2d_backward.conv2"]
    assert recorder.spans[0].counters["gflop"] == 2 * 16 * 36 * 8 * 9 / 1e9


def _tiny_corpus(root: Path) -> Path:
    counts = ClipCounts(train_source=4, train_target=2, test_normal_source=2,
                        test_anomalous_source=2, test_normal_target=2, test_anomalous_target=2)
    attr = AttributeSpec(name="spd", source_values=("A", "B"), target_values=(),
                         tones_hz={"A": (700.0,), "B": (1900.0,)})
    spec = SynthSpec(
        machines=(MachineSpec("gizmo", (SectionSpec(0, (attr,), 4.0, counts),)),),
        clip_seconds=0.3,
    )
    generate(spec, root / "corpus")
    return root / "corpus"


def test_hooks_record_where_the_caller_looks_names_up(tmp_path):
    corpus = _tiny_corpus(tmp_path)
    config = RunConfig(train=TrainConfig(epochs=1))
    recorder = Recorder()
    wrong = Hook(training, "train", "wrong.training.train")
    with installed(recorder, layers.hooks() + [wrong]):
        pipeline.run_train(config, corpus, tmp_path / "m.hmic", tmp_path)
    totals = totals_by_name(recorder.spans)
    assert "wrong.training.train" not in totals  # the pipeline imported the name
    assert totals["training.train"].calls == 1
    assert totals["model.loss_and_grads"].calls == 1
    assert totals["training.adam_step"].calls == 1
    assert totals["checkpoint.save"].calls == 1
    parents = {s.name: recorder.spans[s.parent].name for s in recorder.spans if s.parent >= 0}
    assert parents["model.loss_and_grads"] == "training.train"
    assert parents["training.train"] == "pipeline.run_train"


def test_training_spans_are_called_by_train_and_never_by_score(tmp_path):
    corpus = _tiny_corpus(tmp_path)
    config = RunConfig(train=TrainConfig(epochs=1))
    called = {}
    for stage in ("train", "score"):
        recorder = Recorder()
        with installed(recorder, layers.hooks()):
            if stage == "train":
                pipeline.run_train(config, corpus, tmp_path / "m.hmic", tmp_path)
            else:
                pipeline.run_score(config, tmp_path / "m.hmic", corpus / "manifest.csv",
                                   tmp_path / "s.csv", tmp_path)
        called[stage] = set(totals_by_name(recorder.spans))
    assert layers.TRAINING_SPANS <= called["train"]
    assert not layers.TRAINING_SPANS & called["score"]
    assert not layers.SETUP_SPANS & (called["train"] | called["score"])


def test_traced_passes_alternate_which_kind_runs_first():
    order = [run.traced_pass(i) for i in range(8)]
    assert order == [True, False, False, True, True, False, False, True]
    passes = [(t, 2.0 if t else 1.6) for t in order]
    assert run.overhead_ratios(passes) == pytest.approx([0.25] * 4)


def test_every_reported_span_has_a_hook():
    hooked = {h.name for h in layers.hooks()}
    for span in layers.exercised_spans():
        base = span.rsplit(".", 1)[0] if span.startswith("nn.conv2d") else span
        assert base in hooked, span
    for workload in workloads.WORKLOADS.values():
        assert workload.unexercised <= layers.exercised_spans()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["bench"]
    assert spec["per_layer"] == layers.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_zero_cell_oracle_agrees_with_hmic_metrics():
    from hmic.evaluation import auc_from_scores, pauc_from_scores

    rng = np.random.default_rng(3)
    seen_zero = 0
    for _ in range(300):
        n_normal = int(rng.integers(5, 21))
        n_anomalous = int(rng.integers(1, 21))
        # Few distinct values, so ties between the classes are common.
        normal = rng.integers(0, 6, n_normal).astype(float)
        anomalous = rng.integers(0, 6, n_anomalous).astype(float) - rng.integers(0, 3)
        cell = ("m", 0, "source")
        cells = [(cell, False)] * n_normal + [(cell, True)] * n_anomalous
        scores = list(normal) + list(anomalous)
        expected = auc_from_scores(normal, anomalous) == 0 or pauc_from_scores(
            normal, anomalous, 0.1) == 0
        assert workloads.has_zero_cell(scores, cells, 0.1) == expected
        seen_zero += expected
    assert 0 < seen_zero < 300
