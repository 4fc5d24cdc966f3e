"""The layers of hmic as the traced run sees them.

Each hook wraps a function where its caller looks the name up. The pipeline
imported ``train``, ``forward_features``, ``build_report``, the checkpoint
functions and ``read_manifest`` by name, so those are wrapped in
``hmic.pipeline``; wrapping ``hmic.training.train`` would record nothing.
Likewise ``train`` finds ``loss_and_grads`` in ``hmic.training`` and
``generate`` finds ``write_wav_mono`` in ``hmic.datagen``. Modules the
callers reach through the module object (``nn``, ``dsp``, ``scoring``,
``evaluation``) are wrapped in place.

Per-layer metrics are named ``<module>.<name>``.
"""

from __future__ import annotations

import inspect
import os
from math import prod

from hmic import datagen, dsp, evaluation, nn, pipeline, scoring, training
from hmic.model import ModelConfig

from spans import Hook, Totals


def conv_forward_flops(out_shape, w_shape) -> int:
    """Two flops per multiply-add; each output element sums C*kh*kw products."""
    _, in_channels, kh, kw = w_shape
    return 2 * prod(out_shape) * in_channels * kh * kw


def conv_backward_flops(dout_shape, dx_shape, dw_shape) -> int:
    """Multiply-adds of the weight gradient, plus the input gradient when one
    is returned (``dx_shape`` None means it was not computed)."""
    batch, out_channels, height, width = dout_shape
    _, _, kh, kw = dw_shape
    flops = 2 * prod(dw_shape) * batch * height * width
    if dx_shape is not None:
        flops += 2 * prod(dx_shape) * out_channels * kh * kw
    return flops


def block_names(config: ModelConfig = ModelConfig()) -> dict[tuple[int, int], str]:
    """(out_channels, in_channels) of each conv weight -> block name."""
    names = {}
    in_ch = 1
    for i, out_ch in enumerate(config.channels, start=1):
        names[(out_ch, in_ch)] = f"conv{i}"
        in_ch = out_ch
    names[(config.head_channels, in_ch)] = "head"
    return names


BLOCKS = block_names()


def _block(w_shape) -> str:
    return BLOCKS.get(tuple(w_shape[:2]), "o{}c{}".format(*w_shape[:2]))


def _conv_forward(args, kwargs, result):
    w = args[1]
    return _block(w.shape), {"gflop": conv_forward_flops(result[0].shape, w.shape) / 1e9}


def _conv_backward(args, kwargs, result):
    dout, (_, w) = args
    dx, dw, _ = result
    dx_shape = None if dx is None else dx.shape
    return _block(w.shape), {"gflop": conv_backward_flops(dout.shape, dx_shape, dw.shape) / 1e9}


def _file_bytes(args, kwargs, result):
    return None, {"bytes": os.path.getsize(args[0])}


def _batch_clips(args, kwargs, result):
    return None, {"clips": args[1].shape[0]}


def _public_functions(module) -> list[str]:
    return sorted(
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    )


def hooks() -> list[Hook]:
    details = {
        "conv2d": _conv_forward,
        "conv2d_backward": _conv_backward,
        "save_features": _file_bytes,
    }
    out = [
        Hook(datagen, "synthesize_clip", "datagen.synthesize_clip"),
        Hook(datagen, "write_wav_mono", "datagen.write_wav_mono"),
    ]
    for module, prefix in ((dsp, "dsp"), (nn, "nn")):
        out += [
            Hook(module, name, f"{prefix}.{name}", details.get(name))
            for name in _public_functions(module)
        ]
    out += [
        Hook(training, "loss_and_grads", "model.loss_and_grads", _batch_clips),
        Hook(pipeline, "forward_features", "model.forward_features"),
        Hook(pipeline, "train", "training.train"),
        Hook(training.AdamState, "step", "training.adam_step"),
        Hook(scoring, "fit_agc", "scoring.fit"),
        Hook(scoring, "fit_dc", "scoring.fit"),
        Hook(scoring, "score_agc", "scoring.score"),
        Hook(scoring, "score_dc", "scoring.score"),
        Hook(scoring, "mahalanobis", "scoring.mahalanobis"),
        Hook(scoring, "centre_model_from_tensors", "scoring.centre_model_from_tensors"),
        Hook(pipeline, "build_report", "evaluation.build_report"),
        Hook(evaluation, "auc_from_scores", "evaluation.auc_from_scores"),
        Hook(evaluation, "pauc_from_scores", "evaluation.pauc_from_scores"),
        Hook(pipeline, "save_checkpoint", "checkpoint.save", _file_bytes),
        Hook(pipeline, "load_checkpoint", "checkpoint.load", _file_bytes),
        Hook(pipeline, "read_manifest", "metadata.read_manifest"),
    ]
    out += [
        Hook(pipeline, name, f"pipeline.{name}")
        for name in ("run_train", "run_score", "run_eval", "extract_features")
    ]
    return out


_CONV_BLOCKS = ("conv1", "conv2", "conv3", "head")

# (span name, field) pairs reported as "<span>.<field>". A field is "calls",
# "self_s" or a counter the span's hook records.
SPAN_FIELDS: list[tuple[str, str]] = (
    [("datagen.synthesize_clip", f) for f in ("calls", "self_s")]
    + [("datagen.write_wav_mono", "self_s")]
    + [("dsp.read_wav_mono", f) for f in ("calls", "self_s")]
    + [(f"dsp.{name}", "self_s") for name in ("stft_power", "log_mel", "standardize")]
    + [("dsp.save_features", f) for f in ("calls", "self_s", "bytes")]
    + [("dsp.load_features", "calls")]
    + [
        (f"nn.{op}.{block}", f)
        for op in ("conv2d", "conv2d_backward")
        for block in _CONV_BLOCKS
        for f in ("calls", "self_s", "gflop")
    ]
    + [
        (f"nn.{name}{suffix}", "self_s")
        for suffix in ("", "_backward")
        for name in ("channel_scale", "relu", "avg_pool2", "global_avg_pool", "linear")
    ]
    + [("nn.softmax_cross_entropy", "self_s")]
    + [(f"model.{name}", f) for name in ("loss_and_grads", "forward_features")
       for f in ("calls", "self_s")]
    + [(f"training.{name}", f) for name in ("train", "adam_step") for f in ("calls", "self_s")]
    + [(f"scoring.{name}", f) for name in ("fit", "score") for f in ("calls", "self_s")]
    + [("scoring.mahalanobis", "calls"), ("scoring.centre_model_from_tensors", "self_s")]
    + [("evaluation.build_report", f) for f in ("calls", "self_s")]
    + [(f"evaluation.{name}", "calls") for name in ("auc_from_scores", "pauc_from_scores")]
    + [(f"checkpoint.{name}", f) for name in ("save", "load") for f in ("self_s", "bytes")]
    + [("metadata.read_manifest", "self_s")]
    + [(f"pipeline.{name}", "self_s")
       for name in ("run_train", "run_score", "run_eval", "extract_features")]
)

# Spans only set-up calls: generating the corpus.
SETUP_SPANS = frozenset({"datagen.synthesize_clip", "datagen.write_wav_mono"})

# Spans of run_train that run_score never calls. On a workload whose set-up
# trains the checkpoint, the timed part must call none of them; they are
# reported from set-up's training there.
TRAINING_SPANS = frozenset(
    [f"nn.conv2d_backward.{block}" for block in _CONV_BLOCKS]
    + [f"nn.{name}_backward"
       for name in ("channel_scale", "relu", "avg_pool2", "global_avg_pool", "linear")]
    + ["nn.linear", "nn.softmax_cross_entropy", "model.loss_and_grads", "training.train",
       "training.adam_step", "scoring.fit", "checkpoint.save", "pipeline.run_train"]
)

_UNITS = {"calls": "count", "self_s": "s", "gflop": "GFLOP", "bytes": "B"}

# name -> (unit, better) for metrics derived from more than one span or from
# the process rather than from one span's field.
DERIVED = {
    "dsp.cache_hit_ratio": ("ratio", "higher"),
    "training.clip_epochs_per_s": ("1/s", "higher"),
    "proc.cpu_user_s": ("s", "lower"),
    "proc.cpu_sys_s": ("s", "lower"),
    "proc.minor_faults": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = [
        {"name": f"{span}.{field}", "unit": _UNITS[field], "better": "lower"}
        for span, field in SPAN_FIELDS
    ]
    out += [{"name": name, "unit": unit, "better": better}
            for name, (unit, better) in DERIVED.items()]
    return out


def exercised_spans() -> set[str]:
    """Spans a workload is expected to call unless it declares otherwise."""
    return {span for span, _ in SPAN_FIELDS}


def span_metrics(totals: dict[str, Totals]) -> dict[str, float]:
    """Per-layer metrics that come from span totals."""
    out = {}
    for span, field in SPAN_FIELDS:
        entry = totals.get(span, Totals())
        if field == "calls":
            out[f"{span}.{field}"] = entry.calls
        elif field == "self_s":
            out[f"{span}.{field}"] = entry.self_s
        else:
            out[f"{span}.{field}"] = entry.counters.get(field, 0)
    hits = totals.get("dsp.load_features", Totals()).calls
    misses = totals.get("dsp.save_features", Totals()).calls
    out["dsp.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    train = totals.get("training.train", Totals())
    clips = totals.get("model.loss_and_grads", Totals()).counters.get("clips", 0)
    out["training.clip_epochs_per_s"] = clips / train.total_s if train.total_s else 0.0
    return out
