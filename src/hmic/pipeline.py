"""Stage orchestration: generate -> features -> train -> score -> eval.

Stages are re-runnable: the checkpoint embeds the semantic config digest and
scoring refuses to run against a checkpoint built from a different config.
Features are cached (and always routed through the f32 cache precision, so
cached and fresh runs produce bit-identical results). The front end is fixed,
so a cache entry is keyed by the WAV's sha256 alone: every run shares
extraction whatever its model or training settings, and corpora that reuse
clip IDs never share entries. The model sees each log-Mel standardized.

Scoring caches each test clip's embedding (``feat_high``) next to its log-Mel,
keyed by the WAV's sha256 and by what the forward adds to the log-Mel: the
machine's parameter tensors (names, shapes, bytes), whose digest heads the
checkpoint-format file of their rows. So the agc and dc scoring of one
checkpoint run the forward once per clip, and a hit returns exactly what the
miss computed: the float32 embedding, stored as float64. Neither key covers
the code: an edit to the front end or to the model needs an empty cache.

Scoring runs the network in ``model.NET_DTYPE`` (float32), so a checkpoint
whose weights are not float32 values scores with them rounded. It makes one
streaming pass per machine: first the WAV headers of all the machine's test
clips, cached or not, must agree on one log-Mel shape, before any sample is
decoded; then the clips are read, transformed and embedded in manifest order
one model chunk (``model._chunk_clips``) at a time, the standardized float32
input of the clips without an embedding row gathered into one chunk. So
scoring holds about two chunks of log-Mels, however many clips it scores. Test
clips of a machine the checkpoint lacks are never read. Training still holds
every train clip's log-Mel: streaming them into its input stack cost more in
page faults than it saved in memory.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint, dsp, scoring
from .checkpoint import load_checkpoint, save_checkpoint, to_dict, to_json, write_json
from .config import RunConfig
from .datagen import SynthSpec, generate
from .errors import HmicError
from .evaluation import EvalReport, ScoredClip, build_report, write_report_csv
from .metadata import (ManifestEntry, assign_labels, build_label_space, read_csv_rows,
                       read_manifest, write_csv_rows)
from .model import (NET_DTYPE, ModelConfig, ModelParams, _chunk_clips, forward_features,
                    init_params)
from .training import train, write_training_log

SCORE_COLUMNS = ("clip_id", "section", "score", "argmin_group")


def _cache_dir(workdir: Path) -> Path:
    """The feature cache directory; its first write makes it."""
    root = os.environ.get("HMIC_CACHE_DIR")
    return Path(root) if root else workdir / "feature_cache"


@contextmanager
def _mapper(jobs: int):
    """A ``map`` that runs its calls on ``jobs`` threads: one pool for the
    whole block, or the builtin for one job."""
    if jobs == 1:
        yield map
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def extract_features(entries: list[ManifestEntry], corpus_root: Path, cache_dir: Path,
                     map_) -> list[tuple[str, np.ndarray]]:
    """(WAV sha256, log-Mel) of each clip, in ``entries`` order; the log-Mel is
    float32 (cache precision), loaded from ``cache_dir`` or computed and saved
    there. ``map_``, from ``_mapper``, runs the clips; all of them are done
    when this returns."""

    def one(entry: ManifestEntry) -> tuple[str, np.ndarray]:
        path = corpus_root / entry.path
        data = dsp.read_clip(path)
        digest = hashlib.sha256(data).hexdigest()
        cached = cache_dir / (digest + ".feat")
        if cached.exists():
            try:
                return digest, dsp.load_features(cached)
            except dsp.DspError:
                pass  # a corrupt entry is a miss: re-extract and rewrite it
        values = dsp.log_mel(dsp.read_wav_mono(data, path)).astype(np.float32)
        dsp.save_features(cached, values)
        return digest, values

    return list(map_(one, entries))


def _feature_shape(shapes) -> tuple[int, int]:
    """The (H, W) that every one of a machine's clips has; ``shapes`` yields
    (clip_id, shape) pairs. The first clip of another shape is named."""
    (first_id, first), *rest = shapes
    for clip_id, shape in rest:
        if shape != first:
            raise HmicError(f"clips disagree on feature shape: {clip_id!r} is {shape}, "
                            f"{first_id!r} is {first}")
    return first


def _stack_inputs(entries, features, shape) -> np.ndarray:
    """(N, 1, H, W) ``NET_DTYPE`` standardized model inputs of clips whose
    log-Mels have the checked (H, W) ``shape``. Each clip is standardized in
    float64, and that copy dies once stacked."""
    stack = np.empty((len(entries), 1, *shape), dtype=NET_DTYPE)
    for i, e in enumerate(entries):
        stack[i, 0] = dsp.standardize(features[e.meta.clip_id])
    return stack


def _forward_key(params: ModelParams) -> str:
    """Digest of what a clip's embedding depends on beyond its log-Mel."""
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        value = np.ascontiguousarray(params.tensors[name], dtype="<f8")
        h.update(repr((name, value.shape)).encode())
        h.update(value.tobytes())
    return h.hexdigest()


def _embeddings(params, entries, corpus_root, cache_dir, map_) -> np.ndarray:
    """(N, d_h) ``feat_high`` rows of a machine's clips. One checkpoint-format
    file per forward key (its header digest) holds a row per WAV sha256 (the
    tensor names). The clips' WAV headers must agree on the log-Mel shape;
    then the clips are extracted one model chunk at a time, and only those
    without a row run the forward, one chunk of their standardized float32
    inputs at a time; then the file is rewritten with the old rows and the
    new. One file, not one per clip, because creating a file takes about
    0.5 ms on a 2-core VM, a quarter of a 128x63 clip's forward. A missing,
    truncated or garbage file, or one whose digest is another key's, counts
    as empty. When two processes add rows at once, the last rename wins and
    the other's rows are misses next time."""
    shape = _feature_shape((e.meta.clip_id, dsp.log_mel_shape(corpus_root / e.path))
                           for e in entries)
    key = _forward_key(params)
    path = cache_dir / f"{key}.emb"
    try:  # via the module: bench/layers.py times pipeline's names as checkpoint I/O
        rows, _, digest = checkpoint.load_checkpoint(path)
        rows = rows if digest == key else {}
    except checkpoint.CheckpointError:
        rows = {}
    step = _chunk_clips(*shape)
    pending = np.empty((min(step, len(entries)), 1, *shape), dtype=NET_DTYPE)
    digests, missed, computed = [], [], []
    for first in range(0, len(entries), step):
        group = entries[first:first + step]
        for digest, values in extract_features(group, corpus_root, cache_dir, map_):
            digests.append(digest)
            if digest not in rows:
                pending[len(missed) % step, 0] = dsp.standardize(values)
                missed.append(digest)
                if len(missed) % step == 0:
                    computed.append(forward_features(params, pending))
    if len(missed) % step:
        computed.append(forward_features(params, pending[:len(missed) % step]))
    if missed:
        rows.update(zip(missed, np.concatenate(computed)))
        checkpoint.save_checkpoint(path, rows, {}, key)
    return np.array([rows[digest] for digest in digests], dtype=np.float64)


def run_train(config: RunConfig, corpus_dir: str | Path, checkpoint_path: str | Path,
              workdir: str | Path | None = None) -> Path:
    """Train per machine type and write one checkpoint holding model parameters
    plus fitted attribute-group and domain centres."""
    corpus_dir = Path(corpus_dir)
    checkpoint_path = Path(checkpoint_path)
    workdir = Path(workdir) if workdir else checkpoint_path.parent
    entries = read_manifest(corpus_dir / "manifest.csv")
    train_entries = [e for e in entries if e.meta.split == "train"]
    if not train_entries:
        raise HmicError("manifest contains no training clips")

    machines = sorted({e.meta.machine_type for e in train_entries})
    for machine in machines:
        if "/" in machine:
            raise HmicError(f"machine type {machine!r} must not contain '/'")
    for e in train_entries:  # fit_dc needs each clip's domain centre
        if e.meta.domain not in scoring.DOMAIN_INDEX:
            raise HmicError(f"training clip {e.meta.clip_id!r} has domain "
                            f"{e.meta.domain!r}; it must be source or target")

    with _mapper(config.jobs) as map_:
        extracted = extract_features(train_entries, corpus_dir, _cache_dir(workdir), map_)
    features = {e.meta.clip_id: values for e, (_, values) in zip(train_entries, extracted)}
    tensors: dict[str, np.ndarray] = {}
    label_spaces: dict[str, dict] = {}
    for machine in machines:
        own = [e for e in train_entries if e.meta.machine_type == machine]
        space = build_label_space([e.meta for e in own], machine)
        shape = _feature_shape((e.meta.clip_id, features[e.meta.clip_id].shape) for e in own)
        inputs = _stack_inputs(own, features, shape)
        pairs = [assign_labels(e.meta, space) for e in own]
        labels_id = np.array([p[0] for p in pairs])
        labels_ag = np.array([p[1] for p in pairs])
        params, log = train(
            inputs,
            labels_id,
            labels_ag,
            n_sections=space.n_sections,
            n_groups=space.n_groups,
            model_config=config.model,
            train_config=config.train,
        )
        write_training_log(workdir / f"train_log_{machine}.csv", log)

        embeddings = forward_features(params, inputs)
        sections = np.array([e.meta.section_id for e in own])
        agc = scoring.fit_agc(embeddings, labels_ag, sections)
        dc = scoring.fit_dc(embeddings, np.array([e.meta.domain for e in own]), sections)
        for name, value in params.tensors.items():
            tensors[f"{machine}/param/{name}"] = value
        tensors.update(scoring.centre_model_to_tensors(agc, f"{machine}/agc"))
        tensors.update(scoring.centre_model_to_tensors(dc, f"{machine}/dc"))
        label_spaces[machine] = to_dict(space)

    embedded = {"run": to_dict(config), "label_spaces": label_spaces}
    save_checkpoint(checkpoint_path, tensors, embedded, config.semantic_digest())
    return checkpoint_path


def _params_from_checkpoint(tensors, machine: str, model_config: ModelConfig) -> ModelParams:
    """The machine's parameter tensors in ``NET_DTYPE``, checked name by name
    and shape by shape against what ``init_params`` lays out for the
    classifier sizes they hold, and checked to be finite in ``NET_DTYPE``."""
    prefix = f"{machine}/param/"
    own = {name[len(prefix):]: value for name, value in tensors.items()
           if name.startswith(prefix)}
    found = {name: value.shape for name, value in own.items()}
    try:
        (n_sections,), (n_groups,) = found["cls_id.b"], found["cls_ag.b"]
        layout = init_params(model_config, n_sections, n_groups, np.random.default_rng(0))
    except (KeyError, ValueError):  # init_params raises HmicError, a ValueError
        raise HmicError(f"{prefix} has no usable cls_id.b / cls_ag.b tensors") from None
    expected = {name: value.shape for name, value in layout.tensors.items()}
    if found != expected:
        raise HmicError(f"{prefix} tensors do not match the model config: checkpoint has "
                        f"{sorted(found.items() - expected.items())}, config lays out "
                        f"{sorted(expected.items() - found.items())}")
    with np.errstate(over="ignore"):  # a weight past the NET_DTYPE range becomes inf
        params = ModelParams(tensors=own, config=model_config).astype(NET_DTYPE)
    for name in sorted(params.tensors):
        if not np.all(np.isfinite(params.tensors[name])):
            raise HmicError(f"{prefix}{name} holds values that are not finite in "
                            f"{np.dtype(NET_DTYPE)}")
    return params


@dataclass(frozen=True)
class ScoreOutcome:
    rows: int
    errors: tuple[str, ...]


def run_score(
    config: RunConfig,
    checkpoint_path: str | Path,
    manifest_path: str | Path,
    out_csv: str | Path,
    workdir: str | Path | None = None,
) -> ScoreOutcome:
    """Score every test clip in the manifest; returns per-clip errors, if any.

    Rows that cannot be scored (unknown machine or section) are written with
    empty score fields so the CSV stays aligned with the manifest.
    """
    manifest_path = Path(manifest_path)
    out_csv = Path(out_csv)
    workdir = Path(workdir) if workdir else out_csv.parent
    tensors, _, digest = load_checkpoint(checkpoint_path)
    if digest != config.semantic_digest():
        raise HmicError(
            f"checkpoint digest {digest[:12]} does not match the current config "
            f"{config.semantic_digest()[:12]}; retrain or fix the config"
        )
    # The embedded config JSON is provenance only: no digest covers it. Each
    # machine is rebuilt from its tensors and the config the digest checked.
    models: dict[str, scoring.CentreModel] = {}
    params: dict[str, ModelParams] = {}
    for machine in sorted({name.split("/", 1)[0] for name in tensors}):
        params[machine] = _params_from_checkpoint(tensors, machine, config.model)
        models[machine] = scoring.centre_model_from_tensors(
            tensors, f"{machine}/{config.scoring_mode}", config.scoring_mode)
        widths = {group.centre.shape[0] for groups in models[machine].groups_by_section.values()
                  for group in groups}
        if widths != {config.model.feat_high_dim}:
            raise HmicError(f"{machine}/{config.scoring_mode} centres have width "
                            f"{sorted(widths)}; the model embeds {config.model.feat_high_dim}")

    entries = read_manifest(manifest_path)
    test_entries = [e for e in entries if e.meta.split == "test"]
    if not test_entries:
        raise HmicError("manifest contains no test clips")
    corpus_root = manifest_path.parent
    cache_dir = _cache_dir(workdir)

    scored: dict[str, tuple[str, int]] = {}  # clip_id -> CSV score, argmin group
    errors: list[str] = []
    by_machine: dict[str, list[ManifestEntry]] = {}
    for entry in test_entries:
        by_machine.setdefault(entry.meta.machine_type, []).append(entry)
    score_fn = scoring.score_agc if config.scoring_mode == "agc" else scoring.score_dc
    with _mapper(config.jobs) as map_:
        for machine, own in by_machine.items():
            if machine not in models:  # its clips are never read
                errors.extend(f"{e.meta.clip_id}: unknown machine type {machine!r}" for e in own)
                continue
            feat_high = _embeddings(params[machine], own, corpus_root, cache_dir, map_)
            scores, argmins, failed = score_fn(feat_high, models[machine],
                                               np.array([e.meta.section_id for e in own]))
            for i, entry in enumerate(own):
                if i in failed:
                    errors.append(f"{entry.meta.clip_id}: {failed[i]}")
                else:
                    scored[entry.meta.clip_id] = f"{scores[i]:.12g}", int(argmins[i])

    write_csv_rows(out_csv, SCORE_COLUMNS, (
        [e.meta.clip_id, e.meta.section_id, *scored.get(e.meta.clip_id, ("", ""))]
        for e in test_entries))
    return ScoreOutcome(rows=len(test_entries), errors=tuple(errors))


def read_scores_csv(path: str | Path) -> dict[str, float]:
    """clip_id -> score; raises on an unreadable file, error rows (blank
    scores), unparsable or non-finite scores and a clip_id that appears twice."""
    path = Path(path)
    scores: dict[str, float] = {}
    for row_num, row in read_csv_rows(path, SCORE_COLUMNS, "scores", HmicError):
        clip_id, _section, score, _argmin = row
        if score == "":
            raise HmicError(f"{path}: clip {clip_id!r} has an error row; "
                            f"re-run scoring successfully before eval")
        if clip_id in scores:
            raise HmicError(f"{path}:{row_num}: clip {clip_id!r} scored twice")
        try:
            value = float(score)
        except ValueError:
            raise HmicError(f"{path}:{row_num}: score {score!r} is not a number") from None
        if not math.isfinite(value):
            raise HmicError(f"{path}:{row_num}: score {score!r} is not finite")
        scores[clip_id] = value
    return scores


def run_eval(
    scores_csv: str | Path,
    manifest_path: str | Path,
    out_json: str | Path | None = None,
    out_csv: str | Path | None = None,
    *,
    pauc_p: float,
    config_digest: str | None = None,
) -> EvalReport:
    """Join scores with manifest truth and build the AUC/pAUC report."""
    scores = read_scores_csv(scores_csv)
    by_id = {e.meta.clip_id: e.meta for e in read_manifest(manifest_path)}
    unscored = [cid for cid, meta in by_id.items() if meta.split == "test" and cid not in scores]
    if unscored:
        raise HmicError(f"{len(unscored)} manifest test clips have no score, "
                        f"first {unscored[0]!r}; score the whole manifest before eval")
    clips = []
    for clip_id, score in scores.items():
        meta = by_id.get(clip_id)
        if meta is None:
            raise HmicError(f"scored clip {clip_id!r} not present in manifest")
        if meta.split != "test":
            raise HmicError(f"scored clip {clip_id!r} is a {meta.split} clip in the "
                            f"manifest; only test clips are evaluated")
        if meta.condition not in ("normal", "anomalous"):
            raise HmicError(f"clip {clip_id!r} has unknown condition; cannot evaluate")
        clips.append(
            ScoredClip(
                clip_id=clip_id,
                machine_type=meta.machine_type,
                section=meta.section_id,
                domain=meta.domain,
                truth=meta.condition,
                score=score,
            )
        )
    report = build_report(clips, pauc_p=pauc_p, config_digest=config_digest)
    if out_json is not None:
        write_json(out_json, report)
    if out_csv is not None:
        write_report_csv(report, out_csv)
    return report


def run_pipeline(
    config: RunConfig,
    workdir: str | Path,
    spec: SynthSpec,
) -> tuple[EvalReport, dict[str, Path]]:
    """generate (if needed) -> train -> score -> eval under one working directory.

    A corpus already in the workdir is reused only when its ``synth_spec.json``
    is the one ``spec`` writes; another corpus there is an HmicError before
    anything is trained."""
    workdir = Path(workdir)
    corpus_dir = workdir / "corpus"
    manifest, spec_file = corpus_dir / "manifest.csv", corpus_dir / "synth_spec.json"
    if not manifest.exists():
        generate(spec, corpus_dir)
    elif not spec_file.is_file() or spec_file.read_bytes() != to_json(spec).encode():
        raise HmicError(f"{corpus_dir} holds a corpus of another synth spec; "
                        f"use a new --workdir or delete that corpus")
    checkpoint_path = workdir / "model.hmic"
    run_train(config, corpus_dir, checkpoint_path, workdir)
    scores_csv = workdir / f"scores_{config.scoring_mode}.csv"
    outcome = run_score(config, checkpoint_path, manifest, scores_csv, workdir)
    if outcome.errors:
        raise HmicError(f"{len(outcome.errors)} clips failed to score: "
                            + "; ".join(outcome.errors[:5]))
    report_json = workdir / f"report_{config.scoring_mode}.json"
    report_csv = workdir / f"report_{config.scoring_mode}.csv"
    report = run_eval(scores_csv, manifest, report_json, report_csv, pauc_p=config.pauc_p,
                      config_digest=config.semantic_digest())
    return report, {
        "corpus": corpus_dir,
        "checkpoint": checkpoint_path,
        "scores": scores_csv,
        "report_json": report_json,
        "report_csv": report_csv,
    }
