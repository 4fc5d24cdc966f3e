"""Stage orchestration: generate -> features -> train -> score -> eval.

Stages are re-runnable: the checkpoint embeds the semantic config digest and
scoring refuses to run against a checkpoint built from a different config.
Features are cached (and always routed through the f32 cache precision, so
cached and fresh runs produce bit-identical results).
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp, scoring
from .checkpoint import from_dict, load_checkpoint, save_checkpoint, to_dict
from .config import RunConfig
from .evaluation import EvalReport, ScoredClip, build_report, write_report_csv
from .metadata import ManifestEntry, assign_labels, build_label_space, read_manifest
from .model import FeaturePair, ModelConfig, ModelParams, forward_features
from .training import train, write_training_log

SCORE_COLUMNS = ("clip_id", "section", "score", "argmin_group")


class PipelineError(RuntimeError):
    pass


class ConfigMismatchError(PipelineError):
    """Checkpoint was produced under a different semantic configuration."""


def _cache_dir(workdir: Path, config: RunConfig) -> Path:
    root = os.environ.get("HMIC_CACHE_DIR")
    base = Path(root) if root else workdir / "feature_cache"
    digest = config.semantic_digest()[:12]
    return base / digest


def _cache_path(cache_dir: Path, clip_id: str) -> Path:
    return cache_dir / (clip_id.replace("/", "__") + ".feat")


def extract_features(
    entries: list[ManifestEntry],
    corpus_root: Path,
    config: RunConfig,
    workdir: Path,
) -> dict[str, np.ndarray]:
    """Log-Mel matrices (float32, cache precision) keyed by clip_id."""
    cache_dir = _cache_dir(workdir, config)
    cache_dir.mkdir(parents=True, exist_ok=True)

    def one(entry: ManifestEntry) -> tuple[str, np.ndarray]:
        cached = _cache_path(cache_dir, entry.meta.clip_id)
        if cached.exists():
            return entry.meta.clip_id, dsp.load_features(cached)
        wave = dsp.read_wav_mono(corpus_root / entry.path)
        values = dsp.log_mel(wave, config.dsp).values.astype(np.float32)
        dsp.save_features(cached, values)
        return entry.meta.clip_id, values

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            pairs = list(pool.map(one, entries))
    else:
        pairs = [one(entry) for entry in entries]
    return dict(pairs)


def _model_input(features: np.ndarray, config: RunConfig) -> np.ndarray:
    values = features.astype(np.float64)
    if config.dsp.standardize:
        values = dsp.standardize(values)
    return values


def _stack_inputs(entries, features, config) -> np.ndarray:
    matrices = [_model_input(features[e.meta.clip_id], config) for e in entries]
    shapes = {m.shape for m in matrices}
    if len(shapes) != 1:
        raise PipelineError(f"clips disagree on feature shape: {sorted(shapes)}")
    return np.stack(matrices)[:, None]


def _batched_features(params: ModelParams, inputs: np.ndarray, batch: int = 32) -> FeaturePair:
    lows, highs = [], []
    for start in range(0, inputs.shape[0], batch):
        pair = forward_features(params, inputs[start : start + batch])
        lows.append(pair.feat_low)
        highs.append(pair.feat_high)
    return FeaturePair(feat_low=np.concatenate(lows), feat_high=np.concatenate(highs))


def run_train(config: RunConfig, corpus_dir: str | Path, checkpoint_path: str | Path,
              workdir: str | Path | None = None) -> Path:
    """Train per machine type and write one checkpoint holding model parameters
    plus fitted attribute-group and domain centres."""
    corpus_dir = Path(corpus_dir)
    checkpoint_path = Path(checkpoint_path)
    workdir = Path(workdir) if workdir else checkpoint_path.parent
    workdir.mkdir(parents=True, exist_ok=True)
    manifest_path = corpus_dir / "manifest.csv"
    if not manifest_path.exists():
        raise PipelineError(f"missing manifest {manifest_path}")
    entries = read_manifest(manifest_path)
    train_entries = [e for e in entries if e.meta.split == "train"]
    if not train_entries:
        raise PipelineError("manifest contains no training clips")

    machines = sorted({e.meta.machine_type for e in train_entries})
    for machine in machines:
        if "/" in machine:
            raise PipelineError(f"machine type {machine!r} must not contain '/'")

    features = extract_features(train_entries, corpus_dir, config, workdir)
    tensors: dict[str, np.ndarray] = {}
    label_spaces: dict[str, dict] = {}
    for machine in machines:
        own = [e for e in train_entries if e.meta.machine_type == machine]
        space = build_label_space([e.meta for e in own], machine)
        inputs = _stack_inputs(own, features, config)
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
            ablation=config.ablation,
            id_loss_weight=config.model.weight_for(machine),
        )
        write_training_log(workdir / f"train_log_{machine}.csv", log)

        embeddings = _batched_features(params, inputs, config.train.batch_size)
        sections = np.array([e.meta.section_id for e in own])
        agc = scoring.fit_agc(
            embeddings.feat_high, labels_ag, sections,
            covariance_mode=config.covariance_mode, shrinkage=config.shrinkage,
            shrinkage_rel=config.shrinkage_rel,
        )
        dc = scoring.fit_dc(
            embeddings.feat_high,
            np.array([e.meta.domain for e in own]),
            sections,
            covariance_mode=config.covariance_mode,
            shrinkage=config.shrinkage,
            shrinkage_rel=config.shrinkage_rel,
        )
        for name, value in params.tensors.items():
            tensors[f"{machine}/param/{name}"] = value
        tensors.update(scoring.centre_model_to_tensors(agc, f"{machine}/agc"))
        tensors.update(scoring.centre_model_to_tensors(dc, f"{machine}/dc"))
        label_spaces[machine] = space.to_dict()

    embedded = {
        "run": to_dict(config),
        "semantic": config.semantic_dict(),
        "label_spaces": label_spaces,
        "machines": machines,
    }
    save_checkpoint(checkpoint_path, tensors, embedded, config.semantic_digest())
    return checkpoint_path


def _params_from_checkpoint(tensors, machine: str, config_block: dict) -> ModelParams:
    prefix = f"{machine}/param/"
    own = {name[len(prefix):]: value for name, value in tensors.items()
           if name.startswith(prefix)}
    if not own:
        raise PipelineError(f"checkpoint has no parameters for machine {machine!r}")
    space = config_block["label_spaces"][machine]
    return ModelParams(
        tensors=own,
        config=from_dict(ModelConfig, config_block["run"]["model"]),
        n_sections=len(space["sections"]),
        n_groups=len(space["groups"]),
    )


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
    tensors, config_block, digest = load_checkpoint(checkpoint_path)
    if digest != config.semantic_digest():
        raise ConfigMismatchError(
            f"checkpoint digest {digest[:12]} does not match the current config "
            f"{config.semantic_digest()[:12]}; retrain or fix the config"
        )
    entries = read_manifest(manifest_path)
    test_entries = [e for e in entries if e.meta.split == "test"]
    if not test_entries:
        raise PipelineError("manifest contains no test clips")
    corpus_root = manifest_path.parent
    features = extract_features(test_entries, corpus_root, config, workdir)

    models: dict[str, scoring.CentreModel] = {}
    params: dict[str, ModelParams] = {}
    for machine in config_block["machines"]:
        params[machine] = _params_from_checkpoint(tensors, machine, config_block)
        models[machine] = scoring.centre_model_from_tensors(
            tensors, f"{machine}/{config.scoring_mode}", config.scoring_mode,
            config.covariance_mode,
        )

    records: dict[str, scoring.ScoreRecord] = {}
    errors: list[str] = []
    by_machine: dict[str, list[ManifestEntry]] = {}
    for entry in test_entries:
        by_machine.setdefault(entry.meta.machine_type, []).append(entry)
    for machine, own in by_machine.items():
        if machine not in models:
            errors.extend(f"{e.meta.clip_id}: unknown machine type {machine!r}" for e in own)
            continue
        inputs = _stack_inputs(own, features, config)
        embeddings = _batched_features(params[machine], inputs, config.train.batch_size)
        score_fn = scoring.score_agc if config.scoring_mode == "agc" else scoring.score_dc
        for i, entry in enumerate(own):
            try:
                record = score_fn(
                    embeddings.feat_high[i],
                    models[machine],
                    entry.meta.section_id,
                    entry.meta.clip_id,
                )
            except scoring.ScoringError as exc:
                errors.append(f"{entry.meta.clip_id}: {exc}")
                continue
            records[entry.meta.clip_id] = record

    out_csv.parent.mkdir(parents=True, exist_ok=True)
    with out_csv.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCORE_COLUMNS)
        for entry in test_entries:
            record = records.get(entry.meta.clip_id)
            if record is None:
                writer.writerow([entry.meta.clip_id, entry.meta.section_id, "", ""])
            else:
                writer.writerow(
                    [record.clip_id, entry.meta.section_id, f"{record.score:.12g}",
                     record.argmin_group]
                )
    return ScoreOutcome(rows=len(test_entries), errors=tuple(errors))


def read_scores_csv(path: str | Path) -> dict[str, float]:
    """clip_id -> score; raises on error rows (blank scores)."""
    path = Path(path)
    scores: dict[str, float] = {}
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != SCORE_COLUMNS:
            raise PipelineError(f"{path}: expected header {','.join(SCORE_COLUMNS)}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(SCORE_COLUMNS):
                raise PipelineError(f"{path}:{row_num}: expected {len(SCORE_COLUMNS)} fields")
            clip_id, _section, score, _argmin = row
            if score == "":
                raise PipelineError(f"{path}: clip {clip_id!r} has an error row; "
                                    f"re-run scoring successfully before eval")
            scores[clip_id] = float(score)
    return scores


def run_eval(
    scores_csv: str | Path,
    manifest_path: str | Path,
    out_json: str | Path | None = None,
    out_csv: str | Path | None = None,
    pauc_p: float = 0.1,
    config_digest: str | None = None,
) -> EvalReport:
    """Join scores with manifest truth and build the AUC/pAUC report."""
    scores = read_scores_csv(scores_csv)
    by_id = {e.meta.clip_id: e.meta for e in read_manifest(manifest_path)}
    clips = []
    for clip_id, score in scores.items():
        meta = by_id.get(clip_id)
        if meta is None:
            raise PipelineError(f"scored clip {clip_id!r} not present in manifest")
        if meta.condition not in ("normal", "anomalous"):
            raise PipelineError(f"clip {clip_id!r} has unknown condition; cannot evaluate")
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
        Path(out_json).write_text(report.to_json() + "\n", encoding="utf-8")
    if out_csv is not None:
        write_report_csv(report, out_csv)
    return report


def run_pipeline(
    config: RunConfig,
    workdir: str | Path,
    spec=None,
) -> tuple[EvalReport, dict[str, Path]]:
    """generate (if needed) -> train -> score -> eval under one working directory."""
    from .datagen import default_spec, generate

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    corpus_dir = workdir / "corpus"
    manifest = corpus_dir / "manifest.csv"
    if not manifest.exists():
        generate(spec if spec is not None else default_spec(), corpus_dir)
    checkpoint_path = workdir / "model.hmic"
    run_train(config, corpus_dir, checkpoint_path, workdir)
    scores_csv = workdir / f"scores_{config.scoring_mode}.csv"
    outcome = run_score(config, checkpoint_path, manifest, scores_csv, workdir)
    if outcome.errors:
        raise PipelineError(f"{len(outcome.errors)} clips failed to score: "
                            + "; ".join(outcome.errors[:5]))
    report_json = workdir / f"report_{config.scoring_mode}.json"
    report_csv = workdir / f"report_{config.scoring_mode}.csv"
    report = run_eval(
        scores_csv, manifest, report_json, report_csv, config.pauc_p,
        config_digest=config.semantic_digest(),
    )
    return report, {
        "corpus": corpus_dir,
        "checkpoint": checkpoint_path,
        "scores": scores_csv,
        "report_json": report_json,
        "report_csv": report_csv,
    }
