"""The benchmark's workloads: the corpus each builds, its set-up and its timed part.

Every workload drives the public pipeline API in one process, the way
``scripts/run_experiment.py`` and ``scripts/ablation_sweep.py`` do. The
workload seed seeds the corpus spec and the training seed; the program sees
only the generated corpus and the ``RunConfig``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from hmic import datagen, pipeline
from hmic.config import RunConfig
from hmic.datagen import (
    AnomalySpec,
    AttributeSpec,
    ClipCounts,
    MachineSpec,
    SectionSpec,
    SynthSpec,
)
from hmic.evaluation import UndefinedMetricError
from hmic.metadata import read_manifest
from hmic.model import ModelConfig
from hmic.training import TrainConfig

# Epochs are cut from the shipped 30 so that a run of every workload fits the
# benchmark's time budget; every other setting is the shipped RunConfig.
PAPER_EPOCHS = 2
SHORT_EPOCHS = 1


@dataclass(frozen=True)
class Setting:
    """One configuration the timed part runs: train (unless set-up trained it),
    then score once per mode, then evaluate each score file."""

    tag: str
    config: RunConfig
    train: bool
    modes: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], SynthSpec]
    settings: Callable[[int], tuple[Setting, ...]]
    setup_repeats: int = 5  # set-up processes per run; setup_s is their median
    unexercised: frozenset = frozenset()  # spans this workload never calls

    def setup_trains(self, seed: int) -> bool:
        """Set-up trains the checkpoint when the timed part does not."""
        return not self.settings(seed)[0].train


def _paper_settings(seed: int) -> tuple[Setting, ...]:
    config = RunConfig(train=TrainConfig(epochs=PAPER_EPOCHS, seed=seed))
    return (Setting("hmic", config, train=True, modes=("agc", "dc")),)


def _dcase_settings(seed: int) -> tuple[Setting, ...]:
    config = RunConfig(train=TrainConfig(epochs=SHORT_EPOCHS, seed=seed))
    return (Setting("hmic", config, train=False, modes=("agc", "dc")),)


def _ablation_settings(seed: int) -> tuple[Setting, ...]:
    return tuple(
        Setting(
            f"weight_{weight:g}",
            RunConfig(
                model=ModelConfig(id_loss_weight=weight),
                train=TrainConfig(epochs=SHORT_EPOCHS, seed=seed),
            ),
            train=True,
            modes=("agc",),
        )
        for weight in (0.0, 0.5, 1.0)
    )


def dcase_spec(seed: int) -> SynthSpec:
    """10 s clips (128x313 log-Mel) with 3 sections x 12 attribute groups.

    Three attributes (3 x 2 x 2 values) give 12 groups per section, near the
    11 a ToyCar section has; every group has training clips in the source
    domain and one in the target domain, which reuses the source values on a
    higher noise floor. Equal clip counts keep the groups' shrinkage, and so
    their distances, comparable. Each (section, domain) cell has 10 normal and
    10 anomalous clips.
    """
    sections = []
    for s in range(3):
        attributes = (
            AttributeSpec(
                name="spd",
                source_values=("lo", "mid", "hi"),
                target_values=(),
                tones_hz={
                    "lo": (400.0 + 40 * s, 520.0 + 40 * s),
                    "mid": (600.0 + 40 * s, 780.0 + 40 * s),
                    "hi": (900.0 + 40 * s, 1170.0 + 40 * s),
                },
                jitter_scale_by_value={"lo": 0.3, "hi": 2.0},
            ),
            AttributeSpec(
                name="load",
                source_values=("a", "b"),
                target_values=(),
                tones_hz={"a": (2000.0 + 100 * s,), "b": (2600.0 + 100 * s, 2900.0 + 100 * s)},
            ),
            AttributeSpec(
                name="mic",
                source_values=("m1", "m2"),
                target_values=(),
                tones_hz={"m1": (4200.0 + 150 * s,), "m2": (5200.0 + 150 * s, 5600.0 + 150 * s)},
                jitter_scale_by_value={"m1": 0.5, "m2": 1.6},
            ),
        )
        sections.append(
            SectionSpec(
                section_id=s,
                attributes=attributes,
                am_rate_hz=(3.0, 7.0, 13.0)[s],
                counts=ClipCounts(
                    train_source=12,
                    train_target=12,
                    test_normal_source=10,
                    test_anomalous_source=10,
                    test_normal_target=10,
                    test_anomalous_target=10,
                ),
            )
        )
    return SynthSpec(
        machines=(MachineSpec(name="toycar", sections=tuple(sections)),),
        clip_seconds=10.0,
        tone_jitter_cents=25.0,
        anomaly=AnomalySpec(detune_cents=250.0, clicks_per_second=2.0, click_amp=0.2),
        seed=seed,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-shifted", datagen.shifted_spec, _paper_settings),
        # Each set-up here trains at 128x313 for about 14 s, so fewer repeats.
        Workload("dcase-score", dcase_spec, _dcase_settings, setup_repeats=2),
        Workload(
            "ablation-sweep",
            datagen.shifted_spec,
            _ablation_settings,
            unexercised=frozenset({"dsp.load_features"}),
        ),
    )
}


@dataclass
class Prepared:
    """What set-up leaves for the timed part."""

    corpus: Path
    manifest: Path
    test_ids: list[str]  # manifest order, which is also the scores CSV order
    test_cells: list[tuple[tuple, bool]]  # per test clip: (machine, section, domain), anomalous
    checkpoint: Path | None


def build(workload: Workload, seed: int, directory: Path) -> None:
    """Set-up: write the corpus into ``directory`` and, when the timed part
    does not train, the checkpoint it scores."""
    corpus = directory / "corpus"
    datagen.generate(workload.spec(seed), corpus)
    if workload.setup_trains(seed):
        pipeline.run_train(workload.settings(seed)[0].config, corpus,
                           directory / "setup.hmic", directory)


def prepared(workload: Workload, seed: int, directory: Path) -> Prepared:
    """What ``build`` left in ``directory``, as the timed part needs it."""
    corpus = directory / "corpus"
    manifest = corpus / "manifest.csv"
    checkpoint = directory / "setup.hmic" if workload.setup_trains(seed) else None
    test = [e.meta for e in read_manifest(manifest) if e.meta.split == "test"]
    cells = [((m.machine_type, m.section_id, m.domain), m.condition == "anomalous") for m in test]
    return Prepared(corpus, manifest, [m.clip_id for m in test], cells, checkpoint)


@dataclass
class Iteration:
    """One pass over the timed part: stage times, outputs and failures."""

    wall_s: float = 0.0
    stages: list[tuple[str, float]] = field(default_factory=list)  # (kind, seconds)
    reports: dict = field(default_factory=dict)  # "tag/mode" -> EvalReport
    score_files: dict = field(default_factory=dict)  # "tag/mode" -> Path
    checkpoints: dict = field(default_factory=dict)  # tag -> Path
    raised: dict = field(default_factory=dict)  # "tag/mode" -> first exception on its way


def run_timed(workload: Workload, seed: int, prepared: Prepared, directory: Path,
              clock: Callable[[], float]) -> Iteration:
    """Run the timed part once into ``directory``; a stage that raises is
    recorded and the stages that need its output are skipped."""
    it = Iteration()

    def stage(kind: str, keys: list[str], call: Callable):
        start = clock()
        try:
            return call()
        except Exception as exc:  # a failed stage is a measured outcome, not a crash
            for key in keys:
                it.raised.setdefault(key, exc)
            return None
        finally:
            it.stages.append((kind, clock() - start))

    begin = clock()
    for setting in workload.settings(seed):
        checkpoint = prepared.checkpoint
        keys = [f"{setting.tag}/{mode}" for mode in setting.modes]
        if setting.train:
            checkpoint = directory / f"{setting.tag}.hmic"
            trained = stage("train", keys, lambda: pipeline.run_train(
                setting.config, prepared.corpus, checkpoint, directory))
            if trained is None:
                continue
            it.checkpoints[setting.tag] = checkpoint
        scored = []
        for mode, key in zip(setting.modes, keys):
            config = setting.config.with_overrides(scoring_mode=mode)
            out = directory / f"{setting.tag}_{mode}.csv"
            if stage(f"score_{mode}", [key], lambda: pipeline.run_score(
                    config, checkpoint, prepared.manifest, out, directory)) is not None:
                it.score_files[key] = out
                scored.append((key, out, config))
        for key, out, config in scored:
            report = stage("eval", [key], lambda: pipeline.run_eval(
                out, prepared.manifest, pauc_p=config.pauc_p,
                config_digest=config.semantic_digest()))
            if report is not None:
                it.reports[key] = report
    it.wall_s = clock() - begin
    return it


def outputs(workload: Workload, seed: int) -> list[tuple[str, RunConfig]]:
    """("tag/mode", config) of every score file and report a pass produces."""
    return [(f"{s.tag}/{mode}", s.config) for s in workload.settings(seed) for mode in s.modes]


def read_scores(path: Path, test_ids: list[str]) -> list[float]:
    """Scores in manifest order; a missing, blank or non-finite score is NaN."""
    by_id = {}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if tuple(next(reader, ())) != pipeline.SCORE_COLUMNS:
            return [math.nan] * len(test_ids)
        for row in reader:
            if len(row) == len(pipeline.SCORE_COLUMNS) and row[2]:
                try:
                    by_id[row[0]] = float(row[2])
                except ValueError:
                    pass
    return [by_id.get(clip_id, math.nan) for clip_id in test_ids]


def has_zero_cell(scores: list[float], test_cells: list[tuple[tuple, bool]],
                  pauc_p: float) -> bool:
    """True when some (machine, section, domain) cell has an AUC or pAUC of 0.

    pAUC is 0 exactly when at least pauc_p * n_normal normal clips score above
    every anomalous clip of the cell; AUC is 0 when every anomalous clip
    scores below every normal one. The harmonic-mean totals are then
    undefined and the program must refuse to build the report.
    """
    cells: dict[tuple, tuple[list, list]] = {}
    for score, (cell, anomalous) in zip(scores, test_cells):
        cells.setdefault(cell, ([], []))[anomalous].append(score)
    for normal, anomalous in cells.values():
        top = max(anomalous)
        if top < min(normal) or sum(n > top for n in normal) >= pauc_p * len(normal):
            return True
    return False


def check(workload: Workload, seed: int, prepared: Prepared, it: Iteration) -> dict:
    """Check every output of one pass and take its numeric fingerprint.

    Every test clip needs a finite score in every score file, and every
    report must cover every cell with values in (0, 1]. The one accepted
    refusal is the program's UndefinedMetricError for a report whose cells
    include a zero AUC or pAUC, confirmed here from the scores. A stage that
    raises otherwise fails all the clips it was to produce.
    """
    n_test = len(prepared.test_ids)
    n_cells = len({cell for cell, _ in prepared.test_cells})
    failed = 0
    errors, undefined = [], []
    scores, totals = {}, {}
    for key, config in outputs(workload, seed):
        path = it.score_files.get(key)
        values = read_scores(path, prepared.test_ids) if path else [math.nan] * n_test
        scores[key] = values
        bad = sum(1 for v in values if not math.isfinite(v))
        report = it.reports.get(key)
        exc = it.raised.get(key)
        if report is not None and _report_ok(report, n_cells):
            totals[key] = {"auc": report.total_auc, "pauc": report.total_pauc}
        elif (report is None and bad == 0 and isinstance(exc, UndefinedMetricError)
              and has_zero_cell(values, prepared.test_cells, config.pauc_p)):
            undefined.append(key)
        else:
            reason = f"{type(exc).__name__}: {exc}" if exc else "report missing or malformed"
            errors.append(f"{key}: {reason}")
            failed += n_test
            continue
        if bad:
            errors.append(f"{key}: {bad} clips without a finite score")
            failed += bad
    checkpoints = [prepared.checkpoint] if prepared.checkpoint else []
    checkpoints += list(it.checkpoints.values())
    return {
        "attempted": n_test * len(scores),
        "failed": failed,
        "errors": errors,
        "undefined": undefined,
        "scores": scores,
        "totals": totals,
        "checkpoint_sha256": {path.stem: _sha256(path) for path in checkpoints},
    }


def _report_ok(report, n_cells: int) -> bool:
    values = [report.total_auc, report.total_pauc]
    values += [c.auc for c in report.cells] + [c.pauc for c in report.cells]
    return len(report.cells) == n_cells and all(0.0 < v <= 1.0 for v in values)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
