"""AUC / partial-AUC metrics and the per-machine/section/domain report.

Both metrics come from one ROC staircase held as integer (false-positive,
true-positive) counts. Partial AUC integrates it over false-positive rate
[0, p] and normalizes by p; AUC is its value at p = 1, where twice the area is
the exact integer 2 * wins + ties over all (anomalous, normal) pairs, i.e. the
Mann-Whitney statistic P(anomalous > normal) + 0.5 P(equal). Totals are
harmonic means over report cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import to_dict
from .errors import HmicError
from .metadata import write_csv_rows


class UndefinedMetricError(HmicError, ValueError):
    """Raised when a metric is requested on degenerate input."""


@dataclass(frozen=True)
class ScoredClip:
    clip_id: str
    machine_type: str
    section: int
    domain: str
    truth: str  # "normal" | "anomalous"
    score: float

    def __post_init__(self) -> None:
        if self.truth not in ("normal", "anomalous"):
            raise ValueError(f"truth must be normal/anomalous, got {self.truth!r}")
        if not np.isfinite(self.score):
            raise ValueError(f"non-finite score for {self.clip_id!r}")


def _split_scores(clips) -> tuple[np.ndarray, np.ndarray]:
    normal = np.array([c.score for c in clips if c.truth == "normal"], dtype=np.float64)
    anomalous = np.array([c.score for c in clips if c.truth == "anomalous"], dtype=np.float64)
    if normal.size == 0 or anomalous.size == 0:
        raise UndefinedMetricError(
            f"need both classes, got {normal.size} normal / {anomalous.size} anomalous"
        )
    return normal, anomalous


def _roc_area(normal, anomalous, p: float) -> float:
    """Area under the ROC for false-positive rate [0, p], normalized by p.

    Thresholds sweep the distinct score values from high to low; clips tied at
    a threshold enter together, which yields diagonal ROC segments.
    """
    normal = np.asarray(normal, dtype=np.float64)
    anomalous = np.asarray(anomalous, dtype=np.float64)
    if normal.size == 0 or anomalous.size == 0:
        raise UndefinedMetricError("both classes must be non-empty")
    n_normal, n_anomalous = normal.size, anomalous.size
    values, inverse = np.unique(np.concatenate([normal, anomalous]), return_inverse=True)
    # Staircase vertices: cumulative counts per class, highest score first, from (0, 0).
    fp, tp = (
        np.concatenate(([0], np.cumsum(np.bincount(part, minlength=values.size)[::-1])))
        for part in (inverse[:n_normal], inverse[n_normal:])
    )
    fp_limit = p * n_normal
    # Twice the area in integer fp*tp units over the segments that end by the limit...
    inside = int(np.searchsorted(fp, fp_limit, side="right"))
    area2: float | int = int(np.sum(np.diff(fp[:inside]) * (tp[1:inside] + tp[: inside - 1])))
    # ...plus the part of the next segment that starts before it.
    if inside < fp.size and fp[inside - 1] < fp_limit:
        fp0, fp1 = int(fp[inside - 1]), int(fp[inside])
        tp0, tp1 = int(tp[inside - 1]), int(tp[inside])
        tp_cut = tp0 + (fp_limit - fp0) / (fp1 - fp0) * (tp1 - tp0)
        area2 += (fp_limit - fp0) * (tp0 + tp_cut)
    return area2 / (2.0 * p * n_normal * n_anomalous)


def auc_from_scores(normal: np.ndarray, anomalous: np.ndarray) -> float:
    return _roc_area(normal, anomalous, 1.0)


def auc(clips) -> float:
    """Probability that an anomalous clip outscores a normal one (ties count half)."""
    normal, anomalous = _split_scores(clips)
    return auc_from_scores(normal, anomalous)


def pauc_from_scores(normal: np.ndarray, anomalous: np.ndarray, p: float) -> float:
    """AUC restricted to false-positive rate [0, p], normalized by p."""
    if not 0.0 < p <= 1.0:
        raise UndefinedMetricError(f"p must be in (0, 1], got {p}")
    return _roc_area(normal, anomalous, p)


def harmonic_total(cells) -> float:
    """Harmonic mean of metric cells; undefined when any cell is zero."""
    values = np.asarray(list(cells), dtype=np.float64)
    if values.size == 0:
        raise UndefinedMetricError("harmonic mean of zero cells")
    if np.any(values <= 0.0):
        raise UndefinedMetricError("harmonic mean undefined for non-positive cells")
    return values.size / float(np.sum(1.0 / values))


@dataclass(frozen=True)
class CellMetrics:
    machine_type: str
    section: int
    domain: str
    auc: float
    pauc: float
    n_normal: int
    n_anomalous: int


@dataclass(frozen=True)
class SectionAuc:
    machine_type: str
    section: int
    auc: float


@dataclass(frozen=True)
class EvalReport:
    cells: tuple[CellMetrics, ...]
    section_aucs: tuple[SectionAuc, ...]  # domains pooled
    machine_totals: dict[str, dict[str, float]]
    total_auc: float
    total_pauc: float
    total_combined: float  # harmonic mean over all AUC and pAUC cells together
    pauc_p: float
    config_digest: str | None = None  # set when evaluated as part of a configured run

    def to_dict(self) -> dict:
        return {
            "pauc_p": self.pauc_p,
            "config_digest": self.config_digest,
            "cells": [to_dict(c) for c in self.cells],
            "section_auc": [to_dict(s) for s in self.section_aucs],
            "machines": self.machine_totals,
            "total": {
                "auc": self.total_auc,
                "pauc": self.total_pauc,
                "combined": self.total_combined,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def build_report(
    clips: list[ScoredClip], pauc_p: float, config_digest: str | None = None
) -> EvalReport:
    """Per-(machine, section, domain) AUC/pAUC cells plus harmonic-mean totals.

    Every cell must contain both normal and anomalous clips, and its AUC and
    pAUC must be positive; the first cell that fails names itself.
    """
    if not clips:
        raise UndefinedMetricError("no scored clips to evaluate")
    cell_keys = sorted({(c.machine_type, c.section, c.domain) for c in clips})
    cells = []
    for machine, section, domain in cell_keys:
        members = [
            c
            for c in clips
            if (c.machine_type, c.section, c.domain) == (machine, section, domain)
        ]
        normal, anomalous = _split_scores(members)
        cells.append(
            CellMetrics(
                machine_type=machine,
                section=section,
                domain=domain,
                auc=auc_from_scores(normal, anomalous),
                pauc=pauc_from_scores(normal, anomalous, pauc_p),
                n_normal=normal.size,
                n_anomalous=anomalous.size,
            )
        )
    section_keys = sorted({(c.machine_type, c.section) for c in clips})
    section_aucs = tuple(
        SectionAuc(
            machine_type=machine,
            section=section,
            auc=auc([c for c in clips if (c.machine_type, c.section) == (machine, section)]),
        )
        for machine, section in section_keys
    )
    for cell in cells:
        for metric, value in (("AUC", cell.auc), (f"pAUC (p = {pauc_p:g})", cell.pauc)):
            if value <= 0.0:
                raise UndefinedMetricError(
                    f"{cell.machine_type} section {cell.section} {cell.domain}: {metric} is "
                    f"{value:g}; the harmonic-mean totals are undefined")
    machine_totals: dict[str, dict[str, float]] = {}
    for machine in sorted({c.machine_type for c in cells}):
        own = [c for c in cells if c.machine_type == machine]
        machine_totals[machine] = {
            "auc": harmonic_total([c.auc for c in own]),
            "pauc": harmonic_total([c.pauc for c in own]),
        }
    total_auc = harmonic_total([c.auc for c in cells])
    total_pauc = harmonic_total([c.pauc for c in cells])
    total_combined = harmonic_total([c.auc for c in cells] + [c.pauc for c in cells])
    return EvalReport(
        cells=tuple(cells),
        section_aucs=section_aucs,
        machine_totals=machine_totals,
        total_auc=total_auc,
        total_pauc=total_pauc,
        total_combined=total_combined,
        pauc_p=pauc_p,
        config_digest=config_digest,
    )


def write_report_csv(report: EvalReport, path: str | Path) -> None:
    """Flat export: one row per cell plus total rows."""
    rows = [[c.machine_type, c.section, c.domain, f"{c.auc:.6f}", f"{c.pauc:.6f}"]
            for c in report.cells]
    rows.append(["total", "", "", f"{report.total_auc:.6f}", f"{report.total_pauc:.6f}"])
    write_csv_rows(path, ("machine_type", "section", "domain", "auc", "pauc"), rows)
