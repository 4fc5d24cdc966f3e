"""Acceptance gate: one test per criterion, each printing a [PASS]/[FAIL] line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end criteria train real models and take a few minutes.
"""

import json
import math
import os
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hmic.config import RunConfig
from hmic.datagen import default_spec, shifted_spec
from hmic.dsp import log_mel
from hmic.evaluation import auc_from_scores, harmonic_total, pauc_from_scores
from hmic.metadata import build_label_space
from hmic.model import ModelConfig, init_params, loss_and_grads
from hmic.pipeline import run_eval, run_pipeline, run_score
from hmic.scoring import _factor, fit_agc, mahalanobis, score_agc

from conftest import make_tiny_config, make_tiny_spec
from oracles import gradient_check, parse_dcase_filename

DATA = Path(__file__).parent / "data"


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- criterion: full-scale reference numbers are fixtures, never asserted ----


def test_reference_fixtures_recorded_not_asserted():
    fixtures = json.loads((DATA / "reference_eval_targets.json").read_text())
    methods = fixtures["methods"]
    ok = {"hmic_agc", "hmic_dc", "domain_only", "attribute_only"} <= set(methods)
    for rows in methods.values():
        for pair in rows.values():
            ok = ok and len(pair) == 2 and all(0.0 < v <= 100.0 for v in pair)
    # context check only: no pipeline output is ever compared against these
    report(
        "reference-fixtures",
        ok,
        f"hmic_agc total {methods['hmic_agc']['total']} recorded for context only",
    )


# --- criterion: metadata fidelity vs brute-force oracle ----------------------


def test_metadata_fidelity_against_brute_force_oracle():
    start = time.monotonic()
    from hmic.datagen import plan_corpus

    metas = [p.meta for p in plan_corpus(default_spec()) if p.meta.split == "train"]
    space = build_label_space(metas, "gizmo")

    oracle = {}
    for meta in metas:
        oracle.setdefault((meta.section_id, frozenset(meta.attributes)), set()).add(meta.clip_id)
    oracle_partition = {frozenset(v) for v in oracle.values()}

    from hmic.metadata import assign_labels

    ours = {}
    for meta in metas:
        _, group = assign_labels(meta, space)
        ours.setdefault(group, set()).add(meta.clip_id)
    our_partition = {frozenset(v) for v in ours.values()}

    elapsed = time.monotonic() - start
    ok = our_partition == oracle_partition and space.n_groups == 12 and elapsed < 1.0
    report(
        "metadata-fidelity",
        ok,
        f"{space.n_groups} groups, partition match, {elapsed:.3f}s",
    )


# --- criterion: DSP shape and tone localization -------------------------------


def test_dsp_shape_and_tone_localization():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    clip = log_mel(rng.normal(scale=0.05, size=160000))
    shape_ok = clip.shape == (128, 313)

    lo = 2595.0 * math.log10(1.0)
    hi = 2595.0 * math.log10(1.0 + 8000.0 / 700.0)
    grid = np.linspace(lo, hi, 130)[1:-1]
    centres = 700.0 * (10.0 ** (grid / 2595.0) - 1.0)
    tone_ok = True
    for bin_index in (34, 48, 64, 90, 120):
        freq = centres[bin_index]
        t = np.arange(16000) / 16000.0
        values = log_mel(0.5 * np.sin(2 * np.pi * freq * t))
        tone_ok = tone_ok and bool(np.all(values.argmax(axis=0) == bin_index))
    elapsed = time.monotonic() - start
    ok = shape_ok and tone_ok and elapsed < 5.0
    report("dsp-shape", ok, f"128x313 and 5-tone localization, {elapsed:.2f}s")


# --- criterion: gradient correctness ------------------------------------------


def test_gradient_correctness_micro_config():
    start = time.monotonic()
    config = ModelConfig(channels=(2, 3, 4), head_channels=4)
    params = init_params(config, 2, 3, np.random.default_rng(11))
    rng = np.random.default_rng(42)
    x = rng.normal(size=(3, 1, 8, 10))
    worst = gradient_check(params, x, np.array([0, 1, 0]), np.array([2, 0, 1]), eps=1e-5)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report("gradient-correctness", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


# --- criterion: loss algebra ---------------------------------------------------


def test_loss_algebra():
    rng = np.random.default_rng(5)
    config = ModelConfig(channels=(2, 3, 4), head_channels=4)
    x = rng.normal(size=(4, 1, 8, 8))
    labels_id = rng.integers(0, 3, 4)
    labels_ag = rng.integers(0, 7, 4)

    def breakdown(weight, n_sections=3, n_groups=7, zero_heads=False):
        params = init_params(replace(config, id_loss_weight=weight), n_sections, n_groups,
                             np.random.default_rng(6))
        if zero_heads:  # uniform logits from both heads
            for name in ("cls_id.w", "cls_id.b", "cls_ag.w", "cls_ag.b"):
                params.tensors[name][...] = 0.0
        return loss_and_grads(params, x, labels_id, labels_ag)[0]

    at_one, at_zero = breakdown(1.0), breakdown(0.0)
    endpoints_ok = (
        at_one.loss_total == at_one.loss_id and at_zero.loss_total == at_zero.loss_ag
    )
    linear_ok = True
    for weight in (0.25, 0.5, 0.9):
        mixed = breakdown(weight)
        linear_ok = linear_ok and mixed.loss_total == (
            weight * mixed.loss_id + (1 - weight) * mixed.loss_ag
        )
    uniform = breakdown(0.5, n_sections=5, n_groups=9, zero_heads=True)
    uniform_ok = (
        abs(uniform.loss_id - math.log(5)) < 1e-12
        and abs(uniform.loss_ag - math.log(9)) < 1e-12
    )
    report(
        "loss-algebra",
        endpoints_ok and linear_ok and uniform_ok,
        "endpoints exact, mixing linear, uniform CE = ln K within 1e-12",
    )


# --- criterion: scoring solver vs explicit-inverse oracle ----------------------


def test_scoring_solver_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        a = rng.normal(size=(dim, dim))
        cov = a @ a.T
        eps = 10.0 ** rng.uniform(-6, -1)
        dev = rng.normal(size=dim)
        (via_solve,) = mahalanobis(dev[None], np.zeros(dim), _factor(cov, eps))
        via_inverse = math.sqrt(dev @ np.linalg.inv(cov + eps * np.eye(dim)) @ dev)
        # distances reach ~1e3 on ill-conditioned draws: compare scale-aware
        worst = max(worst, abs(via_solve - via_inverse) / max(1.0, via_inverse))
    solver_ok = worst < 1e-9

    min_ok = True
    for _ in range(100):
        n = int(rng.integers(6, 20))
        feats = rng.normal(size=(n, 3))
        labels = rng.integers(0, 4, n)
        labels[:4] = np.arange(4)  # every group non-empty
        model = fit_agc(feats, labels, np.zeros(n, int))
        probe = rng.normal(size=(1, 3))  # a batch of one
        scores, argmins, errors = score_agc(probe, model, np.zeros(1, int))
        distances = [
            mahalanobis(probe, g.centre, g.solve)[0] for g in model.groups_by_section[0]
        ]
        min_ok = min_ok and not errors and scores[0] == min(distances)
        min_ok = min_ok and argmins[0] == int(np.argmin(distances))
    elapsed = time.monotonic() - start
    ok = solver_ok and min_ok and elapsed < 10.0
    report(
        "scoring-oracle",
        ok,
        f"solve vs inverse max |diff| {worst:.1e} over 1000 SPD, min exact, {elapsed:.1f}s",
    )


# --- criterion: metric oracle --------------------------------------------------


def trapezoid_auc_fraction(normal, anomalous):
    n_n, n_a = len(normal), len(anomalous)
    thresholds = sorted(set(normal) | set(anomalous), reverse=True)
    vertices = [(Fraction(0), Fraction(0))]
    fp = tp = 0
    for value in thresholds:
        fp += sum(1 for s in normal if s == value)
        tp += sum(1 for s in anomalous if s == value)
        vertices.append((Fraction(fp, n_n), Fraction(tp, n_a)))
    area = Fraction(0)
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        area += (x1 - x0) * (y0 + y1) / 2
    return area


def test_metric_oracle():
    rng = np.random.default_rng(77)
    grid = [k / 4.0 for k in range(13)]
    exact = 0
    for _ in range(500):
        normal = [grid[i] for i in rng.integers(0, len(grid), rng.integers(1, 21))]
        anomalous = [grid[i] for i in rng.integers(0, len(grid), rng.integers(1, 21))]
        ours = auc_from_scores(np.array(normal), np.array(anomalous))
        oracle = float(trapezoid_auc_fraction(normal, anomalous))
        collapse = pauc_from_scores(np.array(normal), np.array(anomalous), 1.0)
        if ours == oracle and collapse == ours:
            exact += 1
    hand_ok = (
        harmonic_total([0.5, 1.0]) == pytest.approx(2.0 / 3.0, abs=1e-15)
        and harmonic_total([0.7, 0.7, 0.7]) == pytest.approx(0.7, abs=1e-15)
    )
    ok = exact == 500 and hand_ok
    report("metric-oracle", ok, f"{exact}/500 instances exact, harmonic hand cases exact")


# --- criteria: end-to-end separation, AGC vs DC, determinism -------------------


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("accept_default")
    start = time.monotonic()
    report_agc, paths = run_pipeline(RunConfig(), workdir, default_spec())
    return report_agc, paths, time.monotonic() - start


@pytest.fixture(scope="module")
def shifted_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("accept_shifted")
    config = RunConfig()
    report_agc, paths = run_pipeline(config, workdir, shifted_spec())
    manifest = paths["corpus"] / "manifest.csv"
    scores_dc = workdir / "scores_dc.csv"
    outcome = run_score(
        config.with_overrides(scoring_mode="dc"), paths["checkpoint"], manifest, scores_dc
    )
    assert not outcome.errors
    report_dc = run_eval(scores_dc, manifest, pauc_p=config.pauc_p)
    return report_agc, report_dc


def test_end_to_end_separation_on_default_corpus(default_run):
    report_agc, _, elapsed = default_run
    sections_ok = all(s.auc >= 0.85 for s in report_agc.section_aucs)
    total_ok = report_agc.total_combined >= 0.80
    runtime_ok = elapsed <= 600.0
    detail = (
        "per-section AUC "
        + " ".join(f"{s.auc:.3f}" for s in report_agc.section_aucs)
        + f", combined total {report_agc.total_combined:.3f}, {elapsed:.0f}s"
    )
    report("end-to-end-separation", sections_ok and total_ok and runtime_ok, detail)


def test_agc_beats_dc_on_attribute_shifted_corpus(shifted_run):
    report_agc, report_dc = shifted_run
    ok = report_agc.total_auc >= report_dc.total_auc
    report(
        "agc-vs-dc",
        ok,
        f"AGC total AUC {report_agc.total_auc:.4f} >= DC {report_dc.total_auc:.4f} "
        f"(pAUC {report_agc.total_pauc:.4f} vs {report_dc.total_pauc:.4f})",
    )


def test_identical_seeds_give_bitwise_identical_artifacts(tmp_path):
    spec = make_tiny_spec(seed=13)
    config = make_tiny_config(seed=13)
    blobs = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        run_pipeline(config, workdir, spec)
        blobs.append(
            (
                (workdir / "model.hmic").read_bytes(),
                (workdir / "report_agc.json").read_bytes(),
            )
        )
    ok = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
    report(
        "determinism",
        ok,
        f"checkpoint ({len(blobs[0][0])} bytes) and report bitwise identical",
    )


# --- criterion: dataset-gated ToyCar group counts ------------------------------


@pytest.mark.skipif(
    "HMIC_TOYCAR_LISTING" not in os.environ,
    reason="set HMIC_TOYCAR_LISTING to a ToyCar train filename listing to enable",
)
def test_toycar_listing_group_counts():
    listing = Path(os.environ["HMIC_TOYCAR_LISTING"])
    metas = []
    for line in listing.read_text().splitlines():
        name = line.strip()
        if not name:
            continue
        meta = parse_dcase_filename(name, "toycar")
        if meta.split == "train":
            metas.append(meta)
    space = build_label_space(metas, "toycar")
    section_zero = sum(section == 0 for section, _ in space.groups)
    ok = section_zero == 11 and space.n_groups == 44
    report(
        "toycar-ag-counts",
        ok,
        f"section 00 has {section_zero} groups, machine total {space.n_groups}",
    )
