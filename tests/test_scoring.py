import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmic
from hmic.errors import HmicError
from hmic.scoring import (
    CentreModel,
    centre_model_from_tensors,
    centre_model_to_tensors,
    fit_agc,
    fit_dc,
    mahalanobis,
    score_agc,
    score_dc,
    _factor,
)


def shrunk_by(model, eps):
    """``model`` with every group's shrinkage set to ``eps``, rebuilt from its
    tensors the way a checkpoint's centres are."""
    tensors = centre_model_to_tensors(model, "m")
    for name, value in tensors.items():
        if name.endswith("/stats"):
            value[1] = eps
    return centre_model_from_tensors(tensors, "m", model.kind)


def fit_simple(feats, labels, sections, shrinkage=None):
    """Attribute-group centres of the rows; with the fitted shrinkage, or
    ``shrinkage`` for every group when it is given."""
    model = fit_agc(np.asarray(feats, float), np.asarray(labels), np.asarray(sections))
    return model if shrinkage is None else shrunk_by(model, shrinkage)


def score_one(probe, model, section=0, score=score_agc):
    """(score, argmin group) of one probe scored as a batch of one, which must
    not error."""
    scores, argmins, errors = score(np.asarray(probe, float)[None], model, np.array([section]))
    assert errors == {}
    return scores[0], argmins[0]


def errors_of_one(probe, model, section=0, score=score_agc):
    """The error messages of one probe scored as a batch of one."""
    scores, argmins, errors = score(np.asarray(probe, float)[None], model, np.array([section]))
    assert np.isnan(scores[0]) and argmins[0] == -1
    return errors


class TestFitAgc:
    def test_single_clip_group(self):
        model = fit_simple([[2.0, -1.0]], [0], [0], shrinkage=1e-3)
        group = model.groups_by_section[0][0]
        np.testing.assert_array_equal(group.centre, [2.0, -1.0])
        np.testing.assert_array_equal(group.covariance, np.zeros((2, 2)))
        assert group.n_clips == 1
        # factorization is of eps * I, so distance is Euclidean / sqrt(eps)
        score, _ = score_one([2.0, 0.0], model)
        assert score == pytest.approx(1.0 / math.sqrt(1e-3))

    def test_two_point_hand_covariance(self):
        # clips (1,0) and (-1,0): centre (0,0), population covariance diag(1, 0)
        model = fit_simple([[1.0, 0.0], [-1.0, 0.0]], [0, 0], [0, 0], shrinkage=0.5)
        group = model.groups_by_section[0][0]
        np.testing.assert_array_equal(group.centre, [0.0, 0.0])
        np.testing.assert_array_equal(group.covariance, np.diag([1.0, 0.0]))
        # shrunk matrix diag(1.5, 0.5): distance of (0, 1) is 1/sqrt(0.5)
        score, _ = score_one([0.0, 1.0], model)
        assert score == pytest.approx(1.0 / math.sqrt(0.5))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(12, 3))
        labels = rng.integers(0, 3, 12)
        sections = np.zeros(12, int)
        order = rng.permutation(12)
        a = fit_simple(feats, labels, sections)
        b = fit_simple(feats[order], labels[order], sections[order])
        for ga, gb in zip(a.groups_by_section[0], b.groups_by_section[0]):
            assert ga.label == gb.label
            np.testing.assert_allclose(ga.centre, gb.centre, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ga.covariance, gb.covariance, rtol=0, atol=1e-12)

    def test_covariance_is_symmetric(self):
        rng = np.random.default_rng(1)
        model = fit_simple(rng.normal(size=(20, 5)), np.zeros(20, int), np.zeros(20, int))
        cov = model.groups_by_section[0][0].covariance
        assert np.max(np.abs(cov - cov.T)) < 1e-10

    def test_auto_shrinkage_scales_with_trace(self):
        rng = np.random.default_rng(2)
        feats = 10.0 * rng.normal(size=(50, 4))
        model = fit_simple(feats, np.zeros(50, int), np.zeros(50, int))
        group = model.groups_by_section[0][0]
        expected = max(1e-3 * np.trace(group.covariance) / 4, 1e-6)
        assert group.shrink_eps == pytest.approx(expected)

    def test_non_finite_features_rejected(self):
        with pytest.raises(HmicError, match="finite"):
            fit_simple([[np.nan, 0.0]], [0], [0])

    def test_empty_rejected(self):
        with pytest.raises(HmicError, match=r"expected a non-empty \(N, d\) feature matrix"):
            fit_simple(np.zeros((0, 2)), [], [])


class TestMahalanobis:
    def test_identity_covariance_is_euclidean(self):
        solve = _factor(np.zeros((3, 3)), 1.0)
        (dist,) = mahalanobis(np.array([[1.0, 2.0, 2.0]]), np.zeros(3), solve)
        assert dist == pytest.approx(3.0)

    def test_zero_at_centre(self):
        solve = _factor(np.eye(2) * 0.7, 1e-3)
        assert mahalanobis(np.array([[0.4, -0.2]]), np.array([0.4, -0.2]), solve)[0] == 0.0

    def test_diagonal_hand_case(self):
        # (Sigma + eps I) = diag(4, 1), deviation (2, 3): sqrt(4/4 + 9/1) = sqrt(10)
        solve = _factor(np.diag([3.0, 0.0]), 1.0)
        (dist,) = mahalanobis(np.array([[2.0, 3.0]]), np.zeros(2), solve)
        assert dist == pytest.approx(math.sqrt(10.0))

    def test_dimension_mismatch(self):
        solve = _factor(np.eye(2), 1e-3)
        with pytest.raises(HmicError, match="mismatch"):
            mahalanobis(np.zeros((1, 3)), np.zeros(2), solve)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 8))
    def test_solve_matches_explicit_inverse_oracle(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim))
        cov = a @ a.T
        eps = 10.0 ** rng.uniform(-6, -1)
        dev = rng.normal(size=dim)
        solve = _factor(cov, eps)
        (via_solve,) = mahalanobis(dev[None], np.zeros(dim), solve)
        via_inverse = math.sqrt(dev @ np.linalg.inv(cov + eps * np.eye(dim)) @ dev)
        assert abs(via_solve - via_inverse) < 1e-9 * max(1.0, via_inverse)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 8), n_clips=st.integers(1, 16))
    def test_solve_matches_scipy_cholesky_oracle(self, seed, dim, n_clips):
        # n_clips < dim gives a rank-deficient covariance that only the auto
        # shrinkage makes positive definite; one clip gives a zero covariance
        from scipy.linalg import cho_factor, cho_solve

        rng = np.random.default_rng(seed)
        model = fit_simple(rng.normal(size=(n_clips, dim)), [0] * n_clips, [0] * n_clips)
        group = model.groups_by_section[0][0]
        a = rng.normal(size=(dim, dim))
        spd = (a @ a.T, 10.0 ** rng.uniform(-6, -1))
        for cov, eps in ((group.covariance, group.shrink_eps), spd):
            dev = rng.normal(size=dim)
            (ours,) = mahalanobis(dev[None], np.zeros(dim), _factor(cov, eps))
            oracle = math.sqrt(dev @ cho_solve(cho_factor(cov + eps * np.eye(dim)), dev))
            assert abs(ours - oracle) < 1e-9 * max(1.0, oracle)


class TestScoreAgc:
    def make_model(self):
        feats = np.array(
            [[0.0, 0.0], [0.2, 0.0], [5.0, 5.0], [5.2, 5.0], [-3.0, 2.0], [-3.2, 2.0]]
        )
        labels = np.array([0, 0, 1, 1, 2, 2])
        sections = np.zeros(6, int)
        return fit_simple(feats, labels, sections, shrinkage=1e-2)

    def test_single_group_collapses_to_plain_distance(self):
        model = fit_simple([[1.0, 1.0], [3.0, 1.0]], [0, 0], [0, 0], shrinkage=1e-2)
        group = model.groups_by_section[0][0]
        probe = np.array([2.0, 4.0])
        assert score_one(probe, model)[0] == pytest.approx(
            mahalanobis(probe[None], group.centre, group.solve)[0]
        )

    def test_probe_at_centre_scores_zero(self):
        model = self.make_model()
        score, argmin = score_one([5.1, 5.0], model)
        assert argmin == 1
        assert score == pytest.approx(0.0, abs=1e-9)

    def test_min_over_groups_matches_enumeration(self):
        model = self.make_model()
        rng = np.random.default_rng(3)
        for _ in range(50):
            probe = rng.normal(scale=4.0, size=2)
            score, argmin = score_one(probe, model)
            distances = [
                mahalanobis(probe[None], g.centre, g.solve)[0] for g in model.groups_by_section[0]
            ]
            assert score == min(distances)
            assert argmin == int(np.argmin(distances))
            assert all(score <= d for d in distances)

    def test_tie_breaks_to_lowest_label(self):
        # two identical groups: equal distances, argmin must be label 0
        model = fit_simple([[1.0, 0.0], [1.0, 0.0]], [0, 1], [0, 0], shrinkage=1e-2)
        assert score_one([2.0, 2.0], model)[1] == 0

    def test_unknown_section_rejected(self):
        assert errors_of_one(np.zeros(2), self.make_model(), 9) == {
            0: "section 9 not present in the agc model"}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["agc", "dc"])
    def test_non_finite_embedding_rejected(self, kind, bad):
        labels = np.array(["source", "target"]) if kind == "dc" else np.array([0, 1])
        fit, score = (fit_dc, score_dc) if kind == "dc" else (fit_agc, score_agc)
        model = shrunk_by(fit(np.eye(2), labels, np.zeros(2, int)), 1e-2)
        assert errors_of_one([0.0, bad], model, score=score) == {0: "non-finite embedding"}

    def test_distance_overflow_rejected(self):
        # a finite probe far out over a tiny absolute shrinkage overflows y @ y
        model = fit_simple([[0.0, 0.0]], [0], [0], shrinkage=1e-300)
        assert errors_of_one([1e10, 0.0], model) == {0: "Mahalanobis distance overflows"}

    def test_kind_mismatch_rejected(self):
        dc = fit_dc(np.zeros((2, 2)), np.array(["source", "target"]), np.zeros(2, int))
        with pytest.raises(HmicError, match="attribute-group"):
            score_agc(np.zeros((1, 2)), dc, np.zeros(1, int))

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(9, 3))
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        sections = np.zeros(9, int)
        shift = np.array([10.0, -4.0, 2.5])
        base = fit_simple(feats, labels, sections)
        moved = fit_simple(feats + shift, labels, sections)
        for _ in range(10):
            probe = rng.normal(size=3)
            a_score, a_argmin = score_one(probe, base)
            b_score, b_argmin = score_one(probe + shift, moved)
            assert b_score == pytest.approx(a_score, rel=1e-9)
            assert b_argmin == a_argmin

    def test_scores_scale_linearly_for_point_groups(self):
        # single-clip groups have zero covariance: distance is Euclidean / sqrt(eps)
        model = fit_simple([[0.0, 0.0]], [0], [0], shrinkage=1e-4)
        base, _ = score_one([1.0, 0.0], model)
        assert score_one([3.0, 0.0], model)[0] == pytest.approx(3 * base)


def scipy_distance(row, group):
    """One row's distance to one group through scipy's Cholesky solve."""
    from scipy.linalg import cho_factor, cho_solve

    dev = row - group.centre
    shrunk = group.covariance + group.shrink_eps * np.eye(len(dev))
    return math.sqrt(dev @ cho_solve(cho_factor(shrunk), dev))


class TestBatchScoring:
    LABELS = (3, 5, 6, 8, 9, 12)  # not contiguous: the argmin is a label, not an index

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), n_rows=st.integers(1, 60),
           n_sections=st.integers(1, 3), n_groups=st.integers(1, 6), dim=st.integers(1, 6))
    def test_each_row_matches_a_per_row_scipy_oracle(self, seed, n_rows, n_sections,
                                                     n_groups, dim):
        rng = np.random.default_rng(seed)
        feats, labels, sections = [], [], []
        for section in range(n_sections):
            for k, label in enumerate(self.LABELS[:n_groups]):
                if k != 1:  # the second group repeats the first's clips: every row ties
                    members = rng.normal(size=(int(rng.integers(1, 5)), dim))
                    members += 3.0 * rng.normal(size=dim)
                feats.append(members)
                labels += [label] * len(members)
                sections += [section] * len(members)
        model = fit_simple(np.concatenate(feats), labels, sections)
        rows = 3.0 * rng.normal(size=(n_rows, dim))
        row_sections = rng.integers(0, n_sections, n_rows)
        for i in range(0, n_rows, 4):  # every fourth row sits exactly on a centre
            groups = model.groups_by_section[int(row_sections[i])]
            rows[i] = groups[int(rng.integers(len(groups)))].centre

        scores, argmins, errors = score_agc(rows, model, row_sections)
        assert errors == {}
        for section, groups in model.groups_by_section.items():
            in_section = np.flatnonzero(row_sections == section)
            if not len(in_section):
                continue
            # the batch the scorer solved: every row of the section
            distances = np.array([mahalanobis(rows[in_section], g.centre, g.solve)
                                  for g in groups])
            minima = distances.min(axis=0)
            np.testing.assert_array_equal(scores[in_section], minima)
            lowest = [min(g.label for g, d in zip(groups, column) if d == m)
                      for column, m in zip(distances.T, minima)]
            np.testing.assert_array_equal(argmins[in_section], lowest)
            for i in in_section:
                oracle = min(scipy_distance(rows[i], g) for g in groups)
                assert abs(scores[i] - oracle) <= 1e-12 * oracle
        if n_groups > 1:  # each row ties the first group with its copy: the copy never wins
            assert self.LABELS[1] not in argmins

    def test_bad_rows_error_alone_in_a_mixed_batch(self):
        rng = np.random.default_rng(9)
        spread = fit_simple(rng.normal(size=(9, 2)), [0, 0, 0, 1, 1, 1, 2, 2, 2], [0] * 9)
        # section 1: one clip over a tiny absolute shrinkage, so a far row overflows
        tiny = fit_simple([[0.0, 0.0]], [0], [1], shrinkage=1e-300)
        model = CentreModel("agc", {**spread.groups_by_section, **tiny.groups_by_section})
        feats = rng.normal(size=(10, 2))
        sections = np.array([0, 0, 0, 7, 0, 1, 0, 1, 0, 0])
        feats[1, 0], feats[4, 1], feats[5] = np.nan, np.inf, [1e10, 0.0]
        scores, argmins, errors = score_agc(feats, model, sections)
        assert errors == {1: "non-finite embedding", 3: "section 7 not present in the agc model",
                          4: "non-finite embedding", 5: "Mahalanobis distance overflows"}
        assert np.all(np.isnan(scores[list(errors)])) and np.all(argmins[list(errors)] == -1)
        good = [i for i in range(10) if i not in errors]
        alone, alone_argmins, alone_errors = score_agc(feats[good], model, sections[good])
        assert alone_errors == {}
        np.testing.assert_allclose(scores[good], alone, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(argmins[good], alone_argmins)
        assert np.all(np.isfinite(scores[good]))

    def test_sections_must_match_the_rows(self):
        model = fit_simple([[0.0, 0.0]], [0], [0])
        with pytest.raises(HmicError, match="sections"):
            score_agc(np.zeros((2, 2)), model, np.zeros(3, int))


class TestScoreDc:
    def test_single_domain_equals_one_group_agc(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(8, 3))
        sections = np.zeros(8, int)
        dc = shrunk_by(fit_dc(feats, np.array(["source"] * 8), sections), 1e-3)
        agc = fit_simple(feats, np.zeros(8, int), sections, shrinkage=1e-3)
        probe = rng.normal(size=3)
        assert score_one(probe, dc, score=score_dc)[0] == pytest.approx(score_one(probe, agc)[0])

    def test_nearer_domain_wins(self):
        feats = np.array([[0.0, 0.0], [0.4, 0.0], [6.0, 6.0], [6.4, 6.0]])
        domains = np.array(["source", "source", "target", "target"])
        dc = shrunk_by(fit_dc(feats, domains, np.zeros(4, int)), 1e-2)
        assert score_one([6.1, 6.0], dc, score=score_dc)[1] == 1  # target index

    def test_identical_domains_tie_to_source(self):
        feats = np.array([[1.0, 1.0], [1.0, 1.0]])
        dc = shrunk_by(fit_dc(feats, np.array(["source", "target"]), np.zeros(2, int)), 1e-2)
        assert score_one([0.0, 0.0], dc, score=score_dc)[1] == 0

    def test_unknown_domain_rejected(self):
        with pytest.raises(HmicError, match=r"^unknown domain 'sideways'$"):
            fit_dc(np.zeros((1, 2)), np.array(["sideways"]), np.zeros(1, int))


class TestTensorRoundTrip:
    def test_centre_model_survives_serialization(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(12, 4))
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
        sections = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
        model = fit_simple(feats, labels, sections)
        tensors = centre_model_to_tensors(model, "agc")
        restored = centre_model_from_tensors(tensors, "agc", "agc")
        probe = rng.normal(size=4)
        for section in (0, 1):
            a_score, a_argmin = score_one(probe, model, section)
            b_score, b_argmin = score_one(probe, restored, section)
            assert b_score == pytest.approx(a_score, rel=1e-12)
            assert b_argmin == a_argmin

    @pytest.mark.parametrize("fault", [
        "missing_stats", "misfit_cov", "not_positive_definite", "non_finite_centre",
        "non_finite_cov", "nan_eps", "zero_eps", "zero_clips",
    ])
    def test_a_damaged_centre_tensor_is_a_scoring_error(self, fault):
        rng = np.random.default_rng(8)
        model = fit_simple(rng.normal(size=(6, 3)), [0, 0, 0, 1, 1, 1], [0] * 6)
        tensors = centre_model_to_tensors(model, "agc")
        if fault == "missing_stats":
            del tensors["agc/0/1/stats"]
        elif fault == "misfit_cov":
            tensors["agc/0/1/cov"] = np.eye(2)
        elif fault == "not_positive_definite":
            tensors["agc/0/1/cov"] = -np.eye(3)
        elif fault == "non_finite_centre":
            tensors["agc/0/1/centre"] = np.array([0.0, np.nan, 0.0])
        elif fault == "non_finite_cov":
            tensors["agc/0/1/cov"] = np.full((3, 3), np.inf)
        else:
            n_clips, eps = {"nan_eps": (3.0, np.nan), "zero_eps": (3.0, 0.0),
                            "zero_clips": (0.0, 1e-3)}[fault]
            tensors["agc/0/1/stats"] = np.array([n_clips, eps])
        with pytest.raises(HmicError, match="agc/0/1"):
            centre_model_from_tensors(tensors, "agc", "agc")


def test_no_hmic_module_imports_scipy():
    # scipy is a test oracle only; importing it costs every process ~24 MB
    code = ("import sys, hmic, hmic.cli, hmic.pipeline, hmic.scoring; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(hmic.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"
