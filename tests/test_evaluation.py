from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmic.evaluation import (
    ScoredClip,
    UndefinedMetricError,
    auc,
    auc_from_scores,
    build_report,
    harmonic_total,
    pauc_from_scores,
    write_report_csv,
)


def clip(score, truth, section=0, domain="source", machine="gizmo", clip_id=None):
    return ScoredClip(
        clip_id=clip_id or f"{machine}-{section}-{domain}-{truth}-{score}",
        machine_type=machine,
        section=section,
        domain=domain,
        truth=truth,
        score=score,
    )


def trapezoid_auc_fraction(normal, anomalous, p=Fraction(1)):
    """Oracle: exact-rational trapezoid of the tie-aware ROC staircase up to FPR p."""
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
        if x0 >= p:
            break
        if x1 <= p:
            area += (x1 - x0) * (y0 + y1) / 2
        else:
            frac = (p - x0) / (x1 - x0)
            y_cut = y0 + frac * (y1 - y0)
            area += (p - x0) * (y0 + y_cut) / 2
            break
    return area / p


score_lists = st.lists(
    st.integers(min_value=0, max_value=12).map(lambda v: v / 4.0), min_size=1, max_size=20
)


class TestAuc:
    def test_hand_case_three_quarters(self):
        # pairs: (1.5>1) yes, (3>1) yes, (1.5>2) no, (3>2) yes -> 3/4
        assert auc_from_scores(np.array([1.0, 2.0]), np.array([1.5, 3.0])) == 0.75

    def test_perfect_separation(self):
        assert auc_from_scores(np.array([0.0, 0.1]), np.array([5.0, 9.0])) == 1.0

    def test_all_ties_give_half(self):
        assert auc_from_scores(np.ones(3), np.ones(4)) == 0.5

    def test_single_class_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc([clip(1.0, "normal")])

    @settings(max_examples=80, deadline=None)
    @given(normal=score_lists, anomalous=score_lists)
    def test_matches_exact_trapezoid_oracle(self, normal, anomalous):
        ours = auc_from_scores(np.array(normal), np.array(anomalous))
        oracle = trapezoid_auc_fraction(normal, anomalous)
        assert ours == float(oracle)

    @settings(max_examples=40, deadline=None)
    @given(normal=score_lists, anomalous=score_lists)
    def test_label_swap_complements(self, normal, anomalous):
        forward = auc_from_scores(np.array(normal), np.array(anomalous))
        swapped = auc_from_scores(np.array(anomalous), np.array(normal))
        assert forward + swapped == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(normal=score_lists, anomalous=score_lists)
    def test_invariant_under_strictly_increasing_transform(self, normal, anomalous):
        def warp(values):
            return np.exp(np.asarray(values) * 0.7) + np.asarray(values) ** 3

        before = auc_from_scores(np.array(normal), np.array(anomalous))
        after = auc_from_scores(warp(normal), warp(anomalous))
        assert before == pytest.approx(after, abs=1e-12)


class TestPauc:
    def test_perfect_separation_for_any_p(self):
        normal = np.array([0.0, 0.2, 0.4])
        anomalous = np.array([2.0, 3.0])
        for p in (0.05, 0.1, 0.5, 1.0):
            assert pauc_from_scores(normal, anomalous, p) == 1.0

    def test_p_one_collapses_to_auc_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            normal = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=rng.integers(1, 12))
            anomalous = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], size=rng.integers(1, 12))
            assert pauc_from_scores(normal, anomalous, 1.0) == auc_from_scores(normal, anomalous)

    def test_four_clip_hand_case_at_half(self):
        # thresholds sweep: TPR is 1/2 across FPR in [0, 1/2]; area 1/4, /p -> 1/2
        normal = np.array([1.0, 2.0])
        anomalous = np.array([1.5, 3.0])
        assert pauc_from_scores(normal, anomalous, 0.5) == 0.5

    @settings(max_examples=80, deadline=None)
    @given(
        normal=score_lists,
        anomalous=score_lists,
        p_num=st.integers(min_value=1, max_value=16),
    )
    def test_matches_exact_trapezoid_oracle(self, normal, anomalous, p_num):
        p = Fraction(p_num, 16)
        ours = pauc_from_scores(np.array(normal), np.array(anomalous), float(p))
        oracle = trapezoid_auc_fraction(normal, anomalous, p)
        assert ours == pytest.approx(float(oracle), abs=1e-12)

    def test_bad_p_rejected(self):
        with pytest.raises(UndefinedMetricError):
            pauc_from_scores(np.array([1.0]), np.array([2.0]), 0.0)
        with pytest.raises(UndefinedMetricError):
            pauc_from_scores(np.array([1.0]), np.array([2.0]), 1.5)


class TestHarmonicTotal:
    def test_equal_cells_return_the_value(self):
        assert harmonic_total([0.7, 0.7, 0.7]) == pytest.approx(0.7)

    def test_hand_case_two_thirds(self):
        assert harmonic_total([0.5, 1.0]) == pytest.approx(2.0 / 3.0)

    def test_zero_cell_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            harmonic_total([0.5, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(
        cells=st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=1, max_size=12
        )
    )
    def test_never_exceeds_arithmetic_mean(self, cells):
        hm = harmonic_total(cells)
        am = sum(cells) / len(cells)
        assert hm <= am + 1e-12

    def test_direct_formula_on_synthetic_report_cells(self):
        cells = [0.9, 0.8, 0.75, 0.6, 0.95, 0.85]
        expected = len(cells) / sum(1.0 / c for c in cells)
        assert harmonic_total(cells) == pytest.approx(expected, rel=1e-12)


class TestBuildReport:
    def make_clips(self):
        clips = []
        for machine in ("gizmo", "widget"):
            for section in (0, 1):
                for domain in ("source", "target"):
                    base = hash((machine, section, domain)) % 7 / 10.0
                    for i in range(4):
                        clips.append(
                            clip(base + 0.1 * i, "normal", section, domain, machine,
                                 f"{machine}{section}{domain}n{i}")
                        )
                    for i in range(3):
                        clips.append(
                            clip(base + 1.0 + 0.1 * i, "anomalous", section, domain, machine,
                                 f"{machine}{section}{domain}a{i}")
                        )
        return clips

    def test_cells_and_totals(self):
        report = build_report(self.make_clips(), pauc_p=0.1)
        assert len(report.cells) == 8  # 2 machines x 2 sections x 2 domains
        assert set(report.machine_totals) == {"gizmo", "widget"}
        aucs = [c.auc for c in report.cells]
        paucs = [c.pauc for c in report.cells]
        assert report.total_auc == pytest.approx(harmonic_total(aucs))
        assert report.total_pauc == pytest.approx(harmonic_total(paucs))
        assert report.total_combined == pytest.approx(harmonic_total(aucs + paucs))

    def test_section_aucs_pool_domains(self):
        clips = self.make_clips()
        report = build_report(clips, pauc_p=0.1)
        own = [c for c in clips if c.machine_type == "gizmo" and c.section == 0]
        expected = auc(own)
        got = [s for s in report.section_aucs if (s.machine_type, s.section) == ("gizmo", 0)]
        assert got[0].auc == pytest.approx(expected)

    def test_single_class_cell_is_error(self):
        clips = [clip(1.0, "normal"), clip(2.0, "anomalous", section=1)]
        with pytest.raises(UndefinedMetricError):
            build_report(clips, pauc_p=0.1)

    def test_a_cell_with_a_zero_metric_is_named(self):
        # 30 clips in 6 cells; in section 2's target cell a normal clip scores
        # highest, so its pAUC at p = 0.1 is 0 while its AUC is 4/6.
        def scores(section, domain):
            if (section, domain) == (2, "target"):
                return {"normal": (0.1, 0.2, 0.5), "anomalous": (0.3, 0.4)}
            return {"normal": (0.1, 0.2, 0.3), "anomalous": (0.8, 0.9)}

        clips = [clip(score, truth, section, domain)
                 for section in (0, 1, 2) for domain in ("source", "target")
                 for truth, values in scores(section, domain).items() for score in values]
        assert len(clips) == 30
        with pytest.raises(UndefinedMetricError) as excinfo:
            build_report(clips, pauc_p=0.1)
        assert str(excinfo.value) == ("gizmo section 2 target: pAUC (p = 0.1) is 0; "
                                      "the harmonic-mean totals are undefined")

    def test_json_and_csv_outputs(self, tmp_path):
        report = build_report(self.make_clips(), pauc_p=0.1)
        data = report.to_dict()
        assert {"cells", "machines", "total", "section_auc", "pauc_p"} <= set(data)
        assert len(data["cells"]) == 8
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "machine_type,section,domain,auc,pauc"
        assert len(lines) == 1 + 8 + 1  # header + cells + total row
