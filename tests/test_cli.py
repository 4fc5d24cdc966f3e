import csv
import json

import numpy as np
import pytest

from hmic.cli import main
from hmic.metadata import read_manifest, write_manifest
from hmic.pipeline import read_scores_csv

from conftest import make_tiny_spec


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_corpus, tiny_config_path):
    """One trained checkpoint shared by the score/eval CLI tests."""
    corpus_root, manifest = tiny_corpus
    workdir = tmp_path_factory.mktemp("trained")
    checkpoint = workdir / "model.hmic"
    code = run_cli(
        "train", "--corpus", corpus_root, "--out", checkpoint,
        "--config", tiny_config_path, "--workdir", workdir,
    )
    assert code == 0
    return corpus_root, manifest, checkpoint, workdir


class TestGenerate:
    def test_writes_corpus_and_manifest(self, tmp_path):
        out = tmp_path / "corpus"
        spec_path = tmp_path / "spec.json"
        from hmic.datagen import spec_to_json

        spec_path.write_text(spec_to_json(make_tiny_spec(seed=3)))
        assert run_cli("generate", "--out", out, "--spec", spec_path) == 0
        entries = read_manifest(out / "manifest.csv")
        assert entries
        assert (out / entries[0].path).exists()
        assert (out / "synth_spec.json").exists()

    @pytest.mark.parametrize("fault", ["missing_key", "unknown_nested_key", "missing_file"])
    def test_bad_spec_is_one_line_error(self, tmp_path, capsys, fault):
        from hmic.datagen import spec_to_json

        spec_path = tmp_path / "spec.json"
        data = json.loads(spec_to_json(make_tiny_spec()))
        if fault == "missing_key":
            del data["machines"]
        elif fault == "unknown_nested_key":
            data["anomaly"]["detune_cent"] = 10.0
        if fault != "missing_file":
            spec_path.write_text(json.dumps(data))
        assert run_cli("generate", "--out", tmp_path / "corpus", "--spec", spec_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_preset_generate(self, tmp_path):
        # presets are full-size; just check the spec echo parses and has 3 sections
        from hmic.datagen import PRESETS

        spec = PRESETS["default"](1)
        assert len(spec.machines[0].sections) == 3


class TestTrain:
    def test_checkpoint_and_log_written(self, trained):
        corpus_root, _, checkpoint, workdir = trained
        assert checkpoint.exists()
        log = workdir / "train_log_gizmo.csv"
        assert log.read_text().startswith("epoch,loss_id,loss_ag,loss_total,lr")

    def test_missing_manifest_is_config_error(self, tmp_path, tiny_config_path):
        code = run_cli(
            "train", "--corpus", tmp_path, "--out", tmp_path / "m.hmic",
            "--config", tiny_config_path,
        )
        assert code == 2


class TestScore:
    def test_scores_every_test_clip(self, trained, tmp_path, tiny_config_path):
        corpus_root, manifest, checkpoint, _ = trained
        out = tmp_path / "scores.csv"
        code = run_cli(
            "score", "--checkpoint", checkpoint, "--manifest", manifest,
            "--out", out, "--config", tiny_config_path,
        )
        assert code == 0
        scores = read_scores_csv(out)
        test_ids = {e.meta.clip_id for e in read_manifest(manifest) if e.meta.split == "test"}
        assert set(scores) == test_ids
        assert all(np.isfinite(v) and v >= 0 for v in scores.values())

    def test_digest_mismatch_aborts(self, trained, tmp_path, capsys):
        corpus_root, manifest, checkpoint, _ = trained
        code = run_cli(
            "score", "--checkpoint", checkpoint, "--manifest", manifest,
            "--out", tmp_path / "scores.csv", "--seed", "999",
        )
        assert code == 2
        assert "digest" in capsys.readouterr().err

    def test_unknown_section_writes_error_row_and_fails(self, trained, tmp_path,
                                                        tiny_config_path):
        corpus_root, manifest, checkpoint, _ = trained
        entries = read_manifest(manifest)
        broken = []
        victim = None
        from dataclasses import replace

        for entry in entries:
            if victim is None and entry.meta.split == "test":
                victim = replace(entry, meta=replace(entry.meta, section_id=9))
                broken.append(victim)
            else:
                broken.append(entry)
        bad_manifest = corpus_root / "manifest_bad.csv"
        write_manifest(broken, bad_manifest)
        out = tmp_path / "scores.csv"
        code = run_cli(
            "score", "--checkpoint", checkpoint, "--manifest", bad_manifest,
            "--out", out, "--config", tiny_config_path,
        )
        assert code == 1
        with out.open() as handle:
            rows = {r["clip_id"]: r for r in csv.DictReader(handle)}
        assert rows[victim.meta.clip_id]["score"] == ""
        others = [r for cid, r in rows.items() if cid != victim.meta.clip_id]
        assert all(r["score"] != "" for r in others)

    def test_train_clips_score_near_zero_against_own_group(self, trained, tmp_path,
                                                           tiny_config_path):
        # score the training clips themselves: they must sit far below the
        # anomalous test clips (run-derived percentile check)
        corpus_root, manifest, checkpoint, _ = trained
        entries = read_manifest(manifest)
        from dataclasses import replace

        as_test = [
            replace(e, meta=replace(e.meta, split="test"))
            if e.meta.split == "train"
            else e
            for e in entries
        ]
        all_test = corpus_root / "manifest_alltest.csv"
        write_manifest(as_test, all_test)
        out = tmp_path / "scores.csv"
        assert run_cli(
            "score", "--checkpoint", checkpoint, "--manifest", all_test,
            "--out", out, "--config", tiny_config_path,
        ) == 0
        scores = read_scores_csv(out)
        by_id = {e.meta.clip_id: e.meta for e in entries}
        train_scores = [v for k, v in scores.items() if by_id[k].split == "train"]
        anom_scores = [
            v for k, v in scores.items()
            if by_id[k].split == "test" and by_id[k].condition == "anomalous"
        ]
        assert np.median(train_scores) < np.percentile(anom_scores, 10)


class TestEval:
    @pytest.fixture()
    def scores_csv(self, trained, tmp_path, tiny_config_path):
        corpus_root, manifest, checkpoint, _ = trained
        out = tmp_path / "scores.csv"
        assert run_cli(
            "score", "--checkpoint", checkpoint, "--manifest", manifest,
            "--out", out, "--config", tiny_config_path,
        ) == 0
        return manifest, out

    def test_report_written(self, scores_csv, tmp_path):
        manifest, scores = scores_csv
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code = run_cli(
            "eval", "--scores", scores, "--manifest", manifest,
            "--out", report_path, "--csv", csv_path,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["cells"]) == 4  # 2 sections x 2 domains
        assert 0 < report["total"]["combined"] <= 1
        assert csv_path.exists()

    def test_malformed_scores_row_is_rejected(self, scores_csv, tmp_path):
        manifest, scores = scores_csv
        mangled = tmp_path / "mangled.csv"
        lines = scores.read_text().splitlines()
        lines[1] = lines[1] + ",extra"
        mangled.write_text("\n".join(lines) + "\n")
        code = run_cli("eval", "--scores", mangled, "--manifest", manifest,
                       "--out", tmp_path / "r.json")
        assert code == 2

    def test_pauc_p_one_collapses_to_auc(self, scores_csv, tmp_path):
        manifest, scores = scores_csv
        report_path = tmp_path / "report.json"
        assert run_cli(
            "eval", "--scores", scores, "--manifest", manifest,
            "--out", report_path, "--pauc-p", "1.0",
        ) == 0
        report = json.loads(report_path.read_text())
        for cell in report["cells"]:
            assert cell["pauc"] == cell["auc"]

    def test_report_cells_match_independent_recompute(self, scores_csv, tmp_path):
        # oracle: rebuild every cell AUC from the raw CSVs with a direct
        # pair-count, bypassing the report code
        manifest, scores = scores_csv
        report_path = tmp_path / "report.json"
        assert run_cli(
            "eval", "--scores", scores, "--manifest", manifest, "--out", report_path
        ) == 0
        report = json.loads(report_path.read_text())
        metas = {e.meta.clip_id: e.meta for e in read_manifest(manifest)}
        values = read_scores_csv(scores)
        for cell in report["cells"]:
            normal, anomalous = [], []
            for clip_id, score in values.items():
                meta = metas[clip_id]
                if (meta.section_id, meta.domain) != (cell["section"], cell["domain"]):
                    continue
                (anomalous if meta.condition == "anomalous" else normal).append(score)
            pairs = sum(
                1.0 if a > n else 0.5 if a == n else 0.0 for a in anomalous for n in normal
            )
            assert cell["auc"] == pytest.approx(pairs / (len(anomalous) * len(normal)))


class TestCacheAndJobs:
    def test_cache_dir_env_var_is_honoured(self, trained, tmp_path, tiny_config_path,
                                           monkeypatch):
        corpus_root, manifest, checkpoint, _ = trained
        cache_root = tmp_path / "cache_home"
        monkeypatch.setenv("HMIC_CACHE_DIR", str(cache_root))
        assert run_cli(
            "score", "--checkpoint", checkpoint, "--manifest", manifest,
            "--out", tmp_path / "scores.csv", "--config", tiny_config_path,
        ) == 0
        assert list(cache_root.rglob("*.feat"))

    def test_parallel_jobs_do_not_change_scores(self, trained, tmp_path, tiny_config_path):
        corpus_root, manifest, checkpoint, _ = trained
        outputs = []
        for jobs in ("1", "3"):
            out = tmp_path / f"scores_j{jobs}.csv"
            assert run_cli(
                "score", "--checkpoint", checkpoint, "--manifest", manifest,
                "--out", out, "--config", tiny_config_path, "--jobs", jobs,
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestPipelineCommand:
    def test_end_to_end_tiny(self, tmp_path, tiny_config_path):
        workdir = tmp_path / "run"
        spec_path = tmp_path / "spec.json"
        from hmic.datagen import spec_to_json

        spec_path.write_text(spec_to_json(make_tiny_spec(seed=5)))
        code = run_cli(
            "pipeline", "--workdir", workdir, "--spec", spec_path,
            "--config", tiny_config_path,
        )
        assert code == 0
        assert (workdir / "model.hmic").exists()
        assert (workdir / "scores_agc.csv").exists()
        report = json.loads((workdir / "report_agc.json").read_text())
        assert report["total"]["combined"] > 0

    def test_agc_and_dc_argmin_columns_differ(self, tmp_path, tiny_config_path, trained):
        corpus_root, manifest, checkpoint, _ = trained
        agc_csv = tmp_path / "agc.csv"
        dc_csv = tmp_path / "dc.csv"
        for mode, path in (("agc", agc_csv), ("dc", dc_csv)):
            assert run_cli(
                "score", "--checkpoint", checkpoint, "--manifest", manifest,
                "--out", path, "--config", tiny_config_path, "--scoring", mode,
            ) == 0

        def argmins(path):
            with path.open() as handle:
                return {r["clip_id"]: int(r["argmin_group"]) for r in csv.DictReader(handle)}

        agc_groups = set(argmins(agc_csv).values())
        dc_groups = set(argmins(dc_csv).values())
        assert dc_groups <= {0, 1}  # domain indices only
        assert max(agc_groups) > 1  # attribute-group labels span further
