import csv
import errno
import hashlib
import json
import math
import shutil
import tracemalloc
import wave as wave_module
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hmic import dsp, model, pipeline, scoring
from hmic.checkpoint import from_dict, load_checkpoint, save_checkpoint, to_dict
from hmic.cli import main
from hmic.config import ConfigError, load_run_config, save_run_config
from hmic.datagen import generate, load_spec, spec_to_json
from hmic.metadata import (LabelSpace, ManifestError, build_label_space, read_manifest,
                           write_manifest)
from hmic.pipeline import PipelineError, extract_features, read_scores_csv, run_train

from conftest import make_tiny_config, make_tiny_spec


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


def _absolute_paths(entries, corpus_root):
    """Entries whose clips resolve from a manifest written outside the corpus."""
    return [replace(e, path=str(corpus_root / e.path)) for e in entries]


@pytest.fixture()
def log_mel_calls(monkeypatch):
    """A list that gains one item per ``dsp.log_mel`` call, i.e. per cache miss."""
    calls = []
    real = dsp.log_mel

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dsp, "log_mel", counting)
    return calls


def _first_section(data, index=0):
    return data["machines"][0]["sections"][index]


def _first_attribute(data):
    return _first_section(data)["attributes"][0]


NAN = float("nan")
# fault -> how it breaks the JSON of make_tiny_spec (one machine, sections 0
# and 1, one attribute "spd" with values A and B)
BAD_SPECS = {
    "missing_key": lambda d: d.pop("machines"),
    "unknown_nested_key": lambda d: d["anomaly"].update(detune_cent=10.0),
    "wrong_leaf_type": lambda d: d.update(clip_seconds="0.5"),
    "zero_clip_seconds": lambda d: d.update(clip_seconds=0),
    "negative_clip_seconds": lambda d: d.update(clip_seconds=-1),
    "nan_clip_seconds": lambda d: d.update(clip_seconds=NAN),
    "clip_no_longer_than_a_click": lambda d: d.update(clip_seconds=0.002),
    "clip_seconds_past_bound": lambda d: d.update(clip_seconds=61),
    "negative_section_id": lambda d: _first_section(d).update(section_id=-1),
    "duplicate_attribute_name": lambda d: _first_section(d)["attributes"].append(
        _first_attribute(d)),
    "duplicate_machine_name": lambda d: d["machines"].append(d["machines"][0]),
    "duplicate_section_id": lambda d: _first_section(d, 1).update(section_id=0),
    "machine_without_sections": lambda d: d["machines"].append(
        {"name": "idle", "sections": []}),
    "slash_in_machine_name": lambda d: d["machines"][0].update(name="giz/mo"),
    "parent_dir_machine_name": lambda d: d["machines"][0].update(name=".."),
    "nan_tone": lambda d: _first_attribute(d)["tones_hz"].update(A=[NAN]),
    "nan_tone_jitter": lambda d: d.update(tone_jitter_cents=NAN),
    "int_tone_past_float_range": lambda d: _first_attribute(d)["tones_hz"].update(A=[10**400]),
    "negative_seed": lambda d: d.update(seed=-1),
    "huge_detune": lambda d: d["anomaly"].update(detune_cents=1e300),
    "huge_click_rate": lambda d: d["anomaly"].update(clicks_per_second=1e300),
    # a jitter of up to 10 x 600 cents, five octaves, can lift the 600 Hz tone
    # far above Nyquist
    "negative_jitter_scale": lambda d: _first_attribute(d).update(
        jitter_scale_by_value={"A": -600.0}),
    "no_source_values": lambda d: _first_attribute(d).update(source_values=[]),
    "slash_in_attribute_value": lambda d: _first_attribute(d).update(
        source_values=["A", "x/y"], tones_hz={"A": [600.0], "x/y": [700.0]}),
    "separator_in_attribute_value": lambda d: _first_attribute(d).update(
        source_values=["A", "x=y"], tones_hz={"A": [600.0], "x=y": [700.0]}),
}


class TestGenerate:
    def test_writes_corpus_and_manifest(self, tmp_path):
        out = tmp_path / "corpus"
        spec_path = tmp_path / "spec.json"
        spec = make_tiny_spec(seed=3)
        spec_path.write_text(spec_to_json(spec))
        assert run_cli("generate", "--out", out, "--spec", spec_path) == 0
        entries = read_manifest(out / "manifest.csv")
        assert entries
        assert (out / entries[0].path).exists()
        assert load_spec(out / "synth_spec.json") == spec
        # the echo regenerates the same corpus, byte for byte
        again = tmp_path / "again"
        assert run_cli("generate", "--out", again, "--spec", out / "synth_spec.json") == 0
        files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert files == sorted(str(p.relative_to(again)) for p in again.rglob("*") if p.is_file())
        assert all((out / f).read_bytes() == (again / f).read_bytes() for f in files)

    @pytest.mark.parametrize("fault", [*BAD_SPECS, "missing_file"])
    def test_bad_spec_is_one_line_error(self, tmp_path, capsys, fault):
        spec_path = tmp_path / "spec.json"
        data = json.loads(spec_to_json(make_tiny_spec()))
        if fault != "missing_file":
            BAD_SPECS[fault](data)
            spec_path.write_text(json.dumps(data))
        assert run_cli("generate", "--out", tmp_path / "corpus", "--spec", spec_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("dotted_key, value", [
        ("sample_rate_hz", 16000),
        ("tone_amp", 0.07),
        ("am_depth", 0.5),
        ("anomaly.detune_attr", None),
        ("anomaly.ghost_attr", None),
        ("anomaly.ghost_amp", 0.0),
        ("noise_amp_source", 0.004),
    ])
    def test_a_removed_spec_key_is_refused_by_name(self, tmp_path, capsys, dotted_key, value):
        # the corpus always renders at the front end's rate with fixed tone
        # amplitude, AM depth and source noise floor, and an anomaly detunes
        # every tone: an echo written before those settings went names the key
        # to delete
        data = json.loads(spec_to_json(make_tiny_spec()))
        *parents, key = dotted_key.split(".")
        node = data
        for name in parents:
            node = node[name]
        node[key] = value
        spec_path = tmp_path / "old_spec.json"
        spec_path.write_text(json.dumps(data))
        assert run_cli("generate", "--out", tmp_path / "corpus", "--spec", spec_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err
        del node[key]
        spec_path.write_text(json.dumps(data))
        assert load_spec(spec_path) == make_tiny_spec()

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

    @pytest.mark.parametrize("section,field,value", [
        ("train", "batch_size", 0),  # removed, as are the settings from shrinkage_rel on
        ("train", "batch_size", -8),
        ("train", "epochs", -1),
        ("model", "channels", [0, 8, 16]),
        ("model", "head_channels", 0),
        # settings that no longer exist: an old config naming one is refused
        (None, "shrinkage_rel", -1e-3),
        (None, "ablation", "domain_only"),
        (None, "covariance_mode", "per_group"),
        (None, "shrinkage", 0.1),
        ("model", "id_loss_weight_by_machine", {"gizmo": 1.0}),
        (None, "dsp", {"n_mels": 64}),
        ("train", "beta1", 0.9),
        ("train", "batch_size", 32),
        ("train", "learning_rate", 1e-4),
    ])
    def test_out_of_range_config_fails_before_training(self, tiny_corpus, tmp_path, capsys,
                                                       section, field, value):
        config = to_dict(make_tiny_config())
        (config[section] if section else config)[field] = value
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        workdir = tmp_path / "run"
        code = run_cli("train", "--corpus", tiny_corpus[0], "--out", workdir / "model.hmic",
                       "--workdir", workdir, "--config", config_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err
        assert not workdir.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_negative_seed_fails_before_the_manifest_is_read(
            self, tiny_corpus, tmp_path, capsys, source):
        config = to_dict(make_tiny_config())
        if source == "config":
            config["train"]["seed"] = -3
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        workdir = tmp_path / "run"
        seed = ("--seed", -1) if source == "flag" else ()
        code = run_cli("train", "--corpus", tiny_corpus[0], "--out", workdir / "model.hmic",
                       "--workdir", workdir, "--config", config_path, *seed)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed must be >= 0" in err
        assert (f"bad config {config_path}" in err) == (source == "config")
        assert not (workdir / "feature_cache").exists() and not workdir.exists()

    def test_a_train_clip_of_unknown_domain_is_refused_before_training(
            self, tiny_corpus, tmp_path, tiny_config_path, capsys, log_mel_calls):
        corpus_root, manifest = tiny_corpus
        entries = _absolute_paths(read_manifest(manifest), corpus_root)
        victim = next(e for e in entries if e.meta.split == "train")
        (tmp_path / "corpus").mkdir()
        write_manifest([replace(e, meta=replace(e.meta, domain="unknown")) if e is victim else e
                        for e in entries], tmp_path / "corpus" / "manifest.csv")
        workdir = tmp_path / "run"
        code = run_cli("train", "--corpus", tmp_path / "corpus", "--out", workdir / "model.hmic",
                       "--workdir", workdir, "--config", tiny_config_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(victim.meta.clip_id) in err and "'unknown'" in err
        assert log_mel_calls == [] and list(workdir.iterdir()) == []

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--scoring", "dc"),
        ("train", "--pauc-p", "0.2"),
        ("score", "--pauc-p", "0.2"),
    ])
    def test_a_flag_the_command_does_not_read_is_refused(self, tmp_path, capsys, command,
                                                          flag, value):
        paths = {"train": ["--corpus", tmp_path, "--out", tmp_path / "m.hmic"],
                 "score": ["--checkpoint", tmp_path / "m.hmic", "--manifest",
                           tmp_path / "manifest.csv", "--out", tmp_path / "scores.csv"]}
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, *paths[command], flag, value)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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
        entries = _absolute_paths(read_manifest(manifest), corpus_root)
        broken = []
        victim = None
        for entry in entries:
            if victim is None and entry.meta.split == "test":
                victim = replace(entry, meta=replace(entry.meta, section_id=9))
                broken.append(victim)
            else:
                broken.append(entry)
        bad_manifest = tmp_path / "manifest_bad.csv"
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

    def test_a_clip_of_a_new_section_is_the_one_blank_row(self, trained, tmp_path,
                                                          tiny_config_path, capsys):
        # the README's promise: a clip whose section the centres lack gets a
        # blank row and one error line, and every other clip scores as before
        corpus_root, manifest, checkpoint, _ = trained
        entries = _absolute_paths(read_manifest(manifest), corpus_root)
        first = next(e for e in entries if e.meta.split == "test")
        stranger = replace(first, meta=replace(first.meta, clip_id="stranger", section_id=9))
        write_manifest(entries, tmp_path / "clean.csv")
        write_manifest(entries + [stranger], tmp_path / "stranger.csv")

        def score(name):
            code = run_cli("score", "--checkpoint", checkpoint, "--manifest", tmp_path / name,
                           "--out", tmp_path / f"scores_{name}", "--config", tiny_config_path)
            with (tmp_path / f"scores_{name}").open() as handle:
                return code, {r["clip_id"]: r for r in csv.DictReader(handle)}

        code, clean = score("clean.csv")
        assert code == 0
        capsys.readouterr()
        code, rows = score("stranger.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: stranger: section 9 not present in the agc model\n"
        assert rows.pop("stranger") == {"clip_id": "stranger", "section": "9", "score": "",
                                         "argmin_group": ""}
        assert rows.keys() == clean.keys()
        for clip_id, row in rows.items():
            old = float(clean[clip_id]["score"])
            last_digit = 10.0 ** (math.floor(math.log10(old)) - 11)  # of the CSV's 12 digits
            assert abs(float(row["score"]) - old) <= last_digit
            assert row["argmin_group"] == clean[clip_id]["argmin_group"]

    def test_train_clips_score_near_zero_against_own_group(self, trained, tmp_path,
                                                           tiny_config_path):
        # score the training clips themselves: they must sit far below the
        # anomalous test clips (run-derived percentile check)
        corpus_root, manifest, checkpoint, _ = trained
        entries = _absolute_paths(read_manifest(manifest), corpus_root)
        as_test = [
            replace(e, meta=replace(e.meta, split="test"))
            if e.meta.split == "train"
            else e
            for e in entries
        ]
        all_test = tmp_path / "manifest_alltest.csv"
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

    @pytest.mark.parametrize("fault", ["every_other_clip", "duplicate_row", "bad_number",
                                       "nan", "inf", "-inf", "train_clip"])
    def test_scores_must_cover_each_test_clip_once(self, scores_csv, tmp_path, capsys,
                                                   fault):
        manifest, scores = scores_csv
        header, *rows = scores.read_text().splitlines()
        if fault == "every_other_clip":
            rows = rows[::2]
        elif fault == "duplicate_row":
            rows = rows + rows[:1]
        elif fault == "train_clip":
            train = next(e.meta for e in read_manifest(manifest) if e.meta.split == "train")
            rows = rows + [f"{train.clip_id},{train.section_id},0.5,0"]
        else:
            clip_id, section, _, argmin = rows[0].split(",")
            score = "high" if fault == "bad_number" else fault
            rows[0] = f"{clip_id},{section},{score},{argmin}"
        mangled = tmp_path / "mangled.csv"
        mangled.write_text("\n".join([header, *rows]) + "\n")
        report_path = tmp_path / "r.json"
        code = run_cli("eval", "--scores", mangled, "--manifest", manifest,
                       "--out", report_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not report_path.exists()
        if fault == "train_clip":
            assert f"scored clip {train.clip_id!r} is a train clip" in err
        elif fault not in ("every_other_clip", "duplicate_row"):
            assert f"{mangled}:2: score '{score}' is not" in err

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

    @pytest.mark.parametrize("config_p,flag_p,want", [
        (None, None, 0.1), (0.5, None, 0.5), (0.5, "0.2", 0.2), (None, "0.3", 0.3)])
    def test_pauc_p_comes_from_the_flag_else_the_config(self, scores_csv, tmp_path, config_p,
                                                         flag_p, want):
        manifest, scores = scores_csv
        args = ["eval", "--scores", scores, "--manifest", manifest,
                "--out", tmp_path / "report.json"]
        if config_p is not None:
            config_path = tmp_path / "run.json"
            save_run_config(replace(make_tiny_config(), pauc_p=config_p), config_path)
            args += ["--config", config_path]
        if flag_p is not None:
            args += ["--pauc-p", flag_p]
        assert run_cli(*args) == 0
        assert json.loads((tmp_path / "report.json").read_text())["pauc_p"] == want

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

    @pytest.mark.parametrize("fault", ["truncated", "garbage"])
    def test_corrupt_cache_entry_is_re_extracted(self, trained, tmp_path, tiny_config_path,
                                                 fault):
        corpus_root, manifest, checkpoint, _ = trained

        def score(name):
            out = tmp_path / f"scores_{name}.csv"
            assert run_cli(
                "score", "--checkpoint", checkpoint, "--manifest", manifest,
                "--out", out, "--config", tiny_config_path,
            ) == 0
            return out.read_bytes()

        clean = score("clean")
        entry = sorted((tmp_path / "feature_cache").rglob("*.feat"))[0]
        intact = entry.read_bytes()
        entry.write_bytes(intact[:-8] if fault == "truncated" else b"NOTAFEAT" + intact[8:])
        assert score("again") == clean
        assert entry.read_bytes() == intact

    def test_parallel_jobs_do_not_change_scores(self, trained, tmp_path, tiny_config_path,
                                                monkeypatch, log_mel_calls):
        corpus_root, manifest, checkpoint, _ = trained
        n_test = sum(e.meta.split == "test" for e in read_manifest(manifest))
        outputs, caches = [], []
        for jobs in ("1", "3"):
            cache = tmp_path / f"cache_j{jobs}"  # each run extracts into its own cache
            monkeypatch.setenv("HMIC_CACHE_DIR", str(cache))
            log_mel_calls.clear()
            out = tmp_path / f"scores_j{jobs}.csv"
            assert run_cli(
                "score", "--checkpoint", checkpoint, "--manifest", manifest,
                "--out", out, "--config", tiny_config_path, "--jobs", jobs,
            ) == 0
            assert len(log_mel_calls) == n_test
            outputs.append(out.read_bytes())
            caches.append({p.relative_to(cache): p.read_bytes() for p in cache.rglob("*.feat")})
        assert outputs[0] == outputs[1]
        assert len(caches[0]) == n_test and caches[0] == caches[1]


class TestFeatureCacheKey:
    """An entry is keyed by what a log-Mel depends on: the WAV bytes."""

    def test_corpora_sharing_clip_ids_get_their_own_features(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HMIC_CACHE_DIR", str(tmp_path / "shared_cache"))
        clip_ids = []
        for seed in (7, 8):
            root = tmp_path / f"corpus_{seed}"
            entries = read_manifest(generate(make_tiny_spec(seed=seed), root))
            clip_ids.append([e.meta.clip_id for e in entries])
            cache_dir = pipeline._cache_dir(tmp_path / f"work_{seed}")
            features = extract_features(entries, root, cache_dir, map)
            for entry, (digest, values) in zip(entries, features, strict=True):
                data = (root / entry.path).read_bytes()
                fresh = dsp.log_mel(dsp.read_wav_mono(data, entry.path))
                np.testing.assert_array_equal(values, fresh.astype(np.float32))
                assert digest == hashlib.sha256(data).hexdigest()
        assert clip_ids[0] == clip_ids[1]

    def test_settings_past_the_front_end_reuse_every_entry(self, tiny_corpus, tmp_path,
                                                           log_mel_calls):
        corpus_root, _ = tiny_corpus
        base = make_tiny_config()
        base = replace(base, train=replace(base.train, epochs=1))
        run_train(base, corpus_root, tmp_path / "base.hmic", tmp_path)
        assert log_mel_calls
        variants = (
            base.with_overrides(seed=8),
            replace(base, model=replace(base.model, id_loss_weight=0.25)),
        )
        log_mel_calls.clear()
        for i, config in enumerate(variants):
            run_train(config, corpus_root, tmp_path / f"variant{i}.hmic", tmp_path)
        assert log_mel_calls == []


@pytest.fixture()
def forward_clips(monkeypatch):
    """A list that gains each ``pipeline.forward_features`` call's clip count."""
    calls = []
    real = pipeline.forward_features

    def counting(params, x):
        calls.append(len(x))
        return real(params, x)

    monkeypatch.setattr(pipeline, "forward_features", counting)
    return calls


def _score(config, checkpoint, manifest, workdir, mode="agc"):
    """Score bytes of one run_score into ``workdir``, whose cache it uses."""
    out = workdir / f"scores_{mode}.csv"
    outcome = pipeline.run_score(config.with_overrides(scoring_mode=mode), checkpoint,
                                 manifest, out, workdir)
    assert not outcome.errors
    return out.read_bytes()


class TestEmbeddingCache:
    """Scoring caches each clip's embedding, keyed by its WAV and what the
    forward adds: the machine's parameters."""

    @pytest.mark.parametrize("first,second", [("agc", "dc"), ("dc", "agc")])
    def test_second_mode_matches_an_empty_cache(self, trained, tmp_path, first, second):
        _, manifest, checkpoint, _ = trained
        config = make_tiny_config()
        shared = tmp_path / "shared"
        _score(config, checkpoint, manifest, shared, first)
        assert list((shared / "feature_cache").rglob("*.emb"))
        assert _score(config, checkpoint, manifest, shared, second) == _score(
            config, checkpoint, manifest, tmp_path / "fresh", second)

    def test_second_score_runs_no_forward_but_loads_every_feature(
            self, trained, tmp_path, monkeypatch, forward_clips):
        _, manifest, checkpoint, _ = trained
        n_test = sum(e.meta.split == "test" for e in read_manifest(manifest))
        config = make_tiny_config()
        _score(config, checkpoint, manifest, tmp_path, "agc")
        assert sum(forward_clips) == n_test
        loads = []
        real = dsp.load_features
        monkeypatch.setattr(dsp, "load_features", lambda path: loads.append(1) or real(path))
        forward_clips.clear()
        _score(config, checkpoint, manifest, tmp_path, "dc")
        assert forward_clips == []
        assert len(loads) == n_test  # features still load eagerly on a full hit

    def test_checkpoints_of_other_seeds_share_a_cache_dir(self, trained, tmp_path,
                                                          monkeypatch):
        corpus_root, manifest, checkpoint, _ = trained
        base = make_tiny_config()
        other = base.with_overrides(seed=8)
        other_checkpoint = tmp_path / "seed8.hmic"
        run_train(other, corpus_root, other_checkpoint, tmp_path / "train8")
        runs = ((base, checkpoint), (other, other_checkpoint))
        alone = []
        for i, (config, path) in enumerate(runs):
            monkeypatch.setenv("HMIC_CACHE_DIR", str(tmp_path / f"own_cache{i}"))
            alone.append(_score(config, path, manifest, tmp_path / f"own{i}"))
        monkeypatch.setenv("HMIC_CACHE_DIR", str(tmp_path / "shared_cache"))
        shared = [_score(config, path, manifest, tmp_path / f"shared{i}")
                  for i, (config, path) in enumerate(runs)]
        assert shared == alone and alone[0] != alone[1]
        assert len(list((tmp_path / "shared_cache").rglob("*.emb"))) == 2  # one per checkpoint

    def test_only_clips_without_a_row_run_the_forward(self, trained, tmp_path,
                                                      forward_clips):
        corpus_root, manifest, checkpoint, _ = trained
        config = make_tiny_config()
        entries = _absolute_paths(read_manifest(manifest), corpus_root)
        test = [e for e in entries if e.meta.split == "test"]
        half = tmp_path / "half" / "manifest.csv"
        half.parent.mkdir()
        write_manifest([e for e in entries if e not in test[::2]], half)
        _score(config, checkpoint, half, tmp_path / "shared")
        forward_clips.clear()
        assert _score(config, checkpoint, manifest, tmp_path / "shared") == _score(
            config, checkpoint, manifest, tmp_path / "fresh")
        assert forward_clips == [len(test[::2]), len(test)]  # shared, then fresh

    @pytest.mark.parametrize("fault", ["truncated", "garbage"])
    def test_corrupt_entry_is_recomputed_and_rewritten(self, trained, tmp_path, fault,
                                                       forward_clips):
        _, manifest, checkpoint, _ = trained
        n_test = sum(e.meta.split == "test" for e in read_manifest(manifest))
        config = make_tiny_config()
        clean = _score(config, checkpoint, manifest, tmp_path)
        (entry,) = (tmp_path / "feature_cache").rglob("*.emb")
        intact = entry.read_bytes()
        entry.write_bytes(intact[:-8] if fault == "truncated" else b"NOTANEMB" + intact[8:])
        forward_clips.clear()
        assert _score(config, checkpoint, manifest, tmp_path) == clean
        assert forward_clips == [n_test]  # a corrupt file holds no rows
        assert entry.read_bytes() == intact

    def test_a_file_under_another_keys_name_is_a_miss(self, trained, tmp_path):
        # Each .emb is a checkpoint-format file whose header digest is its
        # forward key: a file copied over another key's name holds no rows
        # for that key, and the rewrite leaves it under its own key.
        corpus_root, manifest, checkpoint, _ = trained
        other = make_tiny_config().with_overrides(seed=8)
        other_checkpoint = tmp_path / "seed8.hmic"
        run_train(other, corpus_root, other_checkpoint, tmp_path / "train8")
        fresh = _score(other, other_checkpoint, manifest, tmp_path / "fresh")
        (own,) = (tmp_path / "fresh" / "feature_cache").glob("*.emb")
        _score(make_tiny_config(), checkpoint, manifest, tmp_path / "shared")
        (foreign,) = (tmp_path / "shared" / "feature_cache").glob("*.emb")
        shutil.copyfile(foreign, foreign.with_name(own.name))
        assert _score(other, other_checkpoint, manifest, tmp_path / "shared") == fresh
        assert foreign.with_name(own.name).read_bytes() == own.read_bytes()
        for emb in (tmp_path / "shared" / "feature_cache").glob("*.emb"):
            assert load_checkpoint(emb)[2] == emb.stem


def _doubled_test_set(spec):
    """``spec`` with twice the test clips in every section."""
    def doubled(counts):
        return replace(counts, **{f: 2 * getattr(counts, f) for f in (
            "test_normal_source", "test_anomalous_source", "test_normal_target",
            "test_anomalous_target")})
    return replace(spec, machines=tuple(
        replace(m, sections=tuple(replace(sec, counts=doubled(sec.counts)) for sec in m.sections))
        for m in spec.machines))


class TestScoringMemory:
    def test_scoring_holds_one_chunk_of_model_input(self, trained, tmp_path, forward_clips):
        # 28 test clips at 128x313 in 2-clip chunks peak near 5 MB: about two
        # chunks of log-Mels plus one chunk's input and forward. Stacking every
        # missed clip's float64 input first peaked at 22 MB.
        _, _, checkpoint, _ = trained
        corpus = tmp_path / "corpus"
        manifest = generate(replace(make_tiny_spec(), clip_seconds=10.0), corpus)
        n_test = sum(e.meta.split == "test" for e in read_manifest(manifest))
        out = tmp_path / "scores.csv"
        tracemalloc.start()
        try:
            outcome = pipeline.run_score(make_tiny_config(), checkpoint, manifest, out, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not outcome.errors
        assert peak < 17e6, f"peak {peak / 1e6:.1f} MB"
        first = model._chunks(n_test, dsp.N_MELS, 313)[0]
        assert sum(forward_clips) == n_test
        assert max(forward_clips) == first.stop < n_test  # one chunk per call

    def test_scoring_memory_does_not_grow_with_the_test_set(self, trained, tmp_path):
        # A machine's clips are read, transformed and embedded one model chunk
        # at a time, so 28 more 10 s clips (4.5 MB of float32 log-Mels) leave
        # the peak where it was. Holding every clip's log-Mel until the first
        # forward peaked at 9.2 and 13.7 MB.
        _, _, checkpoint, _ = trained
        spec = replace(make_tiny_spec(), clip_seconds=10.0)
        peaks = []
        for name, sized in (("single", spec), ("double", _doubled_test_set(spec))):
            manifest = generate(sized, tmp_path / name / "corpus")
            out = tmp_path / name / "scores.csv"
            tracemalloc.start()
            try:
                outcome = pipeline.run_score(make_tiny_config(), checkpoint, manifest, out,
                                             tmp_path / name)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert not outcome.errors
            peaks.append(peak)
        assert len(read_scores_csv(out)) == 56
        assert abs(peaks[1] - peaks[0]) < 1e6, [f"{peak / 1e6:.2f} MB" for peak in peaks]


class TestTracedScoring:
    def test_bench_hooks_see_one_score_per_machine_and_one_solve_per_group(
            self, trained, tmp_path, monkeypatch):
        # bench/run.py --trace 1 exits when scoring.score or scoring.mahalanobis
        # records no call; this keeps a rename or an un-batching from reaching it
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import layers
        import spans

        _, manifest, checkpoint, _ = trained
        recorder = spans.Recorder()
        with spans.installed(recorder, layers.hooks()):
            outcome = pipeline.run_score(make_tiny_config(), checkpoint, manifest,
                                         tmp_path / "scores.csv", tmp_path)
        assert not outcome.errors
        calls = {name: t.calls for name, t in spans.totals_by_name(recorder.spans).items()}
        tested = {(e.meta.machine_type, e.meta.section_id)
                  for e in read_manifest(manifest) if e.meta.split == "test"}
        tensors, _, _ = load_checkpoint(checkpoint)
        centres = {machine: scoring.centre_model_from_tensors(tensors, f"{machine}/agc", "agc")
                   for machine, _ in tested}
        pairs = sum(len(centres[machine].groups_by_section[section])
                    for machine, section in tested)
        assert calls["scoring.score"] == len(centres) >= 1
        assert calls["scoring.mahalanobis"] == pairs >= 1


class TestFeatureShapeCheck:
    """A machine whose clips disagree on feature shape is one error line before
    any forward, even when the two shapes fall in different model chunks."""

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_mixed_clip_lengths_fail_before_any_forward(self, trained, tmp_path,
                                                        tiny_config_path, capsys,
                                                        monkeypatch, command):
        corpus_root, manifest, checkpoint, _ = trained
        entries = _absolute_paths(read_manifest(manifest), corpus_root)
        split = "train" if command == "train" else "test"
        victim = [e for e in entries if e.meta.split == split][-1]  # in the last chunk
        samples = dsp.read_wav_mono(Path(victim.path).read_bytes(), victim.path)
        longer = tmp_path / "longer.wav"
        dsp.write_wav_mono(longer, np.tile(samples, 2))
        mixed = tmp_path / "mixed" / "manifest.csv"
        mixed.parent.mkdir()
        write_manifest([replace(e, path=str(longer)) if e is victim else e for e in entries],
                       mixed)
        monkeypatch.setattr(model, "_CHUNK_PIXELS", dsp.log_mel(samples).size)  # 1-clip chunks
        forwards = []
        real = model._forward
        monkeypatch.setattr(model, "_forward", lambda *a, **k: forwards.append(1) or real(*a, **k))
        out = tmp_path / "out" / ("model.hmic" if command == "train" else "scores.csv")
        if command == "train":
            code = run_cli("train", "--corpus", mixed.parent, "--out", out,
                           "--config", tiny_config_path, "--workdir", tmp_path / "work")
        else:
            code = run_cli("score", "--checkpoint", checkpoint, "--manifest", mixed,
                           "--out", out, "--config", tiny_config_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "clips disagree on feature shape" in err
        assert forwards == [] and not out.exists()

    def test_clips_with_cached_embeddings_are_checked_too(self, trained, tmp_path,
                                                         tiny_config_path, capsys,
                                                         forward_clips):
        corpus_root, manifest, checkpoint, _ = trained
        entries = _absolute_paths(read_manifest(manifest), corpus_root)
        victim = [e for e in entries if e.meta.split == "test"][-1]
        samples = dsp.read_wav_mono(Path(victim.path).read_bytes(), victim.path)
        longer = tmp_path / "longer.wav"
        dsp.write_wav_mono(longer, np.tile(samples, 2))
        longer_only = tmp_path / "longer" / "manifest.csv"
        mixed = tmp_path / "mixed" / "manifest.csv"
        for path in (longer_only, mixed):
            path.parent.mkdir()
        write_manifest([replace(victim, path=str(longer))], longer_only)
        write_manifest([replace(e, path=str(longer)) if e is victim else e for e in entries],
                       mixed)
        for scored in (manifest, longer_only):  # every clip of ``mixed`` gets a row
            assert run_cli("score", "--checkpoint", checkpoint, "--manifest", scored,
                           "--out", tmp_path / "out" / "scores.csv",
                           "--config", tiny_config_path) == 0
        forward_clips.clear()
        out = tmp_path / "out" / "mixed_scores.csv"
        code = run_cli("score", "--checkpoint", checkpoint, "--manifest", mixed,
                       "--out", out, "--config", tiny_config_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "clips disagree on feature shape" in err
        assert forward_clips == [] and not out.exists()


class TestCorpusReadErrors:
    @pytest.fixture()
    def corpus_copy(self, tiny_corpus, tmp_path):
        copy = tmp_path / "corpus"
        shutil.copytree(tiny_corpus[0], copy)
        return copy, read_manifest(copy / "manifest.csv")

    def test_train_with_a_missing_clip_is_one_line_error(self, corpus_copy, tmp_path,
                                                         tiny_config_path, capsys):
        corpus, entries = corpus_copy
        victim = next(e for e in entries if e.meta.split == "train")
        (corpus / victim.path).unlink()
        checkpoint = tmp_path / "model.hmic"
        code = run_cli(
            "train", "--corpus", corpus, "--out", checkpoint, "--config", tiny_config_path,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and victim.path in err
        assert not checkpoint.exists()

    def test_train_with_a_clip_at_another_rate_is_one_line_error_naming_it(
            self, corpus_copy, tmp_path, tiny_config_path, capsys):
        corpus, entries = corpus_copy
        victim = [e for e in entries if e.meta.split == "train"][-1]
        path = corpus / victim.path
        samples = dsp.read_wav_mono(path.read_bytes(), path)
        with wave_module.open(str(path), "wb") as handle:  # the same PCM, labelled 8 kHz
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(8000)
            handle.writeframes(np.round(samples * 32768.0).astype("<i2").tobytes())
        checkpoint = tmp_path / "model.hmic"
        code = run_cli("train", "--corpus", corpus, "--out", checkpoint,
                       "--config", tiny_config_path, "--workdir", tmp_path / "work")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path}: sampled at 8000 Hz" in err
        assert not checkpoint.exists()

    def test_train_with_a_clip_of_no_samples_is_one_line_error_naming_it(
            self, corpus_copy, tmp_path, tiny_config_path, capsys):
        corpus, entries = corpus_copy
        victim = next(e for e in entries if e.meta.split == "train")
        path = corpus / victim.path
        with wave_module.open(str(path), "wb") as handle:  # a valid header, 0 frames
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(dsp.SAMPLE_RATE_HZ)
        checkpoint = tmp_path / "model.hmic"
        code = run_cli("train", "--corpus", corpus, "--out", checkpoint,
                       "--config", tiny_config_path, "--workdir", tmp_path / "work")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: WAV holds no samples\n"
        assert not checkpoint.exists()

    def test_score_with_a_non_wav_clip_is_one_line_error(self, trained, corpus_copy, tmp_path,
                                                         tiny_config_path, capsys):
        checkpoint = trained[2]
        corpus, entries = corpus_copy
        victim = next(e for e in entries if e.meta.split == "test")
        (corpus / victim.path).write_bytes(b"not a wav file")
        out = tmp_path / "scores.csv"
        code = run_cli(
            "score", "--checkpoint", checkpoint, "--manifest", corpus / "manifest.csv",
            "--out", out, "--config", tiny_config_path,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and victim.path in err
        assert not out.exists()


    def test_a_clip_cut_short_mid_stream_is_one_line_error(
            self, trained, corpus_copy, tmp_path, tiny_config_path, capsys, monkeypatch,
            forward_clips):
        checkpoint = trained[2]
        corpus, entries = corpus_copy
        test = [e for e in entries if e.meta.split == "test"]
        victim = corpus / test[-1].path
        samples = dsp.read_wav_mono(victim.read_bytes(), victim)
        monkeypatch.setattr(model, "_CHUNK_PIXELS", dsp.log_mel(samples).size)  # 1-clip chunks

        def score(name):
            out = tmp_path / name / "scores.csv"
            code = run_cli("score", "--checkpoint", checkpoint, "--manifest",
                           corpus / "manifest.csv", "--out", out, "--config", tiny_config_path)
            rows = {}
            for emb in (tmp_path / name / "feature_cache").glob("*.emb"):
                rows.update(load_checkpoint(emb)[0])
            return code, out, rows

        code, _, true_rows = score("intact")
        assert code == 0 and len(true_rows) == len(test)
        capsys.readouterr()
        victim.write_bytes(victim.read_bytes()[:-100])  # the header still claims every sample
        forward_clips.clear()
        code, out, rows = score("cut")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{victim}: truncated WAV" in err
        assert not out.exists()
        assert forward_clips == [1] * (len(test) - 1)  # the clips before it ran
        for digest, row in rows.items():
            np.testing.assert_array_equal(row, true_rows[digest])


def _first(tensors, prefix, part):
    return next(name for name in sorted(tensors) if name.startswith(prefix)
                and name.endswith(part))


def _narrow_centres(tensors):
    """Every agc centre one value short of the embedding, its covariance to match."""
    for name in [n for n in tensors if n.startswith("gizmo/agc/")]:
        if name.endswith("/centre"):
            tensors[name] = tensors[name][:-1]
        elif name.endswith("/cov"):
            tensors[name] = tensors[name][:-1, :-1]


def _rename_section(tensors):
    name = _first(tensors, "gizmo/agc/", "/centre")
    machine, kind, _, label, part = name.split("/")
    tensors[f"{machine}/{kind}/zero/{label}/{part}"] = tensors.pop(name)


_JSON_EDITS = {
    "machines_renamed": lambda block: block.update(label_spaces={
        f"{machine}x": space for machine, space in block["label_spaces"].items()}),
    "spaces_key_renamed": lambda block: block.update(label_spacfs=block.pop("label_spaces")),
    "channels_shortened": lambda block: block["run"]["model"].update(
        channels=block["run"]["model"]["channels"][:2]),
    "label_space_without_groups": lambda block: block["label_spaces"]["gizmo"].pop("groups"),
    "run_emptied": lambda block: block.update(run={}),
}
_TENSOR_EDITS = {
    "missing_head_w": lambda tensors: tensors.pop("gizmo/param/head.w"),
    "wrong_shape_conv1_w": lambda tensors: tensors.update(
        {"gizmo/param/conv1.w": tensors["gizmo/param/conv1.w"][..., :2]}),
    "non_integer_section": _rename_section,
    "missing_cov": lambda tensors: tensors.pop(_first(tensors, "gizmo/agc/", "/cov")),
    "nan_centre": lambda tensors: tensors[_first(tensors, "gizmo/agc/", "/centre")].fill(np.nan),
    "nan_conv1_w": lambda tensors: tensors["gizmo/param/conv1.w"].fill(np.nan),
    "conv1_w_past_float32": lambda tensors: tensors["gizmo/param/conv1.w"].fill(1e300),
    "centres_narrower_than_embedding": _narrow_centres,
}


class TestCheckpointTrust:
    """Scoring reads each machine from the checkpoint's tensors and the config
    its header digest checks; the embedded config JSON is provenance only."""

    def _edited(self, checkpoint, path, edit, of_json):
        """The checkpoint rewritten under its own digest, with ``edit`` applied
        to its config JSON or to its tensors."""
        tensors, block, digest = load_checkpoint(checkpoint)
        edit(block if of_json else tensors)
        save_checkpoint(path, tensors, block, digest)
        return path

    def _score(self, checkpoint, manifest, out, config_path):
        return run_cli("score", "--checkpoint", checkpoint, "--manifest", manifest,
                       "--out", out, "--config", config_path)

    @pytest.mark.parametrize("edit", sorted(_JSON_EDITS))
    def test_a_json_only_edit_scores_like_the_clean_checkpoint(self, trained, tmp_path,
                                                               tiny_config_path, edit):
        _, manifest, checkpoint, _ = trained
        clean = tmp_path / "clean" / "scores.csv"
        assert self._score(checkpoint, manifest, clean, tiny_config_path) == 0
        edited = self._edited(checkpoint, tmp_path / "edited.hmic", _JSON_EDITS[edit], True)
        out = tmp_path / "edited" / "scores.csv"
        assert self._score(edited, manifest, out, tiny_config_path) == 0
        assert out.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("edit", sorted(_TENSOR_EDITS))
    def test_a_tensor_edit_is_one_line_error(self, trained, tmp_path, tiny_config_path,
                                             capsys, edit):
        _, manifest, checkpoint, _ = trained
        edited = self._edited(checkpoint, tmp_path / "edited.hmic", _TENSOR_EDITS[edit], False)
        out = tmp_path / "scores.csv"
        assert self._score(edited, manifest, out, tiny_config_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_label_spaces_round_trip(self, trained):
        _, manifest, checkpoint, _ = trained
        _, block, _ = load_checkpoint(checkpoint)
        train = [e.meta for e in read_manifest(manifest) if e.meta.split == "train"]
        assert sorted(block) == ["label_spaces", "run"]
        assert sorted(block["label_spaces"]) == ["gizmo"]
        for machine, data in block["label_spaces"].items():
            own = [meta for meta in train if meta.machine_type == machine]
            assert from_dict(LabelSpace, data) == build_label_space(own, machine)

    def test_weights_that_are_not_float32_values_score_rounded(self, trained, tmp_path,
                                                               tiny_config_path):
        # Checkpoints trained in float64 hold weights that float32 cannot
        # represent. The network computes in float32, so they score with their
        # weights rounded: here a nudge below half a float32 ulp rounds away.
        _, manifest, checkpoint, _ = trained

        def nudge(tensors):
            for name in [n for n in tensors if n.startswith("gizmo/param/")]:
                tensors[name] = tensors[name] * (1.0 + 2.0**-40)
            assert not np.array_equal(tensors["gizmo/param/conv1.w"],
                                      tensors["gizmo/param/conv1.w"].astype(np.float32))

        clean = tmp_path / "clean" / "scores.csv"
        assert self._score(checkpoint, manifest, clean, tiny_config_path) == 0
        edited = self._edited(checkpoint, tmp_path / "edited.hmic", nudge, False)
        out = tmp_path / "edited" / "scores.csv"
        assert self._score(edited, manifest, out, tiny_config_path) == 0
        scores = read_scores_csv(out)
        n_test = sum(e.meta.split == "test" for e in read_manifest(manifest))
        assert len(scores) == n_test and all(np.isfinite(list(scores.values())))
        assert out.read_bytes() == clean.read_bytes()

    def _score_a_stranger(self, trained, tmp_path, config_path, capsys, path=None):
        """Scores the manifest with its first test clip moved to machine type
        'widget' (and to ``path`` when given), and checks the error row and
        the other clips' scores."""
        corpus_root, manifest, checkpoint, _ = trained
        entries = _absolute_paths(read_manifest(manifest), corpus_root)
        victim = next(e for e in entries if e.meta.split == "test")
        stranger = replace(victim, path=path or victim.path,
                           meta=replace(victim.meta, machine_type="widget"))
        strange_manifest = tmp_path / "manifest_widget.csv"
        write_manifest([stranger if e is victim else e for e in entries], strange_manifest)
        out = tmp_path / "scores.csv"
        assert self._score(checkpoint, strange_manifest, out, config_path) == 1
        with out.open() as handle:
            rows = {r["clip_id"]: r["score"] for r in csv.DictReader(handle)}
        assert rows.pop(victim.meta.clip_id) == "" and all(rows.values())
        assert "unknown machine type 'widget'" in capsys.readouterr().err

    def test_a_machine_with_no_tensors_gets_error_rows(self, trained, tmp_path,
                                                       tiny_config_path, capsys):
        self._score_a_stranger(trained, tmp_path, tiny_config_path, capsys)

    def test_clips_of_a_machine_with_no_tensors_are_never_read(self, trained, tmp_path,
                                                               tiny_config_path, capsys,
                                                               monkeypatch):
        garbage = tmp_path / "widget.wav"
        garbage.write_bytes(b"not a wav file")
        read = []
        real = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: read.append(self) or real(self))
        self._score_a_stranger(trained, tmp_path, tiny_config_path, capsys, str(garbage))
        assert read and garbage not in read


class TestNonFiniteEmbedding:
    def test_a_nan_embedding_is_an_error_row(self, trained, tmp_path, tiny_config_path,
                                             monkeypatch, capsys):
        _, manifest, checkpoint, _ = trained
        real = pipeline.forward_features
        poisoned = []

        def first_row_nan(params, x):
            embeddings = real(params, x)
            if not poisoned:
                embeddings[0] = np.nan
                poisoned.append(1)
            return embeddings

        monkeypatch.setattr(pipeline, "forward_features", first_row_nan)
        monkeypatch.delenv("HMIC_CACHE_DIR", raising=False)  # cache the NaN row in tmp_path
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--checkpoint", checkpoint, "--manifest", manifest,
                       "--out", out, "--config", tiny_config_path) == 1
        victim = next(e for e in read_manifest(manifest) if e.meta.split == "test")
        assert capsys.readouterr().err == f"error: {victim.meta.clip_id}: non-finite embedding\n"
        with out.open() as handle:
            rows = {r["clip_id"]: r["score"] for r in csv.DictReader(handle)}
        assert rows.pop(victim.meta.clip_id) == ""
        assert rows and all(np.isfinite(float(score)) for score in rows.values())


class TestUnreadableInputs:
    """A named input file that is missing or not UTF-8 is one error line, exit 2."""

    def _run(self, trained, tmp_path, config_path, **inputs):
        """``hmic train`` for a corpus input, ``hmic score`` for a checkpoint or
        manifest input, else ``hmic eval``."""
        _, manifest, checkpoint, _ = trained
        if "train" in inputs:
            return run_cli("train", "--corpus", inputs["train"],
                           "--out", tmp_path / "model.hmic", "--config", config_path)
        if "scores" in inputs or "config" in inputs:
            scores = inputs.get("scores", tmp_path / "unused.csv")
            return run_cli("eval", "--scores", scores, "--manifest", manifest,
                           "--out", tmp_path / "report.json",
                           "--config", inputs.get("config", config_path))
        return run_cli("score", "--checkpoint", inputs.get("checkpoint", checkpoint),
                       "--manifest", inputs.get("manifest", manifest),
                       "--out", tmp_path / "scores.csv", "--config", config_path)

    @pytest.mark.parametrize("kind", ["checkpoint", "manifest", "scores", "train"])
    def test_a_missing_file_is_one_line_error(self, trained, tmp_path, tiny_config_path,
                                              capsys, kind):
        missing = tmp_path / f"missing.{kind}"
        code = self._run(trained, tmp_path, tiny_config_path, **{kind: missing})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if kind == "train":  # a corpus directory without its manifest
            assert f"cannot read manifest {missing / 'manifest.csv'}" in err
        else:
            assert f"cannot read {kind} {missing}" in err
        assert not (tmp_path / "scores.csv").exists()
        assert not (tmp_path / "model.hmic").exists()

    @pytest.mark.parametrize("kind,error,read", [
        ("manifest", ManifestError, read_manifest),
        ("scores", PipelineError, read_scores_csv),
        ("config", ConfigError, load_run_config),
    ])
    def test_a_non_utf8_file_is_one_line_error(self, trained, tmp_path, tiny_config_path,
                                               capsys, kind, error, read):
        utf16 = tmp_path / f"utf16.{kind}"
        utf16.write_bytes(b"\xff\xfe" + "clip_id,path".encode("utf-16-le"))
        with pytest.raises(error, match=f"cannot read {kind} {utf16}: 'utf-8' codec"):
            read(utf16)
        code = self._run(trained, tmp_path, tiny_config_path, **{kind: utf16})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(utf16) in err


class TestUnwritableOutputs:
    @pytest.mark.parametrize("command", ["eval", "score", "train"])
    def test_an_output_under_a_regular_file_is_one_line_error(
            self, trained, tmp_path, tiny_config_path, capsys, command):
        corpus_root, manifest, checkpoint, _ = trained
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n")
        out = blocker / "out"
        if command == "eval":
            scores = tmp_path / "scores.csv"
            assert run_cli("score", "--checkpoint", checkpoint, "--manifest", manifest,
                           "--out", scores, "--config", tiny_config_path) == 0
            capsys.readouterr()
            args = ["eval", "--scores", scores, "--manifest", manifest]
        elif command == "score":
            args = ["score", "--checkpoint", checkpoint, "--manifest", manifest,
                    "--config", tiny_config_path]
        else:
            args = ["train", "--corpus", corpus_root, "--workdir", tmp_path / "work",
                    "--config", tiny_config_path]
        assert run_cli(*args, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err


class TestPipelineCommand:
    def test_wrong_config_leaf_type_fails_before_generating(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"train": {"epochs": "2"}}))
        workdir = tmp_path / "run"
        code = run_cli("pipeline", "--workdir", workdir, "--config", config_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "epochs" in err
        assert not workdir.exists()

    def test_end_to_end_tiny(self, tmp_path, tiny_config_path):
        workdir = tmp_path / "run"
        spec_path = tmp_path / "spec.json"
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

    @pytest.mark.parametrize("existing", ["same_spec", "other_seed", "no_spec_echo"])
    def test_an_existing_corpus_is_reused_only_under_its_own_spec(
            self, tmp_path, tiny_config_path, capsys, existing):
        workdir = tmp_path / "run"
        generate(make_tiny_spec(seed=5), workdir / "corpus")
        if existing == "no_spec_echo":
            (workdir / "corpus" / "synth_spec.json").unlink()
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(make_tiny_spec(seed=6 if existing == "other_seed"
                                                         else 5)))
        code = run_cli("pipeline", "--workdir", workdir, "--spec", spec_path,
                       "--config", tiny_config_path)
        err = capsys.readouterr().err
        if existing == "same_spec":
            assert code == 0 and err == ""
            assert (workdir / "model.hmic").exists()
        else:
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "holds a corpus of another synth spec" in err
            assert not (workdir / "model.hmic").exists()

    def test_a_corpus_whose_spec_echo_failed_is_regenerated(
            self, tmp_path, tiny_config_path, capsys, monkeypatch):
        # The manifest is written last, so a corpus without its spec echo has
        # no manifest either, and the next run generates it again.
        workdir = tmp_path / "run"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(make_tiny_spec(seed=5)))
        real = Path.write_text

        def full_disk(path, *args, **kwargs):
            if path.name == "synth_spec.json":
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        args = ("pipeline", "--workdir", workdir, "--spec", spec_path,
                "--config", tiny_config_path)
        assert run_cli(*args) == 2
        assert capsys.readouterr().err.count("\n") == 1
        monkeypatch.setattr(Path, "write_text", real)
        assert run_cli(*args) == 0 and capsys.readouterr().err == ""
        assert load_spec(workdir / "corpus" / "synth_spec.json") == make_tiny_spec(seed=5)
        assert (workdir / "report_agc.json").exists()

    def test_seed_means_the_corpus_seed_in_generate_and_pipeline_alike(
            self, tmp_path, tiny_config_path, capsys):
        workdir = tmp_path / "run"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec_to_json(make_tiny_spec(seed=5)))
        assert run_cli("generate", "--spec", spec_path, "--seed", "9",
                       "--out", workdir / "corpus") == 0
        manifest = workdir / "corpus" / "manifest.csv"
        written = manifest.stat().st_mtime_ns
        code = run_cli("pipeline", "--workdir", workdir, "--spec", spec_path, "--seed", "9",
                       "--config", tiny_config_path)
        assert code == 0 and capsys.readouterr().err == ""
        assert manifest.stat().st_mtime_ns == written  # reused, not regenerated
        assert load_spec(workdir / "corpus" / "synth_spec.json").seed == 9
        assert (workdir / "report_agc.json").exists()

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


class TestErrors:
    def test_every_error_class_shares_the_base(self):
        import importlib
        import pkgutil

        import hmic
        from hmic.errors import HmicError

        found = []
        for info in pkgutil.iter_modules(hmic.__path__):
            module = importlib.import_module(f"hmic.{info.name}")
            for name, value in vars(module).items():
                if (
                    isinstance(value, type)
                    and issubclass(value, BaseException)
                    and value.__module__ == module.__name__
                ):
                    found.append(value)
                    assert name.endswith("Error") and issubclass(value, HmicError), name
        assert len(found) >= 13  # HmicError and the 12 errors built on it

    def test_undecodable_checkpoint_config_is_one_line_error(self, trained, tmp_path,
                                                             tiny_config_path, capsys):
        _, manifest, checkpoint, _ = trained
        raw = bytearray(checkpoint.read_bytes())
        raw[60] = 0xFF  # inside the embedded config JSON; never valid UTF-8
        broken = tmp_path / "broken.hmic"
        broken.write_bytes(bytes(raw))
        code = run_cli(
            "score", "--checkpoint", broken, "--manifest", manifest,
            "--out", tmp_path / "scores.csv", "--config", tiny_config_path,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "corrupt config" in err

    def test_corrupt_checkpoint_is_one_line_error(self, tiny_corpus, tmp_path, capsys):
        _, manifest = tiny_corpus
        checkpoint = tmp_path / "model.hmic"
        checkpoint.write_bytes(b"not a checkpoint")
        code = run_cli(
            "score", "--checkpoint", checkpoint, "--manifest", manifest,
            "--out", tmp_path / "scores.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
