import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmic.checkpoint import (
    CheckpointError,
    config_digest,
    from_dict,
    load_checkpoint,
    save_checkpoint,
    to_dict,
)
from hmic.config import SCORING_MODES, ConfigError, RunConfig, load_run_config, save_run_config
from hmic.dsp import DspConfig
from hmic.model import ABLATIONS, ModelConfig
from hmic.scoring import COVARIANCE_MODES
from hmic.training import TrainConfig

finite = st.floats(allow_nan=False, allow_infinity=False)
run_configs = st.builds(
    RunConfig,
    dsp=st.builds(
        DspConfig,
        sample_rate_hz=st.integers(1, 96000),
        frame_size=st.integers(2, 4096),
        hop=st.integers(1, 4096),
        n_mels=st.integers(1, 256),
        f_min_hz=finite,
        f_max_hz=finite,
        floor_epsilon=finite,
        standardize=st.booleans(),
    ),
    model=st.builds(
        ModelConfig,
        channels=st.tuples(*[st.integers(1, 128)] * 3),
        head_channels=st.integers(1, 128),
        id_loss_weight=st.floats(0.0, 1.0),
        id_loss_weight_by_machine=st.dictionaries(st.text(max_size=6), st.floats(0.0, 1.0)),
    ),
    train=st.builds(
        TrainConfig,
        epochs=st.integers(1, 100),
        batch_size=st.integers(1, 256),
        learning_rate=finite,
        lr_min=finite,
        beta1=finite,
        beta2=finite,
        adam_eps=finite,
        seed=st.integers(0, 2**63),
    ),
    ablation=st.sampled_from(ABLATIONS),
    covariance_mode=st.sampled_from(COVARIANCE_MODES),
    shrinkage=st.none() | finite,
    shrinkage_rel=finite,
    scoring_mode=st.sampled_from(SCORING_MODES),
    pauc_p=st.floats(0.0, 1.0, exclude_min=True),
    jobs=st.integers(1, 64),
)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "gizmo/param/conv1.w": rng.normal(size=(4, 1, 3, 3)),
            "gizmo/param/conv1.b": rng.normal(size=4),
            "gizmo/agc/0/0/centre": rng.normal(size=8),
            "scalarish": np.array(3.25),
        }
        config = {"model": {"channels": [4]}, "note": "round-trip"}
        digest = config_digest(config)
        path = tmp_path / "model.hmic"
        save_checkpoint(path, tensors, config, digest)
        loaded, loaded_config, loaded_digest = load_checkpoint(path)
        assert loaded_config == config
        assert loaded_digest == digest
        assert loaded.keys() == tensors.keys()
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], np.asarray(tensors[name], float))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hmic"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "model.hmic"
        save_checkpoint(path, {"a": np.ones(5)}, {}, config_digest({}))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_digest_is_canonical(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})


class TestRunConfig:
    def test_defaults_are_valid_and_serializable(self, tmp_path):
        config = RunConfig()
        path = tmp_path / "run.json"
        save_run_config(config, path)
        assert load_run_config(path) == config

    def test_semantic_digest_ignores_score_time_knobs(self):
        base = RunConfig()
        assert base.with_overrides(scoring_mode="dc").semantic_digest() == base.semantic_digest()
        assert base.with_overrides(pauc_p=0.5).semantic_digest() == base.semantic_digest()
        assert base.with_overrides(jobs=4).semantic_digest() == base.semantic_digest()
        assert base.with_overrides(seed=99).semantic_digest() != base.semantic_digest()
        assert base.with_overrides(ablation="domain_only").semantic_digest() != base.semantic_digest()

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(ablation="nope")
        with pytest.raises(ConfigError):
            RunConfig(pauc_p=0.0)
        with pytest.raises(ConfigError):
            RunConfig(jobs=0)

    def test_default_semantic_digest_is_pinned(self):
        assert RunConfig().semantic_digest() == (
            "b24c89b13b189fb073b58df4c99342329ca26f304b07437a881d0187601bec58"
        )

    @settings(max_examples=60, deadline=None)
    @given(config=run_configs)
    def test_codec_json_roundtrip(self, config):
        assert from_dict(RunConfig, json.loads(json.dumps(to_dict(config)))) == config

    def test_missing_keys_take_defaults(self):
        assert from_dict(RunConfig, {"train": {"seed": 3}}) == RunConfig().with_overrides(seed=3)

    def test_misspelled_top_level_key_is_config_error(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"scoring_mod": "dc"}))
        with pytest.raises(ConfigError, match="scoring_mod"):
            load_run_config(path)

    def test_bad_file_reports_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_run_config(path)
