import dataclasses
import json
import typing
from dataclasses import dataclass, replace

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
    write_json,
)
from hmic.config import SCORING_MODES, RunConfig, load_run_config
from hmic.datagen import AttributeSpec, SynthSpec
from hmic.errors import HmicError
from hmic.metadata import LabelSpace
from hmic.model import ModelConfig
from hmic.training import TrainConfig

from conftest import make_tiny_spec

run_configs = st.builds(
    RunConfig,
    model=st.builds(
        ModelConfig,
        channels=st.tuples(*[st.integers(1, 128)] * 3),
        head_channels=st.integers(1, 128),
        id_loss_weight=st.floats(0.0, 1.0),
    ),
    train=st.builds(
        TrainConfig,
        epochs=st.integers(1, 100),
        seed=st.integers(0, 2**63),
    ),
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
            assert loaded[name].shape == np.shape(tensors[name])
            np.testing.assert_array_equal(loaded[name], np.asarray(tensors[name], float))

    def test_a_failed_save_keeps_the_old_checkpoint(self, tmp_path):
        path = tmp_path / "model.hmic"
        save_checkpoint(path, {"a": np.ones(5)}, {}, config_digest({}))
        intact = path.read_bytes()
        with pytest.raises(ValueError):  # "b" is written after the header and "a"
            save_checkpoint(path, {"a": np.zeros(5), "b": "not a number"}, {},
                            config_digest({}))
        assert path.read_bytes() == intact
        assert [p.name for p in tmp_path.iterdir()] == ["model.hmic"]

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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_byte_flip_outside_the_payload_loads_or_raises(self, data, tmp_path_factory):
        tensors = {"b/param/w": np.ones((2, 3)), "a/one": np.array([0.5]), "c": np.arange(4.0)}
        config = {"machines": ["b"], "note": "flip"}
        path = tmp_path_factory.mktemp("flip") / "model.hmic"
        save_checkpoint(path, tensors, config, config_digest(config))
        raw = bytearray(path.read_bytes())
        # The layout in the module docstring, walked independently of the loader.
        offset = 8 + 4 + 32 + 8 + len(json.dumps(config, sort_keys=True).encode()) + 4
        payload = set()
        for name in sorted(tensors):
            value = tensors[name]
            offset += 4 + len(name.encode()) + 4 + 8 * value.ndim
            payload.update(range(offset, offset + 8 * value.size))
            offset += 8 * value.size
        assert offset == len(raw)
        position = data.draw(st.sampled_from(sorted(set(range(len(raw))) - payload)))
        raw[position] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass

    def test_digest_is_canonical(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})


class TestRunConfig:
    def test_defaults_are_valid_and_serializable(self, tmp_path):
        config = RunConfig()
        path = tmp_path / "run.json"
        write_json(path, config)
        assert load_run_config(path) == config

    def test_semantic_digest_ignores_score_time_knobs(self):
        base = RunConfig()
        assert base.with_overrides(scoring_mode="dc").semantic_digest() == base.semantic_digest()
        assert base.with_overrides(pauc_p=0.5).semantic_digest() == base.semantic_digest()
        assert base.with_overrides(jobs=4).semantic_digest() == base.semantic_digest()
        assert base.with_overrides(seed=99).semantic_digest() != base.semantic_digest()
        weighted = replace(base, model=replace(base.model, id_loss_weight=1.0))
        assert weighted.semantic_digest() != base.semantic_digest()

    def test_invalid_values_rejected(self):
        with pytest.raises(HmicError, match="unknown scoring mode 'nope'"):
            RunConfig(scoring_mode="nope")
        with pytest.raises(HmicError, match=r"pauc_p must be in \(0, 1\], got 0.0"):
            RunConfig(pauc_p=0.0)
        with pytest.raises(HmicError, match="jobs must be >= 1, got 0"):
            RunConfig(jobs=0)
        with pytest.raises(HmicError, match="seed must be >= 0, got -1"):
            RunConfig().with_overrides(seed=-1)

    def test_default_semantic_digest_is_pinned(self):
        assert RunConfig().semantic_digest() == (
            "7d8690286af22434b87c98735018f8d7907e115f73900c792eee5c8add5682d0"
        )

    @settings(max_examples=60, deadline=None)
    @given(config=run_configs)
    def test_codec_json_roundtrip(self, config):
        assert from_dict(RunConfig, json.loads(json.dumps(to_dict(config)))) == config

    def test_missing_keys_take_defaults(self):
        assert from_dict(RunConfig, {"train": {"seed": 3}}) == RunConfig().with_overrides(seed=3)

    @pytest.mark.parametrize(
        "data",
        [
            {"train": {"epochs": "2"}},
            {"train": {"seed": None}},
            {"train": {"epochs": True}},
            {"train": {"epochs": 2.0}},
            {"model": {"channels": [8, 16, "64"]}},
            {"model": {"id_loss_weight": "0.3"}},
            {"pauc_p": "0.1"},
            {"scoring_mode": None},
        ],
    )
    def test_wrong_leaf_type_rejected(self, data):
        with pytest.raises(TypeError, match="expected"):
            from_dict(RunConfig, data)

    def test_int_for_bool_field_rejected(self):
        """No RunConfig field is a bool; ``from_dict`` still serves bool hints."""

        @dataclass(frozen=True)
        class Flagged:
            flag: bool = False

        assert from_dict(Flagged, {"flag": True}) == Flagged(flag=True)
        with pytest.raises(TypeError, match="expected"):
            from_dict(Flagged, {"flag": 1})

    @pytest.mark.parametrize(
        ("cls", "fields"),
        [
            (AttributeSpec, {"jitter_scale_by_value": {"A": "0.3"}}),
            (AttributeSpec, {"tones_hz": {"A": [600.0, "900"]}}),
        ],
    )
    def test_wrong_type_inside_a_dict_or_optional_field_rejected(self, cls, fields):
        """A dict value of a spec JSON must match its hint too."""
        base = to_dict(make_tiny_spec().machines[0].sections[0].attributes[0])
        from_dict(cls, base)  # the rest of the object is valid
        with pytest.raises(TypeError, match="expected"):
            from_dict(cls, {**base, **fields})

    def test_int_for_float_field_is_kept_unchanged(self):
        config = from_dict(RunConfig, {"model": {"id_loss_weight": 1}, "pauc_p": 1})
        assert type(config.model.id_loss_weight) is int and config.pauc_p == 1

    def test_wrong_leaf_type_in_file_is_config_error(self, tmp_path):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"train": {"epochs": "2"}}))
        with pytest.raises(HmicError, match="epochs"):
            load_run_config(path)

    def test_a_tuple_of_the_wrong_length_names_its_field(self, tmp_path):
        path = tmp_path / "channels.json"
        path.write_text(json.dumps({"model": {"channels": [1, 2, 3, 4]}}))
        with pytest.raises(HmicError, match=r"model: channels: expected 3 items for "
                                            r"tuple\[int, int, int\], got 4$"):
            load_run_config(path)

    def test_misspelled_top_level_key_is_config_error(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"scoring_mod": "dc"}))
        with pytest.raises(HmicError, match="scoring_mod"):
            load_run_config(path)

    def test_bad_file_reports_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(HmicError, match=f"cannot read config {path}: Expecting"):
            load_run_config(path)


DECODABLE_LEAVES = {int, float, str, bool}


def _leaf_hints(hint, seen=None):
    """Every hint reachable from ``hint`` that is not a dataclass, a
    ``tuple[...]`` or a ``dict[...]``."""
    seen = set() if seen is None else seen
    if dataclasses.is_dataclass(hint):
        if hint not in seen:
            seen.add(hint)
            for field_hint in typing.get_type_hints(hint).values():
                yield from _leaf_hints(field_hint, seen)
    elif typing.get_origin(hint) in (tuple, dict):
        for arg in typing.get_args(hint):
            if arg is not Ellipsis:
                yield from _leaf_hints(arg, seen)
    else:
        yield hint


class TestDecodableHints:
    """``from_dict`` decodes dataclasses, ``tuple[...]``, ``dict[...]`` and the
    four JSON leaf types; a config or spec field of any other kind would reach
    ``hmic generate`` or ``hmic train`` as a traceback, not a one-line error,
    and a label-space field of another kind would not decode from a checkpoint."""

    @pytest.mark.parametrize("root", [RunConfig, SynthSpec, LabelSpace])
    def test_every_reachable_hint_is_decodable(self, root):
        assert set(_leaf_hints(root)) - DECODABLE_LEAVES == set()

    def test_an_optional_field_is_flagged(self):
        @dataclass(frozen=True)
        class Loose:
            name: str | None = None
            pairs: tuple[tuple[str, int | None], ...] = ()

        assert set(_leaf_hints(Loose)) - DECODABLE_LEAVES == {str | None, int | None}
