import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmic.checkpoint import from_dict, to_dict
from hmic.datagen import (
    AnomalySpec,
    AttributeSpec,
    ClipCounts,
    MachineSpec,
    SectionSpec,
    SynthSpec,
    SynthSpecError,
    default_spec,
    generate,
    load_spec,
    plan_corpus,
    shifted_spec,
    spec_from_dict,
    spec_to_dict,
    spec_to_json,
    synthesize_clip,
)
from hmic.dsp import DspConfig, Waveform, log_mel, mel_centres_hz, read_wav_mono
from hmic.metadata import build_label_space, parse_dcase_filename, read_manifest

TINY_COUNTS = ClipCounts(
    train_source=4,
    train_target=2,
    test_normal_source=2,
    test_anomalous_source=2,
    test_normal_target=2,
    test_anomalous_target=2,
)


def tiny_spec(seed=7, noise=0.003, sections=1):
    section_specs = tuple(
        SectionSpec(
            section_id=s,
            attributes=(
                AttributeSpec(
                    name="spd",
                    source_values=("A", "B"),
                    target_values=(),
                    tones_hz={"A": (700.0 + 200 * s,), "B": (1900.0 + 200 * s,)},
                ),
            ),
            am_rate_hz=3.0 + 2 * s,
            counts=TINY_COUNTS,
        )
        for s in range(sections)
    )
    return SynthSpec(
        machines=(MachineSpec(name="gizmo", sections=section_specs),),
        clip_seconds=0.5,
        noise_amp_source=noise,
        noise_amp_target=2 * noise,
        seed=seed,
    )


class TestPlanCorpus:
    def test_two_value_spec_yields_two_groups(self):
        plans = plan_corpus(tiny_spec())
        train = [p.meta for p in plans if p.meta.split == "train"]
        space = build_label_space(train, "gizmo")
        assert space.n_groups == 2

    def test_default_spec_composition(self):
        plans = plan_corpus(default_spec())
        train = [p.meta for p in plans if p.meta.split == "train"]
        space = build_label_space(train, "gizmo")
        assert space.n_sections == 3
        assert space.n_groups == 12  # 3 sections x (2 spd x 2 mic)
        counts = default_spec().machines[0].sections[0].counts
        per_section = counts.train_source + counts.train_target
        assert len(train) == 3 * per_section

    def test_shifted_spec_adds_target_groups(self):
        plans = plan_corpus(shifted_spec())
        train = [p.meta for p in plans if p.meta.split == "train"]
        space = build_label_space(train, "gizmo")
        # 4 source combos + 2 target combos (xt x mic values) per section
        assert space.n_groups == 18
        target_train = [m for m in train if m.domain == "target"]
        assert all(m.attribute_map["spd"] == "xt" for m in target_train)

    def test_every_test_cell_has_both_conditions(self):
        plans = plan_corpus(tiny_spec())
        cells = {}
        for plan in plans:
            if plan.meta.split == "test":
                key = (plan.meta.section_id, plan.meta.domain)
                cells.setdefault(key, set()).add(plan.meta.condition)
        assert all(v == {"normal", "anomalous"} for v in cells.values())

    def test_counts_must_be_positive(self):
        bad = tiny_spec()
        section = bad.machines[0].sections[0]
        from dataclasses import replace

        broken = replace(
            bad,
            machines=(
                MachineSpec(
                    name="gizmo",
                    sections=(replace(section, counts=ClipCounts(train_source=0)),),
                ),
            ),
        )
        with pytest.raises(SynthSpecError, match="> 0"):
            plan_corpus(broken)

    def test_tones_must_stay_below_nyquist(self):
        spec = tiny_spec()
        from dataclasses import replace

        section = spec.machines[0].sections[0]
        loud = replace(
            section,
            attributes=(
                AttributeSpec("spd", ("A",), (), {"A": (7990.0,)}),
            ),
        )
        broken = replace(spec, machines=(MachineSpec("gizmo", (loud,)),))
        with pytest.raises(SynthSpecError, match="Nyquist"):
            plan_corpus(broken)


class TestSynthesize:
    def test_same_plan_renders_identically(self):
        spec = tiny_spec()
        plan = plan_corpus(spec)[0]
        np.testing.assert_array_equal(synthesize_clip(spec, plan), synthesize_clip(spec, plan))

    def test_anomalous_clips_differ_from_normal_twin(self):
        spec = tiny_spec()
        plans = plan_corpus(spec)
        normal = next(p for p in plans if not p.anomalous)
        anomalous = next(p for p in plans if p.anomalous)
        assert not np.array_equal(synthesize_clip(spec, normal), synthesize_clip(spec, anomalous))

    def test_tone_lands_on_expected_mel_bin(self):
        # near-zero noise: the spectral peak must sit on the tone's mel bin
        spec = tiny_spec(noise=1e-6)
        plan = next(
            p
            for p in plan_corpus(spec)
            if not p.anomalous and p.meta.attribute_map["spd"] == "A"
        )
        samples = synthesize_clip(spec, plan)
        config = DspConfig()
        wave = Waveform(samples=samples, sample_rate_hz=spec.sample_rate_hz)
        values = log_mel(wave, config).values
        centres = mel_centres_hz(config.n_mels, config.f_min_hz, config.f_max_hz)
        expected_bin = int(np.argmin(np.abs(centres - plan.tone_freqs_hz[0])))
        peak_bins = values.argmax(axis=0)
        assert np.all(np.abs(peak_bins - expected_bin) <= 1)


class TestGhostTones:
    def test_ghost_mode_adds_sibling_tones_to_anomalies_only(self):
        from dataclasses import replace

        spec = replace(
            tiny_spec(),
            anomaly=AnomalySpec(detune_cents=0.0, clicks_per_second=0.0, click_amp=0.0,
                                ghost_attr="spd", ghost_amp=0.5),
        )
        plans = plan_corpus(spec)
        for plan in plans:
            if plan.anomalous:
                own = plan.meta.attribute_map["spd"]
                sibling = {"A": "B", "B": "A"}[own]
                attr = plan.section.attributes[0]
                assert plan.ghost_tones_hz == attr.tones_hz[sibling]
            else:
                assert plan.ghost_tones_hz == ()

    def test_ghost_changes_rendered_audio(self):
        from dataclasses import replace

        quiet = replace(
            tiny_spec(),
            anomaly=AnomalySpec(detune_cents=0.0, clicks_per_second=0.0, click_amp=0.0),
        )
        ghosted = replace(
            quiet,
            anomaly=replace(quiet.anomaly, ghost_attr="spd", ghost_amp=0.5),
        )
        plan_quiet = next(p for p in plan_corpus(quiet) if p.anomalous)
        plan_ghost = next(p for p in plan_corpus(ghosted) if p.anomalous)
        assert plan_quiet.meta.clip_id == plan_ghost.meta.clip_id
        assert not np.array_equal(
            synthesize_clip(quiet, plan_quiet), synthesize_clip(ghosted, plan_ghost)
        )


class TestGenerate:
    def test_manifest_roundtrips_through_filename_parser(self, tmp_path):
        spec = tiny_spec()
        manifest = generate(spec, tmp_path / "corpus")
        entries = read_manifest(manifest)
        assert entries
        for entry in entries:
            parsed = parse_dcase_filename(entry.path.split("/")[-1], entry.meta.machine_type)
            assert parsed.section_id == entry.meta.section_id
            assert parsed.domain == entry.meta.domain
            assert parsed.split == entry.meta.split
            assert parsed.condition == entry.meta.condition
            assert parsed.attributes == entry.meta.attributes

    def test_same_seed_writes_byte_identical_corpora(self, tmp_path):
        spec = tiny_spec(seed=11)
        first = generate(spec, tmp_path / "a")
        second = generate(spec, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        assert first.name == second.name == "manifest.csv"

    def test_wavs_are_valid_pcm_mono(self, tmp_path):
        spec = tiny_spec()
        manifest = generate(spec, tmp_path / "corpus")
        entry = read_manifest(manifest)[0]
        wave = read_wav_mono(tmp_path / "corpus" / entry.path)
        assert wave.sample_rate_hz == spec.sample_rate_hz
        assert wave.samples.size == int(spec.clip_seconds * spec.sample_rate_hz)


finite = st.floats(allow_nan=False, allow_infinity=False)
names = st.text(max_size=4)
attribute_specs = st.builds(
    AttributeSpec,
    name=names,
    source_values=st.lists(names, max_size=3).map(tuple),
    target_values=st.lists(names, max_size=3).map(tuple),
    tones_hz=st.dictionaries(names, st.lists(finite, max_size=3).map(tuple), max_size=3),
    jitter_scale_by_value=st.dictionaries(names, finite, max_size=3),
)
section_specs = st.builds(
    SectionSpec,
    section_id=st.integers(0, 99),
    attributes=st.lists(attribute_specs, max_size=2).map(tuple),
    am_rate_hz=finite,
    counts=st.builds(ClipCounts, *[st.integers(0, 50)] * 6),
)
synth_specs = st.builds(
    SynthSpec,
    machines=st.lists(
        st.builds(MachineSpec, name=names, sections=st.lists(section_specs, max_size=2).map(tuple)),
        max_size=2,
    ).map(tuple),
    sample_rate_hz=st.integers(1, 96000),
    clip_seconds=finite,
    tone_amp=finite,
    am_depth=finite,
    tone_jitter_cents=finite,
    noise_amp_source=finite,
    noise_amp_target=finite,
    anomaly=st.builds(
        AnomalySpec,
        detune_cents=finite,
        clicks_per_second=finite,
        click_amp=finite,
        detune_attr=st.none() | names,
        ghost_attr=st.none() | names,
        ghost_amp=finite,
    ),
    seed=st.integers(0, 2**63),
)


class TestSpecSerialization:
    def test_dict_roundtrip(self):
        spec = shifted_spec(seed=123)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_json_file_roundtrip(self, tmp_path):
        spec = default_spec(seed=5)
        path = tmp_path / "spec.json"
        path.write_text(spec_to_json(spec))
        assert load_spec(path) == spec

    @settings(max_examples=60, deadline=None)
    @given(spec=synth_specs)
    def test_codec_json_roundtrip(self, spec):
        assert from_dict(SynthSpec, json.loads(json.dumps(to_dict(spec)))) == spec

    @pytest.mark.parametrize(
        "preset, sha256",
        [
            (default_spec, "19baedb5de41aa621e68d4318f05fbe109a41690d76608ee4219bc0f35243afe"),
            (shifted_spec, "46a3027a077325e2458b79b37b0e61a32a5401e955191b98af61b4a881778f2a"),
        ],
    )
    def test_preset_json_is_pinned(self, preset, sha256):
        assert hashlib.sha256(spec_to_json(preset(2022)).encode("utf-8")).hexdigest() == sha256

    def test_anomaly_defaults(self):
        anomaly = AnomalySpec()
        assert anomaly.detune_cents >= 100.0  # separability floor for the acceptance corpus
