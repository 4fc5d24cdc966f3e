import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmic import datagen
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
    spec_to_json,
    synthesize_clip,
)
from hmic.dsp import SAMPLE_RATE_HZ, log_mel, read_wav_mono
from hmic.metadata import build_label_space, read_manifest

from oracles import analytic_centres, parse_dcase_filename

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
        assert all(dict(m.attributes)["spd"] == "xt" for m in target_train)

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

    def test_empty_machine_name_is_refused(self):
        # a clip's path in the corpus is "<machine name>/<stem>.wav"; with an
        # empty name it is "/<stem>.wav", which pathlib joins to the corpus
        # directory as an absolute path under the filesystem root
        spec = tiny_spec()
        broken = replace(spec, machines=(replace(spec.machines[0], name=""),))
        with pytest.raises(SynthSpecError, match="no directory in the corpus"):
            plan_corpus(broken)


_PRESETS = {"default": default_spec, "shifted": shifted_spec}
# sha256 of the float64 samples of the first test clip per (domain, anomalous)
# of each preset at seed 2022.
RENDER_PINS = [
    ("default", "section_00_source_test_normal_0000_mic_m1_spd_lo",
     "e1cb720470fea965a1ddf75f9051ae7522e0bc65240201ed4de9f089029a61e2"),
    ("default", "section_00_source_test_anomaly_0000_mic_m1_spd_lo",
     "7a9fd12fa6545376cd6032735c01efd2c6c30d5e5d57d32574a5c852fd6a777d"),
    ("default", "section_00_target_test_normal_0000_mic_m1_spd_lo",
     "558487e59bd3f6e64c490da55c2693e42bd450a0829b7dd3d415905ccbe8030d"),
    ("default", "section_00_target_test_anomaly_0000_mic_m1_spd_lo",
     "7a970049ce924324082c6591e208c776c980ea765355edc282c8166769a7ab6e"),
    ("shifted", "section_00_source_test_normal_0000_mic_m1_spd_lo",
     "9333243a6c16b7962d6563da469924eb10047bfe5882f3faf6f955f3ce231fc3"),
    ("shifted", "section_00_source_test_anomaly_0000_mic_m1_spd_lo",
     "d1a66de7c6d084560b8aa5fae87063b8f98e4d12e91883bf9c3f0aad9d4caed1"),
    ("shifted", "section_00_target_test_normal_0000_mic_m1_spd_xt",
     "5b43011eec03e0cd014c17ddaaa57f22ded051d5acdacf9b87c96a27180b3e8c"),
    ("shifted", "section_00_target_test_anomaly_0000_mic_m1_spd_xt",
     "08dd7f647d46319726673caf33d98db3189413e6087cf4005558ed1e760bba89"),
]


class TestSynthesize:
    @pytest.mark.parametrize("preset,clip,digest", RENDER_PINS)
    def test_rendered_samples_are_pinned(self, preset, clip, digest):
        spec = _PRESETS[preset](2022)
        plan = next(p for p in plan_corpus(spec) if p.meta.clip_id == f"gizmo/{clip}")
        samples = synthesize_clip(spec, plan)
        assert samples.dtype == np.float64
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    def test_same_plan_renders_identically(self):
        spec = tiny_spec()
        plan = plan_corpus(spec)[0]
        np.testing.assert_array_equal(synthesize_clip(spec, plan), synthesize_clip(spec, plan))

    def test_anomalous_clips_differ_from_normal_twin(self):
        spec = tiny_spec()
        plans = plan_corpus(spec)
        normal = next(p for p in plans if p.meta.condition == "normal")
        anomalous = next(p for p in plans if p.meta.condition == "anomalous")
        assert not np.array_equal(synthesize_clip(spec, normal), synthesize_clip(spec, anomalous))

    def test_tone_lands_on_expected_mel_bin(self, monkeypatch):
        # near-zero noise: the spectral peak must sit on the tone's mel bin
        monkeypatch.setattr(datagen, "NOISE_AMP_SOURCE", 1e-6)
        spec = tiny_spec(noise=1e-6)
        plan = next(
            p
            for p in plan_corpus(spec)
            if p.meta.condition == "normal" and dict(p.meta.attributes)["spd"] == "A"
        )
        values = log_mel(synthesize_clip(spec, plan))
        centres = analytic_centres(128, 0.0, 8000.0)
        expected_bin = int(np.argmin(np.abs(centres - plan.tone_freqs_hz[0])))
        peak_bins = values.argmax(axis=0)
        assert np.all(np.abs(peak_bins - expected_bin) <= 1)


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
        path = tmp_path / "corpus" / entry.path
        samples = read_wav_mono(path.read_bytes(), path)  # refuses another rate
        assert samples.size == int(spec.clip_seconds * SAMPLE_RATE_HZ)


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
    clip_seconds=finite,
    tone_jitter_cents=finite,
    noise_amp_target=finite,
    anomaly=st.builds(
        AnomalySpec,
        detune_cents=finite,
        clicks_per_second=finite,
        click_amp=finite,
    ),
    seed=st.integers(0, 2**63),
)


class TestSpecSerialization:
    def test_dict_roundtrip(self):
        spec = shifted_spec(seed=123)
        assert from_dict(SynthSpec, to_dict(spec)) == spec

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
            (default_spec, "3fe3a312729a43347bd8f0f98c8b45f37fae8d1efaa5fdcc9275675027308884"),
            (shifted_spec, "9738126a43d5ee218b6f2f0d76cf5230a9e92c9dda79355ba37bb245e3a56999"),
        ],
        ids=["default", "shifted"],
    )
    def test_preset_json_is_pinned(self, preset, sha256):
        assert hashlib.sha256(spec_to_json(preset(2022)).encode("utf-8")).hexdigest() == sha256

    def test_anomaly_defaults(self):
        anomaly = AnomalySpec()
        assert anomaly.detune_cents >= 100.0  # separability floor for the acceptance corpus
