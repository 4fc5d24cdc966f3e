import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmic.checkpoint import from_dict, to_dict
from hmic.metadata import (
    ClipMeta,
    LabelSpace,
    LabelSpaceError,
    ManifestEntry,
    ManifestError,
    UnknownLabelError,
    assign_labels,
    build_label_space,
    read_manifest,
    write_manifest,
)

from oracles import FilenameParseError, parse_dcase_filename


def make_clip(section=0, attrs=(), clip_id="c", machine="gizmo", split="train",
              domain="source", condition="normal"):
    return ClipMeta(
        clip_id=clip_id,
        machine_type=machine,
        section_id=section,
        domain=domain,
        split=split,
        condition=condition,
        attributes=tuple(attrs),
    )


class TestParseFilename:
    def test_full_toycar_style_name(self):
        meta = parse_dcase_filename(
            "section_00_source_train_normal_0000_car_A1_spd_28V_mic_1_noise_1.wav"
        )
        assert meta.section_id == 0
        assert meta.domain == "source"
        assert meta.split == "train"
        assert meta.condition == "normal"
        assert dict(meta.attributes) == {"car": "A1", "spd": "28V", "mic": "1", "noise": "1"}
        # canonical ordering is by attribute name
        assert [n for n, _ in meta.attributes] == ["car", "mic", "noise", "spd"]

    def test_minimal_single_attribute(self):
        meta = parse_dcase_filename("section_03_target_test_anomaly_0001_x_1.wav")
        assert meta.section_id == 3
        assert meta.domain == "target"
        assert meta.split == "test"
        assert meta.condition == "anomalous"
        assert meta.attributes == (("x", "1"),)

    def test_truncated_pair_is_error(self):
        with pytest.raises(FilenameParseError, match="odd attribute token"):
            parse_dcase_filename("section_00_source_train_normal_0000_car.wav")

    def test_no_attributes_allowed(self):
        meta = parse_dcase_filename("section_01_source_train_normal_0007.wav")
        assert meta.attributes == ()

    @pytest.mark.parametrize(
        "name,fragment",
        [
            ("clip_00_source_train_normal_0000.wav", "section"),
            ("section_xx_source_train_normal_0000.wav", "xx"),
            ("section_00_sideways_train_normal_0000.wav", "sideways"),
            ("section_00_source_validate_normal_0000.wav", "validate"),
            ("section_00_source_train_odd_0000.wav", "odd"),
            ("section_00_source_train_normal_zz.wav", "zz"),
            ("section_00_source_train.wav", "too few"),
            ("section_00_source_train_normal_0000.flac", ".wav"),
        ],
    )
    def test_malformed_names_name_the_token(self, name, fragment):
        with pytest.raises(FilenameParseError, match=fragment):
            parse_dcase_filename(name)

    def test_train_anomaly_violates_invariant(self):
        with pytest.raises(FilenameParseError):
            parse_dcase_filename("section_00_source_train_anomaly_0000_x_1.wav")

    @given(
        perm=st.permutations(
            [("car", "A1"), ("spd", "28V"), ("mic", "1"), ("noise", "2")]
        )
    )
    def test_attribute_token_order_is_irrelevant(self, perm):
        attr_part = "_".join(f"{n}_{v}" for n, v in perm)
        meta = parse_dcase_filename(f"section_02_source_test_normal_0000_{attr_part}.wav")
        assert meta.group_key() == (
            2, (("car", "A1"), ("mic", "1"), ("noise", "2"), ("spd", "28V"))
        )


class TestClipMeta:
    def test_attributes_are_canonically_sorted(self):
        meta = make_clip(attrs=[("z", "1"), ("a", "2")])
        assert meta.attributes == (("a", "2"), ("z", "1"))

    def test_train_must_be_normal(self):
        with pytest.raises(ValueError):
            make_clip(split="train", condition="anomalous")

    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_clip(attrs=[("a", "1"), ("a", "2")])


def brute_force_partition(clips):
    """Independent oracle: group clips by (section, frozen attribute multiset)."""
    groups = {}
    for clip in clips:
        key = (clip.section_id, frozenset(clip.attributes))
        groups.setdefault(key, set()).add(clip.clip_id)
    return set(frozenset(v) for v in groups.values())


def space_partition(clips, space):
    groups = {}
    for clip in clips:
        _, group_label = assign_labels(clip, space)
        groups.setdefault(group_label, set()).add(clip.clip_id)
    return set(frozenset(v) for v in groups.values())


clip_strategy = st.builds(
    lambda section, pairs, uid: make_clip(
        section=section,
        attrs=[(f"a{i}", v) for i, v in enumerate(pairs)],
        clip_id=f"clip{uid}",
    ),
    section=st.integers(min_value=0, max_value=3),
    pairs=st.lists(st.sampled_from(["x", "y", "z"]), max_size=3),
    uid=st.integers(min_value=0, max_value=10_000),
)


class TestBuildLabelSpace:
    def test_single_clip(self):
        space = build_label_space([make_clip()], "gizmo")
        assert space.n_sections == 1
        assert space.n_groups == 1

    def test_empty_is_error(self):
        with pytest.raises(LabelSpaceError):
            build_label_space([], "gizmo")

    def test_mixed_machines_is_error(self):
        clips = [make_clip(), make_clip(machine="other", clip_id="d")]
        with pytest.raises(LabelSpaceError, match="mixed"):
            build_label_space(clips, "gizmo")

    def test_test_split_rejected(self):
        with pytest.raises(LabelSpaceError, match="training"):
            build_label_space([make_clip(split="test")], "gizmo")

    def test_known_composition_three_by_four(self):
        # 3 sections x (2 attributes x 2 values) = 12 groups; oracle counts
        # distinct (section, attributes) pairs by exhaustive set construction.
        clips = []
        expected = set()
        for section in range(3):
            for v1 in ("lo", "hi"):
                for v2 in ("m1", "m2"):
                    for rep in range(2):
                        attrs = (("spd", v1), ("mic", v2))
                        clips.append(
                            make_clip(
                                section=section,
                                attrs=attrs,
                                clip_id=f"s{section}_{v1}_{v2}_{rep}",
                            )
                        )
                        expected.add((section, attrs))
        space = build_label_space(clips, "gizmo")
        assert space.n_sections == 3
        assert space.n_groups == len(expected) == 12
        labels = [assign_labels(clip, space) for clip in clips]
        assert sorted({section for section, _ in labels}) == [0, 1, 2]
        assert sorted({group for _, group in labels}) == list(range(12))

    def test_eleven_value_combos_give_eleven_groups(self):
        clips = [
            make_clip(section=0, attrs=[("car", f"A{i}")], clip_id=f"c{i}{rep}")
            for i in range(11)
            for rep in range(3)
        ]
        space = build_label_space(clips, "gizmo")
        assert space.n_groups == 11

    def test_group_count_sums_over_sections(self):
        clips = [
            make_clip(section=s, attrs=[("a", str(v))], clip_id=f"{s}-{v}")
            for s in range(3)
            for v in range(s + 1)
        ]
        space = build_label_space(clips, "gizmo")
        per_section = [sum(g[0] == s for g in space.groups) for s in space.sections]
        assert per_section == [1, 2, 3] and sum(per_section) == space.n_groups

    def test_every_group_under_exactly_one_section(self):
        clips = [
            make_clip(section=s, attrs=[("a", v)], clip_id=f"{s}{v}")
            for s in (0, 1)
            for v in ("x", "y")
        ]
        space = build_label_space(clips, "gizmo")
        seen = [assign_labels(clip, space)[1] for clip in clips]
        assert sorted(seen) == list(range(space.n_groups))
        assert all(space.groups[label][0] == clip.section_id for clip, label in zip(clips, seen))

    @settings(max_examples=50, deadline=None)
    @given(clips=st.lists(clip_strategy, min_size=1, max_size=20, unique_by=lambda c: c.clip_id))
    def test_partition_matches_brute_force(self, clips):
        space = build_label_space(clips, "gizmo")
        assert space_partition(clips, space) == brute_force_partition(clips)

    @settings(max_examples=50, deadline=None)
    @given(
        clips=st.lists(clip_strategy, min_size=1, max_size=15, unique_by=lambda c: c.clip_id),
        seed=st.randoms(),
    )
    def test_permutation_invariance(self, clips, seed):
        shuffled = list(clips)
        seed.shuffle(shuffled)
        assert build_label_space(clips, "gizmo") == build_label_space(shuffled, "gizmo")


class TestAssignLabels:
    def setup_method(self):
        self.clips = [
            make_clip(section=s, attrs=[("a", v)], clip_id=f"{s}{v}")
            for s in (0, 2)
            for v in ("x", "y")
        ]
        self.space = build_label_space(self.clips, "gizmo")

    def test_identical_metadata_same_labels(self):
        twin = make_clip(section=2, attrs=[("a", "y")], clip_id="other")
        reference = [c for c in self.clips if c.section_id == 2 and c.attributes == (("a", "y"),)]
        assert assign_labels(twin, self.space) == assign_labels(reference[0], self.space)

    def test_novel_value_is_unknown(self):
        novel = make_clip(section=0, attrs=[("a", "q")], clip_id="novel")
        with pytest.raises(UnknownLabelError):
            assign_labels(novel, self.space)

    def test_unknown_section(self):
        novel = make_clip(section=7, attrs=[("a", "x")], clip_id="novel")
        with pytest.raises(UnknownLabelError):
            assign_labels(novel, self.space)

    def test_roundtrip_group_is_registered_under_its_section(self):
        for clip in self.clips:
            _, group_label = assign_labels(clip, self.space)
            assert self.space.groups[group_label][0] == clip.section_id

    def test_label_space_dict_roundtrip(self):
        restored = from_dict(LabelSpace, json.loads(json.dumps(to_dict(self.space))))
        assert restored == self.space

    @pytest.mark.parametrize("field,keys", [
        ("sections", [1, 0, 1]),
        ("sections", [0, 0]),
        ("groups", [[1, []], [0, []]]),
        ("groups", [[0, [["a", "x"]]], [0, [["a", "x"]]]]),
        ("groups", [[0, [["a", "y"]]], [0, [["a", "x"]]]]),
    ], ids=["unsorted_sections", "repeated_section", "unsorted_sections_of_groups",
            "repeated_group", "unsorted_attributes_of_groups"])
    def test_keys_that_are_not_strictly_increasing_are_refused(self, field, keys):
        # build_label_space never gives them, and assign_labels would hand out
        # labels it never would
        data = {"machine_type": "gizmo", "sections": [0, 1], "groups": [[0, []], [1, []]],
                field: keys}
        with pytest.raises(LabelSpaceError, match=f"gizmo: {field} must be strictly increasing"):
            from_dict(LabelSpace, data)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [
            ManifestEntry(meta=make_clip(attrs=[("spd", "28V"), ("mic", "1")]), path="a/b.wav"),
            ManifestEntry(
                meta=make_clip(section=1, split="test", condition="anomalous",
                               domain="target", clip_id="d"),
                path="a/d.wav",
            ),
        ]
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        assert read_manifest(path) == entries

    def test_header_required(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("not,a,header\n")
        with pytest.raises(ManifestError, match="header"):
            read_manifest(path)
        path.write_text("")
        with pytest.raises(ManifestError, match="header"):
            read_manifest(path)

    def test_clip_id_listed_twice_is_manifest_error(self, tmp_path):
        # Every stage keys clips by id, so the second row would silently reuse
        # the first row's audio.
        entries = [ManifestEntry(meta=make_clip(clip_id="a"), path=f"{name}.wav")
                   for name in ("a", "b")]
        path = tmp_path / "manifest.csv"
        write_manifest(entries, path)
        with pytest.raises(ManifestError, match=f"{path}:3: clip_id 'a' listed twice"):
            read_manifest(path)

    def test_oversized_field_is_manifest_error(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("x" * 200_000 + "\n")  # past the csv module's field size limit
        with pytest.raises(ManifestError, match="cannot read manifest"):
            read_manifest(path)

    def test_separator_in_attribute_rejected(self, tmp_path):
        entry = ManifestEntry(meta=make_clip(attrs=[("a", "1;2")]), path="x.wav")
        with pytest.raises(ManifestError, match="separator"):
            write_manifest([entry], tmp_path / "m.csv")
