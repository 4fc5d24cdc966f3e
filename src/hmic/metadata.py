"""Clip metadata and the hierarchical section-ID / attribute-group label space.

Machine sounds are organised as a tree per machine type: section IDs are the
nodes and attribute groups (AGs) the leaves. Clips that share a section and an
identical attribute name=value combination belong to the same AG. The integer
labels assigned here drive both classifier heads during training.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

DOMAINS = ("source", "target", "unknown")
SPLITS = ("train", "test")
CONDITIONS = ("normal", "anomalous", "unknown")

MANIFEST_COLUMNS = (
    "clip_id",
    "path",
    "machine_type",
    "section",
    "domain",
    "split",
    "condition",
    "attributes",
)


class FilenameParseError(ValueError):
    """A clip filename does not follow the DCASE-style naming convention."""


class LabelSpaceError(ValueError):
    """A label space cannot be built from the given clips."""


class UnknownLabelError(KeyError):
    """A clip's section or attribute combination is absent from the label space."""


class ManifestError(ValueError):
    """A manifest CSV is malformed."""


@dataclass(frozen=True)
class ClipMeta:
    """Identity of one audio clip.

    ``attributes`` is stored as a canonically key-sorted tuple of (name, value)
    pairs so group identity never depends on token order.
    """

    clip_id: str
    machine_type: str
    section_id: int
    domain: str
    split: str
    condition: str
    attributes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.section_id < 0:
            raise ValueError(f"section_id must be >= 0, got {self.section_id}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}")
        if self.condition not in CONDITIONS:
            raise ValueError(f"unknown condition {self.condition!r}")
        pairs = tuple(sorted((str(n), str(v)) for n, v in self.attributes))
        names = [n for n, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute name in {names}")
        object.__setattr__(self, "attributes", pairs)
        # Only normal sounds exist at training time.
        if self.split == "train" and self.condition != "normal":
            raise ValueError(
                f"training clip {self.clip_id!r} must be normal, got {self.condition!r}"
            )

    @property
    def attribute_map(self) -> dict[str, str]:
        return dict(self.attributes)

    def group_key(self) -> "AttributeGroupKey":
        return AttributeGroupKey(self.section_id, self.attributes)


@dataclass(frozen=True)
class AttributeGroupKey:
    """Identity of one attribute group: a section plus a canonical pair list."""

    section_id: int
    attribute_pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted(tuple(p) for p in self.attribute_pairs))
        object.__setattr__(self, "attribute_pairs", pairs)

    def sort_key(self) -> tuple:
        return (self.section_id, self.attribute_pairs)


@dataclass(frozen=True)
class LabelSpace:
    """Integer label assignments for one machine type.

    ``id_labels`` maps section IDs to contiguous section labels, ``ag_labels``
    maps group keys to contiguous group labels, and ``ag_by_section`` records
    which group labels hang under each section. Instances are read-only and
    safe to share across workers.
    """

    machine_type: str
    id_labels: dict[int, int]
    ag_labels: dict[AttributeGroupKey, int]
    ag_by_section: dict[int, tuple[int, ...]]

    @property
    def n_sections(self) -> int:
        return len(self.id_labels)

    @property
    def n_groups(self) -> int:
        return len(self.ag_labels)

    def to_dict(self) -> dict:
        return {
            "machine_type": self.machine_type,
            "sections": {str(s): l for s, l in sorted(self.id_labels.items())},
            "groups": [
                {
                    "section": key.section_id,
                    "pairs": [list(p) for p in key.attribute_pairs],
                    "label": label,
                }
                for key, label in sorted(self.ag_labels.items(), key=lambda kv: kv[1])
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "LabelSpace":
        id_labels = {int(s): int(l) for s, l in data["sections"].items()}
        ag_labels = {
            AttributeGroupKey(int(g["section"]), tuple((n, v) for n, v in g["pairs"])): int(
                g["label"]
            )
            for g in data["groups"]
        }
        ag_by_section = {
            s: tuple(sorted(l for k, l in ag_labels.items() if k.section_id == s))
            for s in id_labels
        }
        return LabelSpace(data["machine_type"], id_labels, ag_labels, ag_by_section)


def parse_dcase_filename(filename: str, machine_type: str = "unknown") -> ClipMeta:
    """Parse ``section_<SS>_<domain>_<split>_<condition>_<idx>_<name>_<value>_... .wav``.

    Attribute tokens must come in name/value pairs; the parsed attribute map is
    canonically sorted, so token order in the filename is irrelevant.
    """
    name = Path(filename).name
    if not name.endswith(".wav"):
        raise FilenameParseError(f"expected a .wav filename, got {name!r}")
    stem = name[: -len(".wav")]
    tokens = stem.split("_")
    if len(tokens) < 6:
        raise FilenameParseError(f"too few tokens in {name!r}")
    if tokens[0] != "section":
        raise FilenameParseError(f"expected leading 'section', got {tokens[0]!r}")
    if not tokens[1].isdigit():
        raise FilenameParseError(f"bad section token {tokens[1]!r} in {name!r}")
    section_id = int(tokens[1])
    domain, split, condition, idx = tokens[2], tokens[3], tokens[4], tokens[5]
    if domain not in DOMAINS:
        raise FilenameParseError(f"bad domain token {domain!r} in {name!r}")
    if split not in SPLITS:
        raise FilenameParseError(f"bad split token {split!r} in {name!r}")
    condition = {"anomaly": "anomalous"}.get(condition, condition)
    if condition not in CONDITIONS:
        raise FilenameParseError(f"bad condition token {tokens[4]!r} in {name!r}")
    if not idx.isdigit():
        raise FilenameParseError(f"bad index token {idx!r} in {name!r}")
    attr_tokens = tokens[6:]
    if len(attr_tokens) % 2 != 0:
        raise FilenameParseError(
            f"odd attribute token count in {name!r}: trailing {attr_tokens[-1]!r}"
        )
    for tok in attr_tokens:
        if not tok:
            raise FilenameParseError(f"empty attribute token in {name!r}")
    pairs = tuple(zip(attr_tokens[0::2], attr_tokens[1::2]))
    try:
        return ClipMeta(
            clip_id=stem,
            machine_type=machine_type,
            section_id=section_id,
            domain=domain,
            split=split,
            condition=condition,
            attributes=pairs,
        )
    except ValueError as exc:
        raise FilenameParseError(f"{name!r}: {exc}") from exc


def build_label_space(clips: list[ClipMeta], machine_type: str) -> LabelSpace:
    """Assign contiguous section and attribute-group labels for one machine type.

    Construction is deterministic: sections sorted numerically, group keys
    sorted by (section, canonical pairs), so any permutation of ``clips``
    yields the identical space.
    """
    if not clips:
        raise LabelSpaceError("cannot build a label space from zero clips")
    for clip in clips:
        if clip.machine_type != machine_type:
            raise LabelSpaceError(
                f"mixed machine types: expected {machine_type!r}, "
                f"got {clip.machine_type!r} for {clip.clip_id!r}"
            )
        if clip.split != "train":
            raise LabelSpaceError(
                f"label spaces are built from training clips only; "
                f"{clip.clip_id!r} has split {clip.split!r}"
            )
    sections = sorted({c.section_id for c in clips})
    id_labels = {s: i for i, s in enumerate(sections)}
    keys = sorted({c.group_key() for c in clips}, key=AttributeGroupKey.sort_key)
    ag_labels = {k: m for m, k in enumerate(keys)}
    ag_by_section = {
        s: tuple(m for k, m in ag_labels.items() if k.section_id == s) for s in sections
    }
    return LabelSpace(machine_type, id_labels, ag_labels, ag_by_section)


def assign_labels(clip: ClipMeta, space: LabelSpace) -> tuple[int, int]:
    """Return (section label, attribute-group label) for a clip."""
    try:
        section_label = space.id_labels[clip.section_id]
    except KeyError:
        raise UnknownLabelError(
            f"section {clip.section_id} not in label space for {space.machine_type!r}"
        ) from None
    try:
        group_label = space.ag_labels[clip.group_key()]
    except KeyError:
        raise UnknownLabelError(
            f"attribute combination {clip.attributes!r} unseen under "
            f"section {clip.section_id}"
        ) from None
    return section_label, group_label


def format_attributes(pairs: tuple[tuple[str, str], ...]) -> str:
    for name, value in pairs:
        for tok in (name, value):
            if "=" in tok or ";" in tok or "," in tok:
                raise ManifestError(f"attribute token {tok!r} contains a separator")
    return ";".join(f"{n}={v}" for n, v in sorted(pairs))


def parse_attribute_field(text: str) -> tuple[tuple[str, str], ...]:
    if not text:
        return ()
    pairs = []
    for chunk in text.split(";"):
        if "=" not in chunk:
            raise ManifestError(f"bad attribute chunk {chunk!r}")
        name, value = chunk.split("=", 1)
        pairs.append((name, value))
    return tuple(pairs)


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest row: clip metadata plus the audio path (relative allowed)."""

    meta: ClipMeta
    path: str


def write_manifest(entries: list[ManifestEntry], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(MANIFEST_COLUMNS)
        for entry in entries:
            m = entry.meta
            writer.writerow(
                [
                    m.clip_id,
                    entry.path,
                    m.machine_type,
                    m.section_id,
                    m.domain,
                    m.split,
                    m.condition,
                    format_attributes(m.attributes),
                ]
            )


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    path = Path(path)
    entries: list[ManifestEntry] = []
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != MANIFEST_COLUMNS:
            raise ManifestError(
                f"{path}: expected header {','.join(MANIFEST_COLUMNS)}, got {header}"
            )
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(MANIFEST_COLUMNS):
                raise ManifestError(f"{path}:{row_num}: expected {len(MANIFEST_COLUMNS)} fields")
            clip_id, clip_path, machine, section, domain, split, condition, attrs = row
            try:
                meta = ClipMeta(
                    clip_id=clip_id,
                    machine_type=machine,
                    section_id=int(section),
                    domain=domain,
                    split=split,
                    condition=condition,
                    attributes=parse_attribute_field(attrs),
                )
            except ValueError as exc:
                raise ManifestError(f"{path}:{row_num}: {exc}") from exc
            entries.append(ManifestEntry(meta=meta, path=clip_path))
    return entries
