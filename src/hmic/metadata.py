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

from .atomic import replacing
from .errors import HmicError

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


class ManifestError(HmicError):
    """A manifest CSV is malformed."""


# An attribute group: a section plus its canonically sorted (name, value) pairs.
GroupKey = tuple[int, tuple[tuple[str, str], ...]]


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

    def group_key(self) -> GroupKey:
        return (self.section_id, self.attributes)


@dataclass(frozen=True)
class LabelSpace:
    """Integer label assignments for one machine type.

    ``sections`` and ``groups`` are strictly increasing (HmicError
    otherwise), and a label is a key's position: section ``sections[i]`` has
    label ``i`` and group ``groups[j]`` label ``j``. Instances are read-only
    and safe to share across workers.
    """

    machine_type: str
    sections: tuple[int, ...]
    groups: tuple[GroupKey, ...]

    def __post_init__(self) -> None:
        for name, keys in (("sections", self.sections), ("groups", self.groups)):
            for a, b in zip(keys, keys[1:]):
                if a >= b:
                    raise HmicError(f"{self.machine_type}: {name} must be strictly "
                                    f"increasing, got {a!r} before {b!r}")

    @property
    def n_sections(self) -> int:
        return len(self.sections)

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def build_label_space(clips: list[ClipMeta], machine_type: str) -> LabelSpace:
    """Assign contiguous section and attribute-group labels for one machine type.

    Construction is deterministic: sections sorted numerically, group keys
    sorted by (section, canonical pairs), so any permutation of ``clips``
    yields the identical space.
    """
    if not clips:
        raise HmicError("cannot build a label space from zero clips")
    for clip in clips:
        if clip.machine_type != machine_type:
            raise HmicError(
                f"mixed machine types: expected {machine_type!r}, "
                f"got {clip.machine_type!r} for {clip.clip_id!r}"
            )
        if clip.split != "train":
            raise HmicError(
                f"label spaces are built from training clips only; "
                f"{clip.clip_id!r} has split {clip.split!r}"
            )
    return LabelSpace(machine_type, tuple(sorted({c.section_id for c in clips})),
                      tuple(sorted({c.group_key() for c in clips})))


def assign_labels(clip: ClipMeta, space: LabelSpace) -> tuple[int, int]:
    """Return (section label, attribute-group label) for a clip."""
    try:
        section_label = space.sections.index(clip.section_id)
    except ValueError:
        raise HmicError(
            f"section {clip.section_id} not in label space for {space.machine_type!r}"
        ) from None
    try:
        group_label = space.groups.index(clip.group_key())
    except ValueError:
        raise HmicError(
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
    rows = []
    for entry in entries:
        m = entry.meta
        rows.append([m.clip_id, entry.path, m.machine_type, m.section_id, m.domain,
                     m.split, m.condition, format_attributes(m.attributes)])
    write_csv_rows(path, MANIFEST_COLUMNS, rows)


def write_csv_rows(path: str | Path, columns: tuple[str, ...], rows) -> None:
    """Write the header ``columns`` and then ``rows`` as a UTF-8 CSV
    (``csv.writer`` defaults, so CRLF line endings)."""
    with replacing(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(rows)


def read_csv_rows(
    path: Path, columns: tuple[str, ...], what: str, error: type[HmicError]
) -> list[tuple[int, list[str]]]:
    """(row number, fields) of each non-blank row under the header ``columns``.
    An unreadable or non-UTF-8 file, another header or a row of another width
    raises ``error``."""
    try:
        with path.open("r", newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle)) or [None]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    if header is None or tuple(header) != columns:
        raise error(f"{path}: expected header {','.join(columns)}, got {header}")
    numbered = [(row_num, row) for row_num, row in enumerate(rows, start=2) if row]
    for row_num, row in numbered:
        if len(row) != len(columns):
            raise error(f"{path}:{row_num}: expected {len(columns)} fields")
    return numbered


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """The manifest's entries; a clip_id listed twice raises ManifestError,
    as every stage keys clips by id."""
    path = Path(path)
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for row_num, row in read_csv_rows(path, MANIFEST_COLUMNS, "manifest", ManifestError):
        clip_id, clip_path, machine, section, domain, split, condition, attrs = row
        if clip_id in seen:
            raise ManifestError(f"{path}:{row_num}: clip_id {clip_id!r} listed twice")
        seen.add(clip_id)
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
