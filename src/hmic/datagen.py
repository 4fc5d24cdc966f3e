"""Seeded synthetic corpus with attribute-driven acoustic structure.

Each attribute value maps to an explicit set of sinusoids, so clips in the
same attribute group share a spectral signature (chord intervals and tone
counts differ between groups to stay distinguishable after pooling). Sections
get distinct amplitude-modulation rates, domains differ by noise floor (and,
in the shifted preset, by one attribute's value set), and an anomaly is every
tone detuned plus broadband transient clicks. Clips are rendered at the front
end's ``dsp.SAMPLE_RATE_HZ`` with a fixed tone amplitude and AM depth.
Per-clip RNG streams are derived from (seed, clip_id), so generation is
deterministic regardless of order or parallelism.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import from_dict, to_dict
from .dsp import SAMPLE_RATE_HZ, write_wav_mono
from .errors import HmicError
from .metadata import ClipMeta, ManifestEntry, ManifestError, format_attributes, write_manifest

TONE_AMP = 0.07  # nominal amplitude of each tone, before its per-clip 0.85-1.15 gain
AM_DEPTH = 0.5  # depth of the section's slow amplitude modulation
NOISE_AMP_SOURCE = 0.004  # the source domain's noise floor; the spec sets the target's
_BURST_LEN = int(0.004 * SAMPLE_RATE_HZ)  # samples in one 4 ms anomaly click
MAX_CLIP_SECONDS = 60.0  # 6x the paper's clips; rendering one holds ~31 MB of float64


class SynthSpecError(HmicError, ValueError):
    pass


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    source_values: tuple[str, ...]
    target_values: tuple[str, ...]  # defaults to source_values when empty
    tones_hz: dict[str, tuple[float, ...]]  # value -> frequencies
    # value -> multiplier on the spec-level tone jitter (values can be steadier
    # or wobblier than the section average)
    jitter_scale_by_value: dict[str, float] = field(default_factory=dict)

    def values_for(self, domain: str) -> tuple[str, ...]:
        if domain == "target" and self.target_values:
            return self.target_values
        return self.source_values

    def jitter_scale(self, value: str) -> float:
        return float(self.jitter_scale_by_value.get(value, 1.0))


@dataclass(frozen=True)
class ClipCounts:
    train_source: int = 36
    train_target: int = 6
    test_normal_source: int = 16
    test_anomalous_source: int = 16
    test_normal_target: int = 12
    test_anomalous_target: int = 12


@dataclass(frozen=True)
class SectionSpec:
    section_id: int
    attributes: tuple[AttributeSpec, ...]
    am_rate_hz: float  # slow amplitude modulation, a per-section temporal signature
    counts: ClipCounts = ClipCounts()


@dataclass(frozen=True)
class MachineSpec:
    name: str
    sections: tuple[SectionSpec, ...]


@dataclass(frozen=True)
class AnomalySpec:
    """An anomalous clip detunes every tone and adds clicks."""

    detune_cents: float = 250.0
    clicks_per_second: float = 5.0
    click_amp: float = 0.35


@dataclass(frozen=True)
class SynthSpec:
    machines: tuple[MachineSpec, ...]
    clip_seconds: float = 2.0
    tone_jitter_cents: float = 0.0  # per-clip natural detune on every clip
    noise_amp_target: float = 0.010
    anomaly: AnomalySpec = field(default_factory=AnomalySpec)
    seed: int = 2022

    @property
    def n_samples(self) -> int:
        return int(round(self.clip_seconds * SAMPLE_RATE_HZ))

    def validate(self) -> None:
        """Raise SynthSpecError on a spec that cannot render, or whose corpus a
        later stage would refuse."""
        for path, value in _leaves(to_dict(self)):
            # "not <=" holds for NaN too; an int past the float range would
            # overflow where it meets a float
            if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
                raise SynthSpecError(f"{path} must be finite and within the float range")
        if self.seed < 0:
            raise SynthSpecError(f"seed must be >= 0, got {self.seed}")
        if self.n_samples <= _BURST_LEN or self.clip_seconds > MAX_CLIP_SECONDS:
            raise SynthSpecError(f"clip_seconds must exceed one 4 ms click and be at most "
                                 f"{MAX_CLIP_SECONDS:g}, got {self.clip_seconds}")
        if self.anomaly.clicks_per_second > SAMPLE_RATE_HZ:
            raise SynthSpecError(f"anomaly.clicks_per_second must be <= {SAMPLE_RATE_HZ}, "
                                 f"got {self.anomaly.clicks_per_second}")
        if not self.machines:
            raise SynthSpecError("spec has no machine types")
        _distinct("machine names", [machine.name for machine in self.machines])
        for machine in self.machines:
            if machine.name in ("", "..") or "/" in machine.name:
                raise SynthSpecError(f"machine name {machine.name!r} is no directory in the corpus")
            if not machine.sections:
                raise SynthSpecError(f"{machine.name} has no sections")
            _distinct(f"{machine.name} section ids", [s.section_id for s in machine.sections])
            for section in machine.sections:
                where = f"{machine.name}/section {section.section_id}"
                if section.section_id < 0:
                    raise SynthSpecError(f"{where}: section id must be >= 0")
                for name, value in vars(section.counts).items():
                    if value <= 0:
                        raise SynthSpecError(f"{where}: {name} must be > 0")
                if not section.attributes:
                    raise SynthSpecError(f"{where} has no attributes")
                _distinct(f"{where} attribute names", [attr.name for attr in section.attributes])
                for attr in section.attributes:
                    if not attr.source_values:
                        raise SynthSpecError(f"{where}: {attr.name} has no source values")
                    values = attr.source_values + attr.target_values
                    for token in (attr.name, *values):
                        if "/" in token:  # the token is part of the clip's file name
                            raise SynthSpecError(f"{where}: attribute token {token!r} holds a '/'")
                    try:  # the manifest's attribute column cannot hold its separators
                        format_attributes(tuple((attr.name, value) for value in values))
                    except ManifestError as exc:
                        raise SynthSpecError(f"{where}: {exc}") from None
                    for value in set(values):
                        tones = attr.tones_hz.get(value)
                        if not tones:
                            raise SynthSpecError(f"{where}: no tones for {attr.name}={value}")
                        # a tone moves up by at most its jitter bound and, in an
                        # anomaly, the detune; neither moves it up when negative.
                        # 2 ** -x underflows to 0 where 2 ** x would overflow.
                        cents = max(self.anomaly.detune_cents, 0.0)
                        cents += max(self.tone_jitter_cents, 0.0) * abs(attr.jitter_scale(value))
                        top = max(abs(freq) for freq in tones)
                        if top >= SAMPLE_RATE_HZ / 2.0 * 2.0 ** (-cents / 1200.0):
                            raise SynthSpecError(f"{where}: tone {top} Hz (detuned) "
                                                 f"exceeds Nyquist {SAMPLE_RATE_HZ / 2.0} Hz")


def _leaves(node, path=""):
    """(dotted path, value) of each leaf of a ``to_dict`` tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, (list, tuple)):
        items = enumerate(node)
    else:
        yield path, node
        return
    for key, child in items:
        yield from _leaves(child, f"{path}.{key}" if path else str(key))


def _distinct(what: str, items: list) -> None:
    if len(set(items)) != len(items):
        raise SynthSpecError(f"{what} must be distinct, got {items}")


@dataclass(frozen=True)
class ClipPlan:
    meta: ClipMeta  # the clip is written to "<clip_id>.wav" under the corpus root
    tone_freqs_hz: tuple[float, ...]
    jitter_scales: tuple[float, ...]  # per tone: its attribute value's jitter scale
    am_rate_hz: float


def _combos(section: SectionSpec, domain: str) -> list[tuple[tuple[str, str], ...]]:
    per_attr = [
        [(attr.name, value) for value in attr.values_for(domain)]
        for attr in section.attributes
    ]
    return [tuple(combo) for combo in itertools.product(*per_attr)]


def _tones(section: SectionSpec, pairs) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The clip's tones, attribute by attribute, and each tone's jitter scale."""
    by_name = {attr.name: attr for attr in section.attributes}
    return tuple(zip(*[
        (freq, by_name[name].jitter_scale(value))
        for name, value in pairs
        for freq in by_name[name].tones_hz[value]
    ]))


def plan_corpus(spec: SynthSpec) -> list[ClipPlan]:
    """Enumerate every clip the spec implies, without synthesizing audio."""
    spec.validate()
    plans: list[ClipPlan] = []
    for machine in spec.machines:
        for section in machine.sections:
            counts = section.counts
            blocks = [
                ("train", "source", "normal", counts.train_source),
                ("train", "target", "normal", counts.train_target),
                ("test", "source", "normal", counts.test_normal_source),
                ("test", "source", "anomalous", counts.test_anomalous_source),
                ("test", "target", "normal", counts.test_normal_target),
                ("test", "target", "anomalous", counts.test_anomalous_target),
            ]
            for split, domain, condition, count in blocks:
                combos = _combos(section, domain)
                for idx in range(count):
                    pairs = combos[idx % len(combos)]
                    sorted_pairs = tuple(sorted(pairs))
                    token = "anomaly" if condition == "anomalous" else condition
                    attr_part = "_".join(f"{n}_{v}" for n, v in sorted_pairs)
                    stem = (
                        f"section_{section.section_id:02d}_{domain}_{split}_"
                        f"{token}_{idx:04d}_{attr_part}"
                    )
                    meta = ClipMeta(
                        clip_id=f"{machine.name}/{stem}",
                        machine_type=machine.name,
                        section_id=section.section_id,
                        domain=domain,
                        split=split,
                        condition=condition,
                        attributes=sorted_pairs,
                    )
                    tones, scales = _tones(section, pairs)
                    plans.append(ClipPlan(meta, tones, scales, section.am_rate_hz))
    return plans


def _clip_rng(seed: int, clip_id: str) -> np.random.Generator:
    digest = hashlib.sha256(clip_id.encode("utf-8")).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:8], "little")])
    )


def synthesize_clip(spec: SynthSpec, plan: ClipPlan) -> np.ndarray:
    """Render one clip: tone stack + section AM + domain noise (+ anomaly transform)."""
    rng = _clip_rng(spec.seed, plan.meta.clip_id)
    anomalous = plan.meta.condition == "anomalous"
    n = spec.n_samples
    t = np.arange(n) / SAMPLE_RATE_HZ
    freqs = np.array(plan.tone_freqs_hz, dtype=np.float64)
    if spec.tone_jitter_cents > 0.0:
        bounds = spec.tone_jitter_cents * np.array(plan.jitter_scales)
        jitter = rng.uniform(-1.0, 1.0, freqs.size) * bounds
        freqs = freqs * 2.0 ** (jitter / 1200.0)
    if anomalous:
        freqs = freqs * 2.0 ** (spec.anomaly.detune_cents / 1200.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, freqs.size)
    gains = TONE_AMP * rng.uniform(0.85, 1.15, freqs.size)
    # One scratch array holds each tone, the AM term and the noise in turn; the
    # in-place steps run in the order of the plain expressions, bit for bit.
    signal = np.zeros(n)
    scratch = np.empty(n)
    for freq, phase, gain in zip(freqs, phases, gains):
        np.multiply(2.0 * np.pi * freq, t, out=scratch)
        scratch += phase
        np.sin(scratch, out=scratch)
        scratch *= gain
        signal += scratch
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    np.multiply(2.0 * np.pi * plan.am_rate_hz, t, out=scratch)
    scratch += am_phase
    np.sin(scratch, out=scratch)
    scratch *= AM_DEPTH
    scratch += 1.0
    scratch /= 1.0 + AM_DEPTH
    signal *= scratch
    noise_amp = NOISE_AMP_SOURCE if plan.meta.domain == "source" else spec.noise_amp_target
    rng.standard_normal(n, out=scratch)
    scratch *= noise_amp
    signal += scratch
    if anomalous:
        n_clicks = max(1, int(round(spec.anomaly.clicks_per_second * spec.clip_seconds)))
        envelope = np.exp(-np.arange(_BURST_LEN) / (0.0015 * SAMPLE_RATE_HZ))
        for start in rng.integers(0, n - _BURST_LEN, n_clicks):
            noise_burst = rng.standard_normal(_BURST_LEN)
            noise_burst /= np.max(np.abs(noise_burst))
            signal[start : start + _BURST_LEN] += spec.anomaly.click_amp * envelope * noise_burst
    peak = np.max(np.abs(signal))
    if peak > 0.99:
        raise SynthSpecError(
            f"{plan.meta.clip_id}: rendered peak {peak:.3f} too close to full scale; "
            f"lower click_amp or noise_amp_target, or use fewer tones"
        )
    return signal


def generate(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write the corpus (WAVs + manifest.csv + the spec echo); returns the manifest path."""
    plans = plan_corpus(spec)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for plan in plans:
        filename = f"{plan.meta.clip_id}.wav"
        (out_dir / filename).parent.mkdir(parents=True, exist_ok=True)
        write_wav_mono(out_dir / filename, synthesize_clip(spec, plan))
        entries.append(ManifestEntry(meta=plan.meta, path=filename))
    (out_dir / "synth_spec.json").write_text(spec_to_json(spec), encoding="utf-8")
    manifest_path = out_dir / "manifest.csv"
    write_manifest(entries, manifest_path)  # last: a manifest means a whole corpus
    return manifest_path


# --- presets -----------------------------------------------------------------


def _section(section_id, am_rate, spd_tones, mic_tones):
    attributes = tuple(
        AttributeSpec(name, tuple(tones), (), dict(tones))
        for name, tones in (("spd", spd_tones), ("mic", mic_tones))
    )
    return SectionSpec(section_id, attributes, am_rate)


# Per-section tone tables. The two spd values sit a uniform ~700 cents apart
# (tone for tone).
_SPD_TONES = {
    0: {"lo": (500.0, 640.0), "hi": (750.0, 960.0)},
    1: {"lo": (850.0, 900.0), "hi": (1275.0, 1350.0)},
    2: {"lo": (380.0, 405.0, 430.0), "hi": (570.0, 607.5, 645.0)},
}
_MIC_TONES = {
    0: {"m1": (1600.0,), "m2": (1480.0, 1740.0)},
    1: {"m1": (2400.0, 2520.0), "m2": (3100.0,)},
    2: {"m1": (3900.0,), "m2": (1150.0, 1300.0)},
}
_SHIFTED_SPD_TONES = {
    0: (560.0, 1120.0),
    1: (1500.0, 1600.0),
    2: (2000.0, 2120.0),
}


def default_spec(seed: int = 2022) -> SynthSpec:
    """Three sections, two attributes with two values each (4 AGs per section).

    The target domain shares the source attribute values but sits on a higher
    noise floor. Anomalies are strong: every tone detunes and clicks are loud.
    """
    sections = tuple(
        _section(s, (3.0, 7.0, 13.0)[s], _SPD_TONES[s], _MIC_TONES[s]) for s in range(3)
    )
    return SynthSpec(
        machines=(MachineSpec(name="gizmo", sections=sections),),
        tone_jitter_cents=10.0,
        seed=seed,
    )


def shifted_spec(seed: int = 2022) -> SynthSpec:
    """Attribute-shifted variant: the target domain swaps the spd value set for
    an unseen operating point (new tones) and raises the noise floor.

    Groups here are heteroscedastic: some attribute values run steady while
    others wobble, so a single per-domain covariance is calibrated for none of
    them, whereas per-group covariances (and their trace-scaled shrinkage)
    adapt. Anomalies are a mild detune of every tone plus rare faint clicks.
    """
    base = default_spec(seed)
    machines = []
    for machine in base.machines:
        sections = []
        for section in machine.sections:
            spd = section.attributes[0]
            tones = dict(spd.tones_hz)
            tones["xt"] = _SHIFTED_SPD_TONES[section.section_id]
            mic = replace(
                section.attributes[1], jitter_scale_by_value={"m1": 0.5, "m2": 1.6}
            )
            sections.append(
                replace(
                    section,
                    attributes=(
                        replace(
                            spd,
                            target_values=("xt",),
                            tones_hz=tones,
                            jitter_scale_by_value={"lo": 0.3, "hi": 2.4, "xt": 1.0},
                        ),
                        mic,
                    ),
                    counts=replace(
                        section.counts,
                        train_target=8,
                        test_normal_source=20,
                        test_anomalous_source=20,
                        test_normal_target=16,
                        test_anomalous_target=16,
                    ),
                )
            )
        machines.append(replace(machine, sections=tuple(sections)))
    return replace(
        base,
        machines=tuple(machines),
        noise_amp_target=0.016,
        tone_jitter_cents=25.0,
        anomaly=AnomalySpec(detune_cents=45.0, clicks_per_second=0.25, click_amp=0.04),
    )


PRESETS = {"default": default_spec, "shifted": shifted_spec}


# --- spec (de)serialization ---------------------------------------------------


def spec_to_json(spec: SynthSpec) -> str:
    return json.dumps(to_dict(spec), indent=2, sort_keys=True)


def load_spec(path: str | Path) -> SynthSpec:
    try:
        return from_dict(SynthSpec, json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SynthSpecError(f"bad synth spec {path}: {exc}") from exc
