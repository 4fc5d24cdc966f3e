"""Seeded synthetic corpus with attribute-driven acoustic structure.

Each attribute value maps to an explicit set of sinusoids, so clips in the
same attribute group share a spectral signature (chord intervals and tone
counts differ between groups to stay distinguishable after pooling). Sections
get distinct amplitude-modulation rates, domains differ by noise floor (and,
in the shifted preset, by one attribute's value set), and anomalies are
detuned tones plus broadband transient clicks. Per-clip RNG streams are
derived from (seed, clip_id), so generation is deterministic regardless of
order or parallelism.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import from_dict, to_dict
from .dsp import write_wav_mono
from .errors import HmicError
from .metadata import ClipMeta, ManifestEntry, write_manifest


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
    detune_cents: float = 250.0
    clicks_per_second: float = 5.0
    click_amp: float = 0.35
    # None detunes every tone; an attribute name detunes only that attribute's
    # tones (an off-spec operating point between nominal values).
    detune_attr: str | None = None
    # Ghost mode: the anomalous machine additionally excites a sibling value's
    # tone set for this attribute (two operating points sounding at once).
    ghost_attr: str | None = None
    ghost_amp: float = 0.0  # relative to tone_amp


@dataclass(frozen=True)
class SynthSpec:
    machines: tuple[MachineSpec, ...]
    sample_rate_hz: int = 16000
    clip_seconds: float = 2.0
    tone_amp: float = 0.07
    am_depth: float = 0.5
    tone_jitter_cents: float = 0.0  # per-clip natural detune on every clip
    noise_amp_source: float = 0.004
    noise_amp_target: float = 0.010
    anomaly: AnomalySpec = field(default_factory=AnomalySpec)
    seed: int = 2022

    def validate(self) -> None:
        nyquist = self.sample_rate_hz / 2.0
        if not self.machines:
            raise SynthSpecError("spec has no machine types")
        for machine in self.machines:
            for section in machine.sections:
                counts = section.counts
                for name, value in vars(counts).items():
                    if value <= 0:
                        raise SynthSpecError(
                            f"{machine.name}/section {section.section_id}: {name} must be > 0"
                        )
                if not section.attributes:
                    raise SynthSpecError(
                        f"{machine.name}/section {section.section_id} has no attributes"
                    )
                for attr in section.attributes:
                    for value in set(attr.source_values) | set(attr.target_values):
                        tones = attr.tones_hz.get(value)
                        if not tones:
                            raise SynthSpecError(
                                f"no tones for {attr.name}={value} in section {section.section_id}"
                            )
                        worst_cents = self.anomaly.detune_cents + (
                            self.tone_jitter_cents * attr.jitter_scale(value)
                        )
                        detune = 2.0 ** (worst_cents / 1200.0)
                        if max(tones) * detune >= nyquist:
                            raise SynthSpecError(
                                f"tone {max(tones)} Hz (detuned) exceeds Nyquist {nyquist} Hz"
                            )


@dataclass(frozen=True)
class ClipPlan:
    meta: ClipMeta
    filename: str  # relative to the corpus root
    machine: MachineSpec
    section: SectionSpec
    tones_by_attr: tuple[tuple[str, tuple[float, ...]], ...]
    anomalous: bool
    ghost_tones_hz: tuple[float, ...] = ()
    jitter_scale_per_tone: tuple[float, ...] = ()

    @property
    def tone_freqs_hz(self) -> tuple[float, ...]:
        return tuple(f for _, tones in self.tones_by_attr for f in tones)


def _combos(section: SectionSpec, domain: str) -> list[tuple[tuple[str, str], ...]]:
    per_attr = [
        [(attr.name, value) for value in attr.values_for(domain)]
        for attr in section.attributes
    ]
    return [tuple(combo) for combo in itertools.product(*per_attr)]


def _tones_for(section: SectionSpec, pairs) -> tuple[tuple[str, tuple[float, ...]], ...]:
    by_name = {attr.name: attr for attr in section.attributes}
    return tuple((name, tuple(by_name[name].tones_hz[value])) for name, value in pairs)


def _jitter_scales(section: SectionSpec, pairs) -> tuple[float, ...]:
    by_name = {attr.name: attr for attr in section.attributes}
    return tuple(
        by_name[name].jitter_scale(value)
        for name, value in pairs
        for _ in by_name[name].tones_hz[value]
    )


def _ghost_tones(section: SectionSpec, pairs, anomaly: AnomalySpec, idx: int):
    """Tone set of a sibling value of the ghost attribute, cycled per clip."""
    if anomaly.ghost_attr is None or anomaly.ghost_amp <= 0.0:
        return ()
    by_name = {attr.name: attr for attr in section.attributes}
    attr = by_name.get(anomaly.ghost_attr)
    if attr is None:
        return ()
    value = dict(pairs)[anomaly.ghost_attr]
    pool = [v for v in attr.source_values if v != value]
    if not pool:
        return ()
    return tuple(attr.tones_hz[pool[idx % len(pool)]])


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
                    anomalous = condition == "anomalous"
                    plans.append(
                        ClipPlan(
                            meta=meta,
                            filename=f"{machine.name}/{stem}.wav",
                            machine=machine,
                            section=section,
                            tones_by_attr=_tones_for(section, pairs),
                            anomalous=anomalous,
                            ghost_tones_hz=(
                                _ghost_tones(section, pairs, spec.anomaly, idx)
                                if anomalous
                                else ()
                            ),
                            jitter_scale_per_tone=_jitter_scales(section, pairs),
                        )
                    )
    return plans


def _clip_rng(seed: int, clip_id: str) -> np.random.Generator:
    digest = hashlib.sha256(clip_id.encode("utf-8")).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:8], "little")])
    )


def synthesize_clip(spec: SynthSpec, plan: ClipPlan) -> np.ndarray:
    """Render one clip: tone stack + section AM + domain noise (+ anomaly transform)."""
    rng = _clip_rng(spec.seed, plan.meta.clip_id)
    n = int(round(spec.clip_seconds * spec.sample_rate_hz))
    t = np.arange(n) / spec.sample_rate_hz
    n_main = len(plan.tone_freqs_hz)
    freqs = np.array(plan.tone_freqs_hz + plan.ghost_tones_hz, dtype=np.float64)
    if spec.tone_jitter_cents > 0.0:
        scales = np.ones(freqs.size)
        if plan.jitter_scale_per_tone:
            scales[:n_main] = plan.jitter_scale_per_tone
        bounds = spec.tone_jitter_cents * scales
        jitter = rng.uniform(-1.0, 1.0, freqs.size) * bounds
        freqs = freqs * 2.0 ** (jitter / 1200.0)
    if plan.anomalous:
        target_attr = spec.anomaly.detune_attr
        detunable = np.array(
            [
                target_attr is None or name == target_attr
                for name, tones in plan.tones_by_attr
                for _ in tones
            ]
            + [False] * len(plan.ghost_tones_hz)
        )
        freqs = np.where(detunable, freqs * 2.0 ** (spec.anomaly.detune_cents / 1200.0), freqs)
    phases = rng.uniform(0.0, 2.0 * np.pi, freqs.size)
    gains = spec.tone_amp * rng.uniform(0.85, 1.15, freqs.size)
    gains[n_main:] *= spec.anomaly.ghost_amp
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
    np.multiply(2.0 * np.pi * plan.section.am_rate_hz, t, out=scratch)
    scratch += am_phase
    np.sin(scratch, out=scratch)
    scratch *= spec.am_depth
    scratch += 1.0
    scratch /= 1.0 + spec.am_depth
    signal *= scratch
    noise_amp = spec.noise_amp_source if plan.meta.domain == "source" else spec.noise_amp_target
    rng.standard_normal(n, out=scratch)
    scratch *= noise_amp
    signal += scratch
    if plan.anomalous:
        n_clicks = max(1, int(round(spec.anomaly.clicks_per_second * spec.clip_seconds)))
        burst_len = int(0.004 * spec.sample_rate_hz)
        envelope = np.exp(-np.arange(burst_len) / (0.0015 * spec.sample_rate_hz))
        for start in rng.integers(0, n - burst_len, n_clicks):
            noise_burst = rng.standard_normal(burst_len)
            noise_burst /= np.max(np.abs(noise_burst))
            signal[start : start + burst_len] += spec.anomaly.click_amp * envelope * noise_burst
    peak = np.max(np.abs(signal))
    if peak > 0.99:
        raise SynthSpecError(
            f"{plan.meta.clip_id}: rendered peak {peak:.3f} too close to full scale; "
            f"lower tone_amp/click_amp"
        )
    return signal


def generate(spec: SynthSpec, out_dir: str | Path) -> Path:
    """Write the corpus (WAVs + manifest.csv + the spec echo); returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plans = plan_corpus(spec)
    entries = []
    for plan in plans:
        wav_path = out_dir / plan.filename
        wav_path.parent.mkdir(parents=True, exist_ok=True)
        write_wav_mono(wav_path, synthesize_clip(spec, plan), spec.sample_rate_hz)
        entries.append(ManifestEntry(meta=plan.meta, path=plan.filename))
    manifest_path = out_dir / "manifest.csv"
    write_manifest(entries, manifest_path)
    (out_dir / "synth_spec.json").write_text(spec_to_json(spec), encoding="utf-8")
    return manifest_path


# --- presets -----------------------------------------------------------------


def _section(section_id, am_rate, spd_tones, mic_tones, counts=ClipCounts()):
    return SectionSpec(
        section_id=section_id,
        attributes=(
            AttributeSpec(
                name="spd",
                source_values=tuple(spd_tones),
                target_values=(),
                tones_hz=dict(spd_tones),
            ),
            AttributeSpec(
                name="mic",
                source_values=tuple(mic_tones),
                target_values=(),
                tones_hz=dict(mic_tones),
            ),
        ),
        am_rate_hz=am_rate,
        counts=counts,
    )


# Per-section tone tables. The two spd values sit a uniform ~700 cents apart
# (tone for tone), so per-attribute detune experiments can place anomalies at a
# controlled fraction of the gap between nominal operating points.
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


def spec_to_dict(spec: SynthSpec) -> dict:
    return to_dict(spec)


def spec_from_dict(data: dict) -> SynthSpec:
    return from_dict(SynthSpec, data)


def spec_to_json(spec: SynthSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)


def load_spec(path: str | Path) -> SynthSpec:
    try:
        return spec_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise SynthSpecError(f"bad synth spec {path}: {exc}") from exc
