import pytest

from hmic import model
from hmic.checkpoint import write_json
from hmic.config import RunConfig
from hmic.datagen import (
    AttributeSpec,
    ClipCounts,
    MachineSpec,
    SectionSpec,
    SynthSpec,
    generate,
)
from hmic.model import ModelConfig
from hmic.training import TrainConfig


# Input pixels of one micro test clip: 8 mel bands x 10 frames.
MICRO_CLIP_PIXELS = 8 * 10


@pytest.fixture(params=[1, 2], ids=["1-clip-chunks", "2-clip-chunks"])
def micro_chunks(request, monkeypatch):
    """Runs model batches of 8x8 or 8x10 clips in chunks of 1 or 2 clips (the
    parameter, returned), so 3 clips make three chunks, or two with a 1-clip
    remainder whose share of the batch differs from the first's."""
    monkeypatch.setattr(model, "_CHUNK_PIXELS", request.param * MICRO_CLIP_PIXELS)
    return request.param


def make_tiny_spec(seed=7):
    """Two sections, one attribute with two values; short clips for fast tests."""
    counts = ClipCounts(
        train_source=6,
        train_target=2,
        test_normal_source=4,
        test_anomalous_source=4,
        test_normal_target=3,
        test_anomalous_target=3,
    )
    sections = tuple(
        SectionSpec(
            section_id=s,
            attributes=(
                AttributeSpec(
                    name="spd",
                    source_values=("A", "B"),
                    target_values=(),
                    tones_hz={"A": (600.0 + 300 * s,), "B": (1800.0 + 300 * s,)},
                ),
            ),
            am_rate_hz=4.0 + 3 * s,
            counts=counts,
        )
        for s in range(2)
    )
    return SynthSpec(
        machines=(MachineSpec(name="gizmo", sections=sections),),
        clip_seconds=0.5,
        tone_jitter_cents=10.0,
        seed=seed,
    )


def make_tiny_config(seed=7):
    return RunConfig(
        model=ModelConfig(channels=(4, 8, 16), head_channels=16),
        train=TrainConfig(epochs=4, seed=seed),
    )


def _snapshot(root):
    """Relative path -> bytes of every file under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """A corpus shared by every module; tests must write elsewhere, which the
    teardown checks."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    manifest = generate(make_tiny_spec(), root)
    written = _snapshot(root)
    yield root, manifest
    changed = {path for path, _ in set(written.items()) ^ set(_snapshot(root).items())}
    assert not changed, f"tests changed the shared corpus: {sorted(changed)}"


@pytest.fixture(scope="session")
def tiny_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "run.json"
    write_json(path, make_tiny_config())
    return path
