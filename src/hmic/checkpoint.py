"""Versioned binary checkpoint: named float64 tensors plus an embedded JSON config,
and the dataclass <-> dict codec that every config and spec is serialised with.

Layout (little-endian throughout):
  magic "HMICCKPT" | u32 version | 32-byte config digest (sha256)
  u64 config length | config JSON (utf-8)
  u32 tensor count
  per tensor: u32 name length | name | u32 rank | u64 dims... | f64 data (row-major)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import typing
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"HMICCKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def config_digest(config: dict) -> str:
    """sha256 over the canonical JSON encoding of a config dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


to_dict = dataclasses.asdict


def from_dict(cls, data):
    """Rebuild dataclass ``cls`` from ``to_dict`` output or its JSON round trip.

    Nested dataclasses, ``tuple[...]`` and ``dict[...]`` fields are rebuilt from
    the type hints. Missing keys take the field defaults; unknown keys raise
    ``TypeError`` at every level.
    """
    if dataclasses.is_dataclass(cls):
        _expect(data, dict, f"an object for {cls.__name__}")
        hints = typing.get_type_hints(cls)
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise TypeError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
        return cls(**{name: from_dict(hints[name], value) for name, value in data.items()})
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin is tuple:
        _expect(data, (list, tuple), f"a list for {cls}")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(from_dict(args[0], item) for item in data)
        return tuple(from_dict(arg, item) for arg, item in zip(args, data, strict=True))
    if origin is dict:
        _expect(data, dict, f"an object for {cls}")
        key_type, value_type = args
        return {from_dict(key_type, k): from_dict(value_type, v) for k, v in data.items()}
    return data


def _expect(value, kind, what: str) -> None:
    if not isinstance(value, kind):
        raise TypeError(f"expected {what}, got {type(value).__name__}")


def save_checkpoint(
    path: str | Path, tensors: dict[str, np.ndarray], config: dict, digest: str
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    config_blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with path.open("wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<I", CHECKPOINT_VERSION))
        handle.write(bytes.fromhex(digest))
        handle.write(struct.pack("<Q", len(config_blob)))
        handle.write(config_blob)
        handle.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            data = np.ascontiguousarray(tensors[name], dtype="<f8")
            encoded = name.encode("utf-8")
            handle.write(struct.pack("<I", len(encoded)))
            handle.write(encoded)
            handle.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                handle.write(struct.pack("<Q", dim))
            handle.write(data.tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict, str]:
    """Returns (tensors, config dict, digest hex)."""
    path = Path(path)
    raw = path.read_bytes()
    view = memoryview(raw)
    offset = 0

    def take(count: int) -> memoryview:
        nonlocal offset
        if offset + count > len(raw):
            raise CheckpointError(f"{path}: truncated checkpoint")
        chunk = view[offset : offset + count]
        offset += count
        return chunk

    if bytes(take(8)) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    digest = bytes(take(32)).hex()
    (config_len,) = struct.unpack("<Q", take(8))
    config = json.loads(bytes(take(config_len)).decode("utf-8"))
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = bytes(take(name_len)).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank)) if rank else ()
        size = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(take(8 * size), dtype="<f8").reshape(dims).copy()
        tensors[name] = data
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return tensors, config, digest
