"""Whole-file writes: a reader sees the old file or the new one, never half of one."""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path: str | Path, mode: str = "wb", **open_kwargs):
    """A handle, opened with ``mode`` and ``open_kwargs``, on a sibling temp
    file named per process and thread. When the block ends the temp file is
    renamed over ``path``; when it raises the temp file is deleted and
    ``path`` keeps its old bytes. So no reader sees, and no failed or crashed
    writer leaves, a half-written ``path``."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    handle = tmp.open(mode, **open_kwargs)
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
