"""Atomic replacement of the JSON documents processes exchange."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


def write_json_atomic(path: Path, payload: Any, **dumps_kwargs: Any) -> None:
    """Write ``payload`` to ``path`` (directories created) through a
    rename: a reader, or a crash mid-write, sees the previous file or the
    whole new one.  One writer per path at a time — ``ResultCache.put``
    has concurrent writers of one key and keeps its ``mkstemp`` variant.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, **dumps_kwargs), "utf-8")
    tmp.replace(path)
