"""Persist experiment artifacts to JSON.

The figure/table regenerators return structured objects; this module
round-trips them through JSON so expensive regenerations can be archived
(``benchmarks`` writes them via ``--benchmark-json``; ``docgen`` uses this
store for EXPERIMENTS.md provenance).

:func:`atomic_write_text` is the one sanctioned way to write text files
that a later run reads back or commits: temp file in the destination
directory + ``os.replace``, always ``utf-8``.  :func:`save_artifact` and
:func:`repro.harness.docgen.generate` (EXPERIMENTS.md) write through it —
a crash mid-write must leave either the old file or the new one, never a
truncated hybrid, and the bytes on disk must not depend on the host's
locale (EXPERIMENTS.md holds non-ASCII text, starting with its title).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union

from ..errors import ReproError
from .figures import FigureResult
from .tables import TableResult

__all__ = ["atomic_write_text", "save_artifact", "load_artifact"]


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Atomically replace ``path``'s contents with ``text`` (utf-8).

    The text is written to a temp file in the destination directory and
    moved into place with ``os.replace``, so readers only ever observe the
    previous complete file or the new complete file.  Parent directories
    are created as needed; the temp file is removed on any failure.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path

Artifact = Union[FigureResult, TableResult]


def _to_dict(artifact: Artifact) -> dict:
    if isinstance(artifact, FigureResult):
        return {
            "kind": "figure",
            "name": artifact.name,
            "description": artifact.description,
            "series": artifact.series,
            "averages": artifact.averages,
            "notes": artifact.notes,
        }
    if isinstance(artifact, TableResult):
        return {
            "kind": "table",
            "name": artifact.name,
            "description": artifact.description,
            "headers": artifact.headers,
            "rows": artifact.rows,
            "notes": artifact.notes,
        }
    raise ReproError(f"not an artifact: {type(artifact).__name__}")


def save_artifact(artifact: Artifact, path: Union[str, Path]) -> Path:
    """Write an artifact to ``path`` as JSON; returns the path.

    The write is atomic and explicitly utf-8 (:func:`atomic_write_text`):
    the old ``write_text`` path could leave truncated JSON behind after a
    crash mid-write — which :func:`load_artifact` then raised on — and its
    byte encoding depended on the host locale.
    """
    return atomic_write_text(
        path, json.dumps(_to_dict(artifact), indent=2, sort_keys=True)
    )


def load_artifact(path: Union[str, Path]) -> Artifact:
    """Read an artifact previously written by :func:`save_artifact`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    kind = data.get("kind")
    if kind == "figure":
        return FigureResult(
            name=data["name"],
            description=data["description"],
            series=data["series"],
            averages=data.get("averages", {}),
            notes=data.get("notes", []),
        )
    if kind == "table":
        return TableResult(
            name=data["name"],
            description=data["description"],
            headers=data["headers"],
            rows=data["rows"],
            notes=data.get("notes", []),
        )
    raise ReproError(f"unknown artifact kind {kind!r} in {path}")
