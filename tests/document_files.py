"""Engine documents as their checkpoint files hold them.

:func:`repro.state.encode_engine` hands a window's event columns to
the writer as views of the engine's event store, packed only as
:func:`repro.state.save_json_atomic` writes them, so the document
itself is not ``json.dumps``-able.  A test that compares, edits or
restores a document goes through the file, as ``--resume`` does.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any

from repro.state import load_json, save_json_atomic


def written(document: dict[str, Any]) -> str:
    """The text :func:`save_json_atomic` writes for ``document``."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "document.json"
        save_json_atomic(document, path)
        return path.read_text(encoding="ascii")


def reloaded(document: dict[str, Any]) -> dict[str, Any]:
    """``document`` as :func:`load_json` reads its file back."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "document.json"
        save_json_atomic(document, path)
        return load_json(path)
