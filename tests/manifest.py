"""The determinism manifest (``tests/data/determinism.json``) and the message its tests fail with."""

import json
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).resolve().parent / "data" / "determinism.json"


def load_manifest() -> dict:
    """The manifest, checked to be made with this numpy, which does not promise the Generator stream across releases."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert np.__version__ == manifest["numpy"], \
        f"the manifest was made with numpy {manifest['numpy']}, this is numpy {np.__version__}"
    return manifest


def moved(digests: dict, pinned: dict, heading: str) -> str:
    """``heading``, each key whose digest moved as ``key: old → new``, then every digest as JSON to paste.

    A key only one side has reads ``(none)`` on the other.
    """
    lines = [f"  {key}: {pinned.get(key, '(none)')} → {digests.get(key, '(none)')}"
             for key in sorted(pinned.keys() | digests.keys()) if pinned.get(key) != digests.get(key)]
    return "\n".join([f"{heading}; moved:", *lines, "all digests:", json.dumps(digests, indent=2)])
