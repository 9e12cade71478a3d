"""The benchmark's traced run wraps quatsurf functions under the names their
callers look up; a rename in the package must fail here instead of quietly
zeroing a per-layer metric."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names no caller looks up any more; their metrics read 0 until the benchmark is retargeted
STALE = {"quatsurf.census.fundamental_masks", "quatsurf.quatalg.fundamental_discriminants"}


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # restores sys.path, with traced's own insert, on undo
    import traced

    q = traced._import_quatsurf(ROOT)
    missing = []
    with traced.installed(traced._patches(traced.Tracer(), q), missing):
        pass
    assert set(missing) <= STALE, sorted(set(missing) - STALE)
