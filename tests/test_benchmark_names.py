"""The names the benchmark's tracer wraps must exist.

``perfbench/child.py`` looks up each ``(owner, attr)`` pair of its
``TRACED`` table with ``getattr`` when run with ``--trace 1``; a renamed
or deleted function would make the traced benchmark fail.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # child.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.TRACED
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in child.TRACED
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, missing
