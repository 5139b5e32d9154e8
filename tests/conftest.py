"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def subprocess_env():
    """The environment of a ``python`` subprocess, with this checkout's
    ``src`` first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
