"""Every example under ``examples/`` runs end to end, in process.

Each script runs as ``__main__`` through :func:`runpy.run_path`, on a fresh
default engine, so an API change that breaks an example fails tier-1.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from repro.engine import set_default_engine

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.fixture(autouse=True)
def fresh_default_engine():
    """Each example starts, and leaves, with no default session."""
    set_default_engine(None)
    yield
    set_default_engine(None)


def test_every_example_is_collected():
    assert len(EXAMPLES) == 14


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
