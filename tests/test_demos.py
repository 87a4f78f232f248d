"""Every demo runs standalone against the source tree and leaves no
temporary files behind."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tightrep

DEMOS = sorted(
    (Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    src = Path(tightrep.__file__).resolve().parent.parent
    workdir, tmpdir = tmp_path / "work", tmp_path / "tmp"
    workdir.mkdir()
    tmpdir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        timeout=120, cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmpdir)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    assert list(tmpdir.iterdir()) == []
