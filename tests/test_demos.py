"""Every narrative demo under ``demos/``, and the README's quick start, runs to completion
against ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rpd import EmbeddingMatrix, save_embeddings

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def quick_start() -> str:
    """The ``python`` block under the README's "## Quick start" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    # sgns.txt (word2vec text) and glove.txt (GloVe text: no header) share w20-w49.
    rng = np.random.default_rng(0)
    words = tuple(f"w{i}" for i in range(70))
    save_embeddings(EmbeddingMatrix(words[:50], rng.standard_normal((50, 6))),
                    tmp_path / "sgns.txt")
    save_embeddings(EmbeddingMatrix(words[20:], rng.standard_normal((50, 4))),
                    tmp_path / "glove.txt")
    glove = (tmp_path / "glove.txt").read_text(encoding="utf-8")
    (tmp_path / "glove.txt").write_text(glove.split("\n", 1)[1], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(quick_start(), "README.md quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[1] == "30"
    assert lines[-1].split()[1] in ("reject", "fail_to_reject")
