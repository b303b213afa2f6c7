"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    t = np.arange(80)
    cases = 40.0 + 12.0 * np.sin(2 * np.pi * t / 52) + np.random.default_rng(3).normal(size=80)
    np.savetxt(tmp_path / "cases.txt", cases)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    point = np.array(capsys.readouterr().out.strip(" []\n").split(), dtype=float)
    assert point.shape == (13,)
    assert np.all(np.isfinite(point))
