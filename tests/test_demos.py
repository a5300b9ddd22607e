"""Every demo script, and the README quick start, runs against the current public API."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start(capsys):
    # the first python block of the README prints 1.0, as its comment says
    text = (ROOT / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out == "1.0\n"
