import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out.strip()
    assert "nan" not in out


def test_readme_example_runs(capsys):
    # the quick start's one python block, run as written
    readme = ROOT / "README.md"
    _, block, *rest = readme.read_text().split("```python\n")
    assert rest == []
    exec(compile(block.split("```")[0], str(readme), "exec"), {})
    out = capsys.readouterr().out
    assert out.strip()
    assert "nan" not in out
