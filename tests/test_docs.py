"""The README's quick start and the package's public names."""

import re
from pathlib import Path

import rmnml

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), "README.md quick start", "exec"), {})


def test_public_names_resolve_once():
    names = rmnml.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(rmnml, name)] == []
