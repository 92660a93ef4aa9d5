"""The README's quick start and the package's public names."""

import ast
import re
from pathlib import Path

import rmnml

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = Path(rmnml.__file__).resolve().parent


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), "README.md quick start", "exec"), {})


def test_public_names_resolve_once():
    names = rmnml.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(rmnml, name)] == []


def test_closed_form_xi_stays_in_validation():
    # one kernel: the library reads xi and its derivatives from the moment
    # kernel, and the paper's closed form is an oracle of the validation suites
    closed_form = {"xi", "xi_derivatives"}
    offenders = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.stem == "validation":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names & closed_form]
    assert offenders == []
