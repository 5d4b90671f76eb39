"""Every third-party package ``src/repro`` imports is declared in pyproject."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _requirement_names(specs) -> set[str]:
    """Import names of PEP 508 requirement strings (``"numpy>=1.23"``)."""
    return {
        re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower().replace("-", "_")
        for spec in specs
    }


def _declared_by_regex(text: str) -> set[str]:
    """``[project] dependencies`` read without a TOML parser (Python 3.10)."""
    block = re.search(r"^dependencies = \[(.*?)^\]", text, re.M | re.S)
    assert block is not None, "no dependencies array in pyproject.toml"
    return _requirement_names(re.findall(r'"([^"]+)"', block.group(1)))


def _declared(text: str) -> set[str]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        return _declared_by_regex(text)
    return _requirement_names(tomllib.loads(text)["project"]["dependencies"])


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level imported name -> the files importing it, stdlib excluded."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(
                        str(path.relative_to(ROOT))
                    )
    return found


def test_every_third_party_import_is_declared():
    declared = _declared(PYPROJECT.read_text())
    undeclared = {
        name: sorted(files)
        for name, files in _third_party_imports().items()
        if name not in declared
    }
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"


def test_the_python_310_reader_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text()
    expected = _requirement_names(tomllib.loads(text)["project"]["dependencies"])
    assert _declared_by_regex(text) == expected
    assert {"numpy", "scipy", "orjson"} <= expected
