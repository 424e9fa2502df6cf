"""src/dedarr holds only what the CLI and the public API reach.

A top-level function or class that no other line of the package names,
and that ``dedarr.__all__`` does not export, is reached by the tests
alone; such references belong in tests/conftest.py.
"""

import ast
import re
from pathlib import Path

import dedarr

SRC = Path(dedarr.__file__).parent


def unreferenced_names():
    sources = {p: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    out = []
    for path, text in sources.items():
        lines = text.splitlines(keepends=True)
        others = "".join(t for p, t in sources.items() if p != path)
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in dedarr.__all__:
                continue
            # the definition itself, decorators included, does not count
            start = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            rest = "".join(lines[:start - 1] + lines[node.end_lineno:])
            if not re.search(rf"\b{re.escape(node.name)}\b", rest + others):
                out.append(f"{path.stem}.{node.name}")
    return out


def test_every_top_level_name_is_referenced():
    assert unreferenced_names() == []
