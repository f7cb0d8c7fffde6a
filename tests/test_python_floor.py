"""The code runs on Python 3.10, the oldest version pyproject.toml admits.

Only a newer interpreter may be at hand, so these checks read the source
instead of running it: every file must parse with the 3.10 grammar, and
every ``int.to_bytes``/``int.from_bytes`` call must pass the length and the
byte order, which became optional only in 3.11.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
IDS = [str(p.relative_to(ROOT)) for p in FILES]


@pytest.mark.parametrize("path", FILES, ids=IDS)
def test_parses_with_the_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", FILES, ids=IDS)
def test_byte_conversions_name_length_and_byte_order(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("to_bytes", "from_bytes"):
            given = len(node.args) + sum(k.arg in ("length", "bytes", "byteorder") for k in node.keywords)
            assert given >= 2, f"{path.name}:{node.lineno}: {node.func.attr} needs its length and byte order"
