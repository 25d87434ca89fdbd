"""Every name a package module imports is used in that module, and only
rootdata reads the structure-constant table."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wildstrat"


def unused_imports(source):
    """Names bound by the import statements of `source` that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_finds_an_unread_name():
    source = "from os import path, sep\nimport json\nprint(sep)\n"
    assert unused_imports(source) == [(1, "path"), (2, "json")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def attribute_reads(source, attr):
    """Line numbers at which `source` reads the attribute `attr` of any object."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr)


def test_attribute_reads_finds_a_read():
    assert attribute_reads("x = rd.nsc.get(k)\ny = nsc\nz = a.b.nsc\n", "nsc") == [1, 3]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "rootdata.py"],
                         ids=lambda p: p.name)
def test_only_rootdata_reads_nsc(path):
    """Every other module brackets through rootdata.letter_bracket."""
    assert attribute_reads(path.read_text(), "nsc") == [], path.name
