"""Every name a package module imports is used in that module, only
rootdata reads the structure-constant table and the full list of the Weyl
group, only the listed functions walk W-orbits, no module brackets basis elements of g or g_r one at a time, CPoly is
read only in linalg and at the API edge, and sparse sums and inner products
are written out only in linalg."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wildstrat"
MODULES = sorted(SRC.glob("*.py"))


def test_module_guards_see_the_package():
    """The guards below are parametrised over MODULES; a copy of the suite run
    away from the package would collect none of them and report them skipped."""
    assert len(MODULES) >= 11, f"found {len(MODULES)} modules under {SRC}"


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def attribute_reads(source, attr):
    """Line numbers at which `source` reads the attribute `attr` of any object."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr)


def test_attribute_reads_finds_a_read():
    assert attribute_reads("x = rd.nsc.get(k)\ny = nsc\nz = a.b.nsc\n", "nsc") == [1, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rootdata.py"],
                         ids=lambda p: p.name)
def test_only_rootdata_reads_nsc(path):
    """Every other module brackets through rootdata.letter_bracket."""
    assert attribute_reads(path.read_text(), "nsc") == [], path.name


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "rootdata.py"],
                         ids=lambda p: p.name)
def test_only_rootdata_reads_weyl(path):
    """Every other module walks W-orbits through strat.weyl_orbit."""
    assert attribute_reads(path.read_text(), "weyl") == [], path.name


def basis_calls(source):
    """Line numbers at which `source` calls GElement.basis or TcElement.basis."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "basis" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in ("GElement", "TcElement"))


def test_basis_calls_finds_both_classes():
    source = ("b = list(GElement.basis(rd))\nc = TcElement.basis(rd, 2)\n"
              "d = rd.center_basis()\ne = weight_basis(mu)\nf = m.basis\n")
    assert basis_calls(source) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_per_basis_element_loops(path):
    """ad_x on g is filled from letter_bracket and ad_x on g_r from one ad
    matrix per coefficient; no module builds g or g_r as basis elements to
    bracket them one at a time (the per-basis forms are oracles in tests/)."""
    assert basis_calls(path.read_text()) == [], path.name


def name_reads(source, name):
    """The qualified names of the functions in `source` that read `name`, as a
    name or as an attribute of any object (the module's own top level is "")."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                if (isinstance(child, ast.Name) and child.id == name
                        or isinstance(child, ast.Attribute) and child.attr == name):
                    found.add(scope)
                walk(child, scope)

    walk(ast.parse(source), "")
    return found


def test_name_reads_finds_the_enclosing_function():
    source = ("from m import P\nclass A:\n    def f(self):\n        return [P()]\n"
              "def g():\n    def h():\n        return m.P\n    return h\nx = P\n"
              "def k():\n    return m.Q\n")
    assert name_reads(source, "P") == {"A.f", "g.h", ""}


# The functions that walk W-orbits.  |W| and stabiliser orders come from
# strat.reflection_order (Steinberg's theorem), not from walks over W.
WEYL_ORBIT_CALLERS = {"strat.py": {"weyl_orbits", "reflection_order"},
                      "parab.py": {"height_functional"},
                      "orbit.py": {"classify_unmarked"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_listed_functions_walk_weyl_orbits(path):
    assert name_reads(path.read_text(), "weyl_orbit") <= WEYL_ORBIT_CALLERS.get(
        path.name, set()), path.name


# The dilated engine runs on rationals; CPoly entries are built only here.
CPOLY_EDGE = {"singmod.py": {"ShapovalovBlock.matrix", "SingularityModule._cyclic_coeff",
                             "factorize_block", "reassemble"},
              "quant.py": {"invert_block"}}


def test_uea_reads_no_cpoly():
    assert name_reads((SRC / "uea.py").read_text(), "CPoly") == set()


def imported(source):
    """The names that the import statements of `source` import, before any `as`."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def test_imported_sees_through_aliases():
    source = "from fractions import Fraction as F\nimport fractions\nfrom .linalg import One, acc\n"
    assert imported(source) == {"Fraction", "fractions", "One", "acc"}


def test_uea_stays_integral():
    """The engine's unit is the int 1: uea imports neither Fraction nor One,
    so V0, which has no scalars, keeps int coefficients."""
    assert imported((SRC / "uea.py").read_text()) & {"Fraction", "fractions", "One"} == set()


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_cpoly_only_at_the_api_edge(path):
    """Outside linalg, CPoly is read only by the API-edge functions."""
    assert name_reads(path.read_text(), "CPoly") <= CPOLY_EDGE.get(path.name, set()), path.name


def hand_rolled_sums(source):
    """Line numbers at which `source` accumulates or pairs by hand: an
    assignment d[k] = d.get(...) +/- ... to one dict d, or a
    sum(<product> for ... in zip(...) or range(...))."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            value = node.value
            if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub)):
                owners = {ast.dump(t.value) for t in node.targets if isinstance(t, ast.Subscript)}
                gets = {ast.dump(side.func.value) for side in (value.left, value.right)
                        if isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute)
                        and side.func.attr == "get"}
                if owners & gets:
                    found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "sum" and node.args
              and isinstance(node.args[0], ast.GeneratorExp)):
            gen = node.args[0]
            it = gen.generators[0].iter
            if (isinstance(gen.elt, ast.BinOp) and isinstance(gen.elt.op, ast.Mult)
                    and isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id in ("zip", "range")):
                found.append(node.lineno)
    return sorted(found)


def test_hand_rolled_sums_finds_both_patterns():
    source = ("d[k] = d.get(k, 0) + v\n"
              "e[k] = d.get(k, 0) - v\n"
              "out[i, j] = out.get((i, j), Zero) - y * x\n"
              "s = sum(a * b for a, b in zip(u, v))\n"
              "t = sum((co[a] * g[a] for a in range(n)), Zero)\n"
              "n = sum(len(w) for w in zip(u, v))\n"
              "m = sum(a * b for a, b in pairs)\n"
              "acc(d, k, v)\n")
    assert hand_rolled_sums(source) == [1, 3, 4, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_sums_and_pairings_only_in_linalg(path):
    """Outside linalg, sparse sums go through linalg.acc and inner products
    through linalg.dot or linalg.mat_vec."""
    assert hand_rolled_sums(path.read_text()) == [], path.name
