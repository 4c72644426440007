"""The package's public names: __all__ and the attributes agree, every
public function and method has a reader outside the tests, and no module
reads another's private gfmatrix names."""

import ast
from pathlib import Path

import ranklab


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from ranklab import *", namespace)
    assert set(ranklab.__all__) <= namespace.keys()
    assert len(set(ranklab.__all__)) == len(ranklab.__all__)
    for name in ranklab.__all__:
        assert namespace[name] is getattr(ranklab, name), name


def test_no_module_reads_a_private_gfmatrix_name():
    # gfmatrix's vector form and key convention live in gfmatrix alone:
    # no other module reads an underscore name of it, as gfmatrix._x or
    # from ranklab.gfmatrix import _x
    src = Path(ranklab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "gfmatrix.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "gfmatrix"):
                found.append((path.name, node.lineno, node.attr))
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "ranklab.gfmatrix"):
                found += [(path.name, node.lineno, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _probed(tracing: Path):
    """(module, name) of each module-level function and (class, name) of
    each method that bench/tracing.py probes: the module and attribute of
    every Probe(...) in it, an attribute Class.name naming a method."""
    out = set()
    for node in ast.walk(ast.parse(tracing.read_text(), str(tracing))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Probe"):
            module, attr = (a.value for a in node.args[1:3])
            owner, _, name = attr.rpartition(".")
            out.add((owner or module.split(".")[-1], name))
    return out


def test_every_public_function_is_reached_outside_the_tests():
    # a public module-level function is read by src code, exported in
    # ranklab.__all__, or probed by the benchmark's tracer; trial division
    # stays only as the tests' reference for Rabin's irreducibility test
    src = Path(ranklab.__file__).parent
    defined, used = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")}
        names, modules = {}, {}     # local name -> (module, name), module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "ranklab":
                modules.update((a.asname or a.name, a.name)
                               for a in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("ranklab.")):
                names.update((a.asname or a.name,
                              (node.module.split(".")[1], a.name))
                             for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(names.get(node.id, (path.stem, node.id)))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                used.add((modules[node.value.id], node.attr))
    exported = {(getattr(ranklab, name).__module__.split(".")[-1], name)
                for name in ranklab.__all__}
    unreached = defined - used - exported - _probed(TRACING)
    assert unreached == {("field", "is_irreducible_trial")}


def test_every_public_method_is_reached_outside_the_tests():
    # a public method or property of a ranklab class is read by src code,
    # as an attribute of its name on any object, or probed by the
    # benchmark's tracer; Subspace.contains stays only as the tests'
    # span-membership reference
    src = Path(ranklab.__file__).parent
    defined, read = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                defined |= {(node.name, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and not f.name.startswith("_")}
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unreached = {(owner, name) for owner, name in defined
                 if name not in read} - _probed(TRACING)
    assert unreached == {("Subspace", "contains")}
