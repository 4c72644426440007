"""The package's public names: __all__ and the attributes agree, and no
module reads another's private gfmatrix names."""

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
