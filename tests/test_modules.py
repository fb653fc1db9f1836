"""How the package's modules use each other: through public names only."""

import ast
from pathlib import Path

import pytest

import codedlf

SRC = Path(codedlf.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[tuple[int, str]]:
    """(line, "module._name") of every private name of a package module that
    `source` reads through an import of that module."""
    tree = ast.parse(source)
    modules, found = {}, []  # local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module == "codedlf"):
            if node.module in (None, "codedlf"):  # from . import m [as n]
                modules.update((a.asname or a.name, a.name) for a in node.names)
            else:  # from .m import name
                found += [(node.lineno, f"{node.module}.{a.name}")
                          for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Import):  # import codedlf.m as n
            modules.update((a.asname, a.name.split(".")[1]) for a in node.names
                           if a.asname and a.name.startswith("codedlf."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_finder_sees_each_way_of_reading_a_private_name():
    source = "\n".join([
        "from . import coding, tensor",
        "from . import autodiff as ad",
        "from .tensor import _HEADER, as_tensor5",
        "from codedlf import cs_dict",
        "import codedlf.calib as cal",
        "coding._GOLDEN, ad._relu(x), cs_dict._fista, cal._fit",
        "coding.encode, tensor.__name__, other._private, self._state",
    ])
    assert private_reads(source) == [
        (3, "tensor._HEADER"),
        (6, "autodiff._relu"), (6, "calib._fit"), (6, "coding._GOLDEN"), (6, "cs_dict._fista"),
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_reads_another_modules_private_names(module):
    assert private_reads((SRC / module).read_text()) == []
