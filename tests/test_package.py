import ast
import sys
from pathlib import Path

import bessel_tr
from bessel_tr import CorrelatorTable, partition_function, principal_specialize


def test_readme_worked_example():
    table = CorrelatorTable()
    assert str(table.value(2, (3, 1))) == "9/128"
    psi = principal_specialize(partition_function(table, 4))
    coeffs = [str(psi.coefficient([(1, d)])) for d in range(5)]
    assert coeffs == ["1", "1/8", "9/128", "75/1024", "3675/32768"]


def test_sources_import_only_stdlib_and_hold_no_floats():
    # the README's invariants: no runtime dependencies, so every import is
    # stdlib or package-relative, and no floating point anywhere
    sources = sorted(Path(bessel_tr.__file__).parent.glob("*.py"))
    assert sources
    offences = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                modules = []
            offences += [
                (path.name, node.lineno, name)
                for name in modules
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offences.append((path.name, node.lineno, repr(node.value)))
            if isinstance(node, ast.Name) and node.id == "float":
                offences.append((path.name, node.lineno, "float"))
    assert offences == []
