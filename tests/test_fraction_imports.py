"""The layers that run on integers alone do not import `fractions`.

The polynomials (polynomials), the root disks (realsplit), the certified
logs (intervals), the Galois data (places), the S-ampleness decision
(torus), the generator sets and their sanity checks (matgroups) and the
conjugator search (conjugacy) hold every value as an int; an import of
`fractions` there is the first step of a Fraction slipping back in.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ampletori"


def _imported_modules(tree: ast.AST) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
    return out


@pytest.mark.parametrize(
    "name",
    [
        "polynomials.py",
        "realsplit.py",
        "intervals.py",
        "places.py",
        "torus.py",
        "matgroups.py",
        "conjugacy.py",
    ],
)
def test_integer_layers_do_not_import_fractions(name):
    tree = ast.parse((PACKAGE / name).read_text())
    assert "fractions" not in _imported_modules(tree)


def test_the_check_sees_an_import_of_fractions():
    for source in ("from fractions import Fraction", "import fractions", "def f():\n    import fractions"):
        assert "fractions" in _imported_modules(ast.parse(source))
