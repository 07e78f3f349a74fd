"""Rationals exist only where JSON text is read.

The linear algebra (linalg), the polynomials (polynomials), the root disks
(realsplit), the certified logs (intervals), the Galois data (places), the
S-ampleness decision (torus), the units (units), the generator sets and
their sanity checks (matgroups), the conjugator search (conjugacy) and the
pipeline (pipeline) hold every value as an int; an import of `fractions`
there is the first step of a Fraction slipping back in. serialize reads a
JSON number into an int or, when it is not an integer, a Fraction, and
etale names Fraction only in `coordinates`, the library's rational view of
an element.
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ampletori import pipeline

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
        "linalg.py",
        "polynomials.py",
        "realsplit.py",
        "intervals.py",
        "places.py",
        "torus.py",
        "units.py",
        "matgroups.py",
        "conjugacy.py",
        "pipeline.py",
    ],
)
def test_integer_layers_do_not_import_fractions(name):
    tree = ast.parse((PACKAGE / name).read_text())
    assert "fractions" not in _imported_modules(tree)


def test_the_check_sees_an_import_of_fractions():
    for source in ("from fractions import Fraction", "import fractions", "def f():\n    import fractions"):
        assert "fractions" in _imported_modules(ast.parse(source))


def _scopes_naming(tree: ast.Module, name: str) -> set[str]:
    """The top-level definition around each read of name, "<module>" outside
    one; an import binds the name without reading it."""
    return {
        getattr(node, "name", "<module>")
        for node in tree.body
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and sub.id == name
    }


def test_etale_names_fraction_only_in_coordinates():
    assert _scopes_naming(ast.parse((PACKAGE / "etale.py").read_text()), "Fraction") == {"coordinates"}


def test_the_check_sees_fraction_named_elsewhere():
    source = "from fractions import Fraction\ndef f():\n    return Fraction(1)\nclass C:\n    x: Fraction\nHALF = Fraction(1, 2)"
    assert _scopes_naming(ast.parse(source), "Fraction") == {"f", "C", "<module>"}


def test_verify_paper_makes_fractions_only_for_non_integer_entries(monkeypatch):
    # the four "p/q" entries of ex 5.4's expected matrices, read by parse_frac
    callers, new = [], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    rows = pipeline.verify_paper_examples()
    assert all(r["pass"] for r in rows)
    assert callers == ["parse_frac"] * 4
