"""`import ampletori` loads no stdlib module that no request needs.

Every CLI call is a fresh process, so the package import is paid per
request. `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, and
each `@dataclass` runs `exec` on generated methods; `hashlib` loads OpenSSL.
The records are NamedTuples and the Cantor–Zassenhaus seed is a str that
`random` hashes itself, so neither is needed. `importlib.resources` costs
about a quarter of the import under `python -S`; only the corpus needs it.
"""

import ast
import subprocess
import sys

import pytest

from test_fraction_imports import PACKAGE, _imported_modules

UNNEEDED = ("dataclasses", "inspect", "hashlib")


def _loaded_by_import(modules: tuple[str, ...]) -> list[str]:
    """The given modules that a fresh `python -S` has loaded after `import ampletori`."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ampletori; "
        f"print(sorted(m for m in {modules!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    return ast.literal_eval(out.strip())


def test_a_fresh_interpreter_imports_the_package_without_them():
    assert _loaded_by_import(UNNEEDED) == []


def test_the_corpus_modules_load_only_where_the_corpus_is_read():
    # `importlib.resources` (with pathlib, zipfile and tempfile) is imported
    # inside corpus_dir and verify_paper_examples, so it is not in UNNEEDED,
    # whose AST check also sees imports inside functions
    assert _loaded_by_import(("importlib.resources", "pathlib", "zipfile", "tempfile")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_them(path):
    assert not _imported_modules(ast.parse(path.read_text())) & set(UNNEEDED)
