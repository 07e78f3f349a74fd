"""Each walkthrough script in demos/ runs to the end in a fresh interpreter
and prints the bytes pinned for it."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


# sha256 of each demo's stdout; every demo prints the same bytes on every
# run, so a change here is a change to what a demo shows, made on purpose
DEMO_DIGESTS = {
    "01_exact_arithmetic.py": "f74619f6aa5f1cb9f362987f0c074445d4f756789407b7ded571aad37478b6ea",
    "02_etale_algebras.py": "a394f5206ef21e190013831d8c256c6c5d55cf10b82e415d37d2e42e678ea831",
    "03_galois_and_places.py": "3933144a401efb36e6b798c7255fd07f03f7285cc3133397b6cd455f87396aa7",
    "04_units.py": "4a55aedb4e7120d1c7a835075f65cc0aff667c5bb8e4b5cd29b53e7b17e77a1b",
    "05_ample_tori.py": "40f47f54e30123f93a1739ec9dd07fcd8ab191b95927baa69c3d396eecc8f27c",
    "06_reference_examples.py": "b64d9529b384b106ceb8e677a2884ba857290a5d4870e04b0bfcdaeeb49803dd",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_DIGESTS) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output_is_pinned(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo.name]
