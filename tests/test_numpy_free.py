"""conf2 runs without numpy or dataclasses: no source file imports them, and no CLI run loads them.

numpy stays a test dependency, the independent reference of
`gf2_reference`.  The records are named tuples and plain classes, so a
run also skips importing `dataclasses` and the `inspect` it pulls in,
which cost start-up time on every run.  Each run here is a fresh
interpreter that calls `conf2.cli.main` and then reports which of
those modules are in `sys.modules`.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SWEEP = ("sphere", "orientable:1", "orientable:2", "nonorientable:1", "nonorientable:2", "nonorientable:3")
UNLOADED = ("numpy", "dataclasses", "inspect")

# Runs the CLI with the given arguments and prints, after its own output, which UNLOADED modules were loaded.
WRAPPER = f"""
import sys
from conf2.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print("loaded:", [name for name in {UNLOADED!r} if name in sys.modules], file=sys.stderr)
sys.exit(code)
"""

RUNS = {
    "help": ["--help"],
    "sweep with paper check": [arg for label in SWEEP for arg in ("--surface", label)] + ["--paper-check"],
    "triangulation file": ["--triangulation", str(SRC / "conf2" / "data" / "torus.tri")],
    "symbolic at genus 64": ["--no-oracle", "--surface", "orientable:64"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_leaves_numpy_unloaded(name):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, *RUNS[name]], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == "loaded: []"


def test_no_source_file_imports_numpy():
    pattern = re.compile(r"^\s*(import|from)\s+(numpy|dataclasses)\b", re.MULTILINE)
    offenders = [str(p.relative_to(ROOT)) for p in sorted(SRC.rglob("*.py")) if pattern.search(p.read_text())]
    assert offenders == []
