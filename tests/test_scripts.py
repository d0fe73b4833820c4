"""Smoke tests: the scripts in scripts/ run and print what they promise."""

import os
import subprocess
import sys
from pathlib import Path

import matrange

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    # the scripts import the same matrange this suite imports
    src = str(Path(matrange.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout


def test_split_pattern_grid_script():
    code, out = run_script("split_pattern_grid.py", "4", "4")
    assert code == 0
    assert "all entries confirmed by both rank oracle variants" in out


def test_range_tables_script_finds_the_shifted_trv():
    code, out = run_script("range_tables.py", "4")
    assert code == 0
    block = out.split("== z^2 (z-1)^2 + 1 ==")[1].split("==")[0]
    # TRV 1: every root of z^2 (z-1)^2 + 1 = 1 is double
    assert "  n=2: case III, unreachable at 1: {2}\n" in block
    assert "  n=4: case III, unreachable at 1: {2}, {3}, {4}, {3,1}\n" in block
