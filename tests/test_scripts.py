"""The scripts under scripts/, each run as its own process from the checkout."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)


def test_identity_table_prints_matching_sides():
    proc = _run("identity_table.py", "--n-max", "12", "--m", "2")
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header.split("|")[0].strip() == "n" and set(rule) == {"-"}
    assert [row.split("|")[0].strip() for row in rows] == [str(n) for n in range(13)]
    assert "MISMATCH" not in proc.stdout
