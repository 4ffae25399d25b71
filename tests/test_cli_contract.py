r"""The CLI contract: each row of cli_contract.json, run as `python -m fussforest`.

A row gives the argv and what goes in: "stdin" and "files" (written to the
row's own working directory), each a text, a {"stdout_of": row} or a list
of such pieces, where {"text": t, "times": n} repeats a text; text is one
byte a character (latin-1). "env" sets variables for the run (null unsets
one), "cpus": 1 pins it to one CPU, and "stdout_to" sends stdout to a path
such as /dev/full. It gives what comes out: "exit" (0 if absent), stderr as
"stderr" exactly or as "stderr_match", a pattern it must match whole, and
captured stdout as "stdout" exactly or by its "sha256" ("" if neither).
"why" says what a row is there for.

The table is read as ASCII, so a byte above 0x7f is written \u00XX, as the
rows that feed byte 0xff write \u00ff. A row with neither "stderr" nor
"stderr_match" leaves stderr unchecked, as argparse's own errors, whose
text varies by Python version, need. A range error's row states only its
shape, "error: [^\n]*\n": its text has one home, BELOW_LEAST in
test_shared.py.

Nothing here imports fussforest, so the rows test the package that
`python -m fussforest` finds: the checkout under PYTHONPATH=src, or the
installed one.
"""

import contextlib
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

TABLE = Path(__file__).with_name("cli_contract.json")
ROWS = {}
for row in json.loads(TABLE.read_text(encoding="ascii")):  # a repeated name fails collection
    assert ROWS.setdefault(row["name"], row) is row, f"two rows are named {row['name']!r}"
KEYS = {"name", "why", "argv", "stdin", "files", "env", "cpus", "stdout_to",
        "exit", "stderr", "stderr_match", "stdout", "sha256"}
SRC = Path(__file__).resolve().parent.parent / "src"


@functools.cache
def _env() -> dict[str, str]:
    """The caller's environment with PYTHONPATH made absolute, since each row runs
    in a directory of its own; src/ goes first only where no fussforest is
    importable, as in a checkout that was never installed."""
    paths = [os.path.abspath(path) for path in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if path]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    if subprocess.run([sys.executable, "-c", "import fussforest"], env=env,
                      capture_output=True).returncode:
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), *paths])
    return env


def _bytes(pieces) -> bytes:
    pieces = pieces if isinstance(pieces, list) else [pieces]
    return b"".join(piece.encode("latin-1") if isinstance(piece, str)
                    else piece["text"].encode("latin-1") * piece["times"] if "text" in piece
                    else _stdout_of(piece["stdout_of"]) for piece in pieces)


def _run(row: dict) -> subprocess.CompletedProcess:
    env = {name: value for name, value in {**_env(), **row.get("env", {})}.items()
           if value is not None}
    pin = (functools.partial(os.sched_setaffinity, 0, {min(os.sched_getaffinity(0))})
           if row.get("cpus") == 1 else None)
    target = (open(row["stdout_to"], "wb") if "stdout_to" in row
              else contextlib.nullcontext(subprocess.PIPE))
    with tempfile.TemporaryDirectory() as cwd, target as stdout:
        for name, pieces in row.get("files", {}).items():
            Path(cwd, name).write_bytes(_bytes(pieces))
        return subprocess.run(
            [sys.executable, "-m", "fussforest", *row["argv"]], input=_bytes(row.get("stdin", "")),
            stdout=stdout, stderr=subprocess.PIPE, cwd=cwd, env=env, preexec_fn=pin, timeout=300)


@functools.cache
def _stdout_of(name: str) -> bytes:
    proc = _run(ROWS[name])
    assert proc.returncode == 0, (name, proc.stderr)
    return proc.stdout


@pytest.mark.parametrize("name", ROWS)
def test_row(name):
    row = ROWS[name]
    assert set(row) <= KEYS, sorted(set(row) - KEYS)
    if row.get("cpus") == 1 and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no os.sched_setaffinity to pin a run to one CPU")
    proc = _run(row)
    stderr = proc.stderr.decode("latin-1")
    assert proc.returncode == row.get("exit", 0), stderr
    if "stderr" in row:
        assert stderr == row["stderr"]
    if "stderr_match" in row:
        assert re.fullmatch(row["stderr_match"], stderr), stderr
    if "sha256" in row:
        assert hashlib.sha256(proc.stdout).hexdigest() == row["sha256"]
    elif "stdout_to" not in row:
        assert proc.stdout == row.get("stdout", "").encode("latin-1")
