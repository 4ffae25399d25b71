"""Capability ladders: the largest inputs fussforest's CLI handles correctly.

Usage: python3 ladders.py SRC_DIR WORK_DIR

Runs in its own process, so that large rungs do not count towards a
workload's peak RSS, and prints one JSON line per rung as it goes, so a
crash still leaves the rungs before it.  Each ladder doubles its rung up
to a fixed top and stops at the first failure.  Nothing here raises the
recursion limit or the int-to-str digit limit: those are the program's
limits, and the ladders exist to show them.

- map: a colour-w leaf must map t2b to the right comb with w internal
  vertices and back again with b2t, and a ternary spine of weight w
  (w/2 internal vertices, each the last child of the one above) must
  round-trip the same way.
- number_k2, number_k5: ``number --k 2 --n n`` (and ``--k 5``) must print
  the count, checked modulo a prime without converting the digits to one
  int.  A rung of the number ladder passes when both pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback

import oracle

MAP_TOP = 1 << 17
NUMBER_TOP = 1 << 16


def _cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """Run cli.main in-process; returns (exit code or None, stdout, diagnostic)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except (RecursionError, ValueError, MemoryError) as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1].name
            return None, "", f"{type(exc).__name__} escaped cli.main in {where}(): {exc}"[:300]
    return rc, stdout.getvalue(), stderr.getvalue().strip()[:300]


def _map_once(cli, work: str, direction: str, text: str, expected: str) -> str | None:
    """Map one line; None when the output is `expected`, else what went wrong."""
    source = os.path.join(work, "ladder_in.txt")
    target = os.path.join(work, "ladder_out.txt")
    with open(source, "w", encoding="ascii") as stream:
        stream.write(text + "\n")
    if os.path.exists(target):
        os.remove(target)
    rc, _, diagnostic = _cli(cli, ["map", "--direction", direction, "--in", source, "--out", target])
    if rc != 0:
        return f"{direction}: exit {rc}: {diagnostic}"
    with open(target, encoding="ascii") as stream:
        if stream.read() != expected + "\n":
            return f"{direction}: wrong output"
    return None


def map_rung(cli, work: str, w: int) -> str | None:
    comb = "(L " * w + "L" + ")" * w
    half = max(1, w // 2)
    spine = [-1, 0, 0] * half + [0]
    spine_text = oracle.ternary_text(spine)
    spine_image = oracle.binary_text(oracle.encode(spine))
    for direction, text, expected in (("t2b", str(w), comb), ("b2t", comb, str(w)),
                                      ("t2b", spine_text, spine_image),
                                      ("b2t", spine_image, spine_text)):
        problem = _map_once(cli, work, direction, text, expected)
        if problem is not None:
            return problem
    return None


def number_rung(cli, k: int, n: int) -> str | None:
    rc, out, diagnostic = _cli(cli, ["number", "--k", str(k), "--n", str(n)])
    if rc != 0:
        return f"exit {rc}: {diagnostic}"
    digits = out[:-1]
    if not (out.endswith("\n") and digits.isdigit()):
        return "output is not one decimal line"
    if oracle.digits_mod(digits) != oracle.count_mod(n, k):
        return "wrong count"
    return None


def main() -> int:
    src, work = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from fussforest import cli

    for ladder, top, probe in (("map", MAP_TOP, lambda r: map_rung(cli, work, r)),
                               ("number_k2", NUMBER_TOP, lambda r: number_rung(cli, 2, r)),
                               ("number_k5", NUMBER_TOP, lambda r: number_rung(cli, 5, r))):
        rung = 1
        while rung <= top:
            problem = probe(rung)
            print(json.dumps({"ladder": ladder, "rung": rung, "problem": problem}), flush=True)
            if problem is not None:
                break
            rung *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
