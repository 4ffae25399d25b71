#!/usr/bin/env python3
"""Print the four identities side by side over a small range.

Usage: python scripts/identity_table.py [--n-max N] [--m M]

Columns show both closed-form sides of each identity; the point of the table
is that the paired columns are always equal.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fussforest.exact import Identity, Side, identity_sides  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--m", type=int, default=2, help="component count for the forest identities")
    args = parser.parse_args()

    header = (f"{'n':>3} | {'ternary l=r':>14} | {'t-forest l=r':>16} "
              f"| {'q-forest l=r':>16} | {'quinary l=r':>14}")
    print(header)
    print("-" * len(header))
    # One sweep over n per column and side, read in lockstep.
    sweeps = [(identity_sides(ident, Side.LHS, m), identity_sides(ident, Side.RHS, m))
              for ident, m in ((Identity.TERNARY, 1), (Identity.TERNARY_FOREST, args.m),
                               (Identity.QUINARY_FOREST, args.m), (Identity.QUINARY, 1))]
    for n in range(args.n_max + 1):
        cells = []
        for lhs_sides, rhs_sides in sweeps:
            lhs, rhs = next(lhs_sides), next(rhs_sides)
            cells.append(f"{lhs}={rhs}" if lhs == rhs else f"{lhs}!={rhs} <-- MISMATCH")
        print(f"{n:>3} | {cells[0]:>14} | {cells[1]:>16} | {cells[2]:>16} | {cells[3]:>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
