#!/usr/bin/env python3
"""Time each layer of fussforest on fixed inputs and write BENCH_layers_<LABEL>.json.

Usage: python scripts/bench_layers.py LABEL [--src DIR] [--repeats R] [--out DIR]

Each layer runs what one benchmark workload asks of it, at that workload's
sizes:

  exact       `identity_sides` to n = 300 for the three summed sides at
              m in {1, 4, 8}, as `verify --suite identities --n-max 300`
              (`high_order`) sums them
  generators  every enumeration of `verify --suite counts --n-max 10
              --m-max 4` (`acceptance`): binary words and colored ternary
              preorders of each (n, p) to n = 10, and m-forests of both
              families to n = 8, m = 4
  encode, decode, parse.binary, parse.ternary, render.binary, render.ternary
              the per-tree steps of `map` (`map_large`), on uniform random
              trees (Remy's algorithm) whose weights are log-uniform over
              [16, 4096], drawn from SEED as `map_large` draws a batch;
              MAP_WEIGHT in all, three of its batches, as one batch takes
              `encode` under 20 ms
  series      `fuss_catalan_series(k, 128)` for k in {2, 3, 5}, as
              `verify --suite series --order 128` (`high_order`) builds them,
              SERIES_BUILDS times a run, as one build of the three takes
              3-6 ms

The process pins itself to one usable CPU, builds those inputs, then runs
each layer R times (default 7), each run a call of 50-500 ms, in R rounds
of one run of every layer.  As `timeit` does, it collects garbage before a
run and keeps the collector off during it.  For each layer the file holds
the min and the median of the R times, in seconds, and whether every run's
output had the sha256 stored below: a layer that is fast but wrong makes
the script exit 1 (the file is still written, with "matches": false).  The
file also names the pinned CPU, the Python version and the commit of the
source tree.

`--src` imports the package from another checkout's `src/` (the default is
this checkout's), so one copy of this script times a parent commit and its
change alike.  Compare two files layer by layer, min against min: a change
shows only where it is larger than the spread of one commit's own runs.
"""

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The sha256 of each layer's output, as `_digest` makes it.  Each was checked once
# against a route that shares no code with the layer: the generator oracles under
# tests/, the prefix code and tree text of the benchmark's oracle, the literal sums
# of the identities and the closed form of the Fuss-Catalan numbers.
DIGESTS = {
    "exact": "13d2e57b8a038224404c752c9f67fe05f76bc149249139f1ccc26b72b5640536",
    "generators": "d77f3eb82e9796891813b2c06d77e390fdd84a947fe89717a86e8ccf962dfd0f",
    "encode": "e64ddcc9da5bfd0cebce6b97e3f7b1171898dedbdc23dab2b1ebaa922c502301",
    "decode": "91c401c6ba8729e276e2fafe630e1a353c4640e79dae75557545c469b47f61f1",
    "parse.binary": "e64ddcc9da5bfd0cebce6b97e3f7b1171898dedbdc23dab2b1ebaa922c502301",
    "parse.ternary": "91c401c6ba8729e276e2fafe630e1a353c4640e79dae75557545c469b47f61f1",
    "render.binary": "acf7ff8aafbe4dea79e84f641c27bedcd8ef6b4012d70c6db09914009cb5c18f",
    "render.ternary": "786625a82a44b3d9fbbb2a493b19a758c04ee66e1d42cc1024c0e297fe9030da",
    "series": "8349b5d4b562b143294d92c178cc1bfbd4da74ad042b1ca48e7eebcea0be5954",
}

SEED = 7
MAP_WEIGHT = 600_000
SERIES_BUILDS = 15
MAP_LOW, MAP_HIGH = 16, 4096


def _log_uniform_weights(total: int, rng: random.Random) -> list[int]:
    """Weights log-uniform over [MAP_LOW, MAP_HIGH] that sum to exactly `total`; the
    last is cut to fit, and merged into the one before if that leaves it below MAP_LOW."""
    weights = []
    while total > 0:
        w = min(int(math.exp(rng.uniform(math.log(MAP_LOW), math.log(MAP_HIGH + 1)))),
                MAP_HIGH, total)
        weights.append(w)
        total -= w
    if len(weights) > 1 and weights[-1] < MAP_LOW:
        weights[-2] += weights.pop()
    return weights


def _remy_word(n: int, rng: random.Random) -> str:
    """The preorder word of a uniform random binary tree with n internal vertices (Remy):
    each step puts a new internal vertex above a uniform vertex, its new leaf on a fair side."""
    left, right, parent = [-1], [-1], [-1]
    root = 0
    for _ in range(n):
        target = rng.randrange(len(left))
        new_leaf, new_node = len(left), len(left) + 1
        left += [-1, -1]
        right += [-1, -1]
        parent += [new_node, parent[target]]
        above = parent[target]
        if above == -1:
            root = new_node
        elif left[above] == target:
            left[above] = new_node
        else:
            right[above] = new_node
        parent[target] = new_node
        if rng.random() < 0.5:
            left[new_node], right[new_node] = target, new_leaf
        else:
            left[new_node], right[new_node] = new_leaf, target
    out, stack = [], [root]
    while stack:
        vertex = stack.pop()
        if left[vertex] == -1:
            out.append("0")
        else:
            out.append("1")
            stack += [right[vertex], left[vertex]]
    return "".join(out)


def _layers():
    """Each layer's name and its zero-argument run, over inputs built here."""
    from fussforest import bijection, exact, series, trees
    from fussforest.exact import Identity, Side

    rng = random.Random(SEED)
    words = [_remy_word(w, rng) for w in _log_uniform_weights(MAP_WEIGHT, rng)]
    forms = list(map(bijection.decode, words))
    ternary_texts = list(map(trees.ternary_preorder_text, forms))
    binary_texts = list(map(trees.binary_word_text, words))
    sums = [(Identity.TERNARY_FOREST, Side.LHS), (Identity.QUINARY_FOREST, Side.LHS),
            (Identity.QUINARY_FOREST, Side.RHS)]
    return {
        "exact": lambda: [
            value for (identity, side), m in itertools.product(sums, (1, 4, 8))
            for value in itertools.islice(exact.identity_sides(identity, side, m), 301)],
        "generators": lambda: [
            *(word for n in range(11) for word in trees.enumerate_binary_words(n)),
            *(form for n in range(11) for p in range(n // 2 + 1)
              for form in trees.enumerate_ternary_preorders(n, p)),
            *(forest for m in range(1, 5) for n in range(9)
              for family in (trees.BINARY, trees.COLORED_TERNARY)
              for forest in trees.enumerate_forest_forms(family, n, m))],
        "encode": lambda: list(map(bijection.encode, forms)),
        "decode": lambda: list(map(bijection.decode, words)),
        "parse.binary": lambda: list(map(trees.parse_binary_word, binary_texts)),
        "parse.ternary": lambda: list(map(trees.parse_ternary_preorder, ternary_texts)),
        "render.binary": lambda: list(map(trees.binary_word_text, words)),
        "render.ternary": lambda: list(map(trees.ternary_preorder_text, forms)),
        "series": lambda: [series.fuss_catalan_series(k, 128).coeffs
                           for _ in range(SERIES_BUILDS) for k in (2, 3, 5)],
    }


def _digest(values: list) -> str:
    """The sha256 of the values' reprs, one a line."""
    return hashlib.sha256("\n".join(map(repr, values)).encode("ascii")).hexdigest()


def _timed(run) -> tuple[float, list]:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        values = run()
        return time.perf_counter() - start, values
    finally:
        gc.enable()


def _pin() -> int:
    """Pin this process to its last usable CPU, and return that CPU's number."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            return next(line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def _commit(src: Path) -> str | None:
    """The commit checked out at `src`, with "-dirty" if its files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True,
                               timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--", ".").stdout.strip()
    except OSError:
        return None
    return head.stdout.strip() + ("-dirty" if dirty else "") if head.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file: BENCH_layers_<LABEL>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory to import fussforest from")
    parser.add_argument("--repeats", type=int, default=7, help="runs of each layer")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write the file in")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    cpu = _pin()
    runs = _layers()
    times = {name: [] for name in runs}
    digests = {name: set() for name in runs}
    # Round by round, each layer once a round, so that a slow spell on the
    # host falls on one run of every layer, not on every run of one layer.
    for _ in range(args.repeats):
        for name, run in runs.items():
            seconds, values = _timed(run)
            times[name].append(seconds)
            digests[name].add(_digest(values))
    layers = {name: {"min_s": min(times[name]), "median_s": statistics.median(times[name]),
                     "matches": digests[name] == {DIGESTS[name]}}
              for name in runs}
    for name, layer in layers.items():
        print(f"{name:15} min {layer['min_s']:.4f} s  median {layer['median_s']:.4f} s"
              f"{'' if layer['matches'] else '  WRONG OUTPUT'}", file=sys.stderr)
    report = {"label": args.label, "commit": _commit(src), "python": platform.python_version(),
              "cpu": {"pinned": cpu, "model": _cpu_model()}, "repeats": args.repeats,
              "layers": layers}
    path = args.out / f"BENCH_layers_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    wrong = [name for name, layer in layers.items() if not layer["matches"]]
    if wrong:
        print(f"error: output differs from its stored digest: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
