"""fussforest benchmark: one workload, one run, one JSON result line.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):
  acceptance  the four acceptance verify suites, bounds pinned here
  map_large   `map` t2b and b2t on batches of large uniform random trees
  high_order  `verify` series at order 128 and identities at n 300

The workload runs in a fresh process (client.py) that calls
``fussforest.cli.main`` in-process, one operation at a time, with inputs
and outputs in a temporary directory inside the checkout.  This process
makes the inputs from the seed, checks every output by a route that shares
no code with the program (oracle.py), and prints the result as its last
stdout line.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 the per-layer metrics of traced passes (spans.py).  The line
before the result carries the run's provenance and details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 170          # a run must end within 180 s
CLIENT_MARGIN_S = 15      # client start-up, reporting and checks after its last pass
SETUP_PROBES = 15
MIN_PASSES = 3

# verify calls, each with the suite's case count at the seed.  Any other
# count is a failed operation: fewer cases prove less, and more mean the
# pinned bounds no longer mean what they did.
ACCEPTANCE = [
    ("identities", ["--n-max", "60", "--m-max", "8"], 2120),
    ("bijection", ["--n-max", "8", "--m-max", "4"], 9308),
    ("series", ["--order", "64", "--m-max", "6"], 1107),
    ("counts", ["--n-max", "10", "--m-max", "4"], 202),
]
HIGH_ORDER = [
    ("series", ["--order", "128", "--m-max", "6"], 1363),
    ("identities", ["--n-max", "300", "--m-max", "8"], 28520),
]

# map_large: per direction, batches of trees whose weights are log-uniform
# over [MAP_LOW, MAP_HIGH] and sum to exactly BATCH_WEIGHT, so every seed
# gives a pass the same total work.  A batch is large enough that its
# parsed trees, not the interpreter, dominate the client's peak RSS.
BATCHES_PER_DIRECTION = 2
BATCH_WEIGHT = 200_000
MAP_LOW, MAP_HIGH = 16, 4096

_VERDICT = re.compile(r"suite (\w+): PASS \(cases=(\d+), failures=0\)")

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fussforest.cli
fussforest.cli.build_parser()
print(time.perf_counter() - start)
"""


# ---------------------------------------------------------------------------
# Workloads: each returns the operations of one pass
# ---------------------------------------------------------------------------

def verify_ops(suites) -> list[dict]:
    return [{"kind": "verify", "suite": suite, "cases": cases, "out": None,
             "argv": ["verify", "--suite", suite] + bounds}
            for suite, bounds, cases in suites]


def map_ops(seed: int, work: Path, batches: int = BATCHES_PER_DIRECTION,
            batch_weight: int = BATCH_WEIGHT) -> list[dict]:
    """Batch files for both directions, each op with the digest of its expected output."""
    rng = random.Random(seed)
    ops = []
    for index in range(batches):
        for direction in ("t2b", "b2t"):
            weights = oracle.log_uniform_weights(batch_weight, MAP_LOW, MAP_HIGH, rng)
            given, wanted = [], []
            for w in weights:
                word = oracle.remy_word(w, rng)
                colors = oracle.decode(word)
                if oracle.encode(colors) != word:
                    raise AssertionError("prefix-code oracle does not round-trip")
                ternary, binary = oracle.ternary_text(colors), oracle.binary_text(word)
                given.append(ternary if direction == "t2b" else binary)
                wanted.append(binary if direction == "t2b" else ternary)
            source = work / f"{direction}_{index}.in"
            source.write_text("\n".join(given) + "\n", encoding="ascii")
            expected = ("\n".join(wanted) + "\n").encode("ascii")
            out = str(work / f"{direction}_{index}.out")
            ops.append({"kind": direction, "weight": sum(weights), "out": out,
                        "sha256": hashlib.sha256(expected).hexdigest(),
                        "argv": ["map", "--direction", direction, "--in", str(source), "--out", out]})
    return ops


def build_ops(workload: str, seed: int, work: Path) -> list[dict]:
    if workload == "acceptance":
        return verify_ops(ACCEPTANCE)
    if workload == "high_order":
        return verify_ops(HIGH_ORDER)
    return map_ops(seed, work)


def inputs_digest(ops: list[dict]) -> str:
    """Digest of every argv, with file paths reduced to their names, and every input file."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update("\0".join(Path(a).name for a in op["argv"]).encode() + b"\n")
        if op["kind"] != "verify":
            digest.update(Path(op["argv"][4]).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_op(op: dict, result: dict) -> str | None:
    """None when the operation succeeded with a correct output, else why not."""
    if result["error"] is not None:
        return result["error"]
    if result["rc"] != 0:
        return f"exit {result['rc']}: {result['stderr_last']}"
    if op["kind"] == "verify":
        verdict = _VERDICT.fullmatch(result["stdout_last"])
        if verdict is None or verdict.group(1) != op["suite"]:
            return f"no PASS line: {result['stdout_last'][:200]}"
        if int(verdict.group(2)) != op["cases"]:
            return f"{op['suite']}: cases={verdict.group(2)}, pinned {op['cases']}"
        return None
    if result["out_sha256"] != op["sha256"]:
        return f"{op['kind']} output differs from the prefix-code oracle"
    return None


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the run is out of time")
    return left


def setup_seconds(deadline: float) -> list[float]:
    """Time to import fussforest.cli and build its parser, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=remaining(deadline))
        times.append(float(done.stdout))
    return times


def run_ladders(work: Path, deadline: float) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "ladders.py"), str(SRC), str(work)],
                          capture_output=True, text=True, timeout=remaining(deadline))
    rungs = {"map": [], "number_k2": [], "number_k5": []}
    for line in done.stdout.splitlines():
        rung = json.loads(line)
        rungs[rung["ladder"]].append(rung)
    summary = {}
    for ladder, seen in rungs.items():
        passed = [r["rung"] for r in seen if r["problem"] is None]
        failed = [r for r in seen if r["problem"] is not None]
        summary[ladder] = {"max_rung": max(passed, default=0),
                           "first_failure": failed[0] if failed else None}
    if done.returncode != 0:
        summary["crash"] = done.stderr.strip()[-300:]
    return summary


def run_client(ops: list[dict], work: Path, seconds: float, trace: bool, deadline: float,
               min_passes: int = MIN_PASSES) -> dict:
    spec = {"src": str(SRC), "seconds": seconds, "trace": trace, "min_passes": min_passes,
            "budget": remaining(deadline) - CLIENT_MARGIN_S,
            "ops": [{"argv": op["argv"], "out": op["out"]} for op in ops]}
    spec_path = work / "client.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    done = subprocess.run([sys.executable, str(HERE / "client.py"), str(spec_path)],
                          capture_output=True, text=True, timeout=remaining(deadline))
    if done.returncode != 0:
        raise RuntimeError(f"workload client failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def direction_rates(ops: list[dict], passes: list[dict]) -> dict:
    """Weight mapped per second of `map` calls, per direction, over the given passes."""
    rates = {}
    for direction in ("t2b", "b2t"):
        weight = seconds = 0.0
        for one in passes:
            for op, result in zip(ops, one["ops"]):
                if op["kind"] == direction:
                    weight += op["weight"]
                    seconds += result["seconds"]
        rates[direction] = weight / seconds if seconds else 0.0
    return rates


def layer_metrics(report: dict, ops: list[dict], untraced: list[dict],
                  traced: list[dict]) -> dict:
    """Per traced pass: calls, amounts and self seconds of each layer."""
    per = len(traced)
    layers = report["layers"]

    def field(layer, index):
        return layers.get(layer, [0, 0.0, 0.0, 0])[index] / per

    calls, total, self_s, amount = range(4)
    out = {}
    for layer, unit_amount in (("exact.identity_side", None), ("exact.counts", None),
                               ("trees.parse", "bytes"), ("trees.serialize", None),
                               ("trees.check", None), ("bijection.phi", "weight"),
                               ("bijection.phi_inverse", "weight"),
                               ("series.fuss_catalan_series", None),
                               ("series.colored_tree_series", None), ("series.mul", None)):
        out[f"{layer}.calls"] = metric(field(layer, calls), "count")
        out[f"{layer}.s"] = metric(field(layer, self_s), "s")
        if unit_amount == "bytes":
            out[f"{layer}.bytes"] = metric(field(layer, amount), "B")
        elif unit_amount == "weight":
            out[f"{layer}.weight"] = metric(field(layer, amount), "count")
    out["trees.gen.items"] = metric(field("trees.gen", amount), "count")
    out["trees.gen.s"] = metric(field("trees.gen", self_s), "s")
    suites = ("identities", "bijection", "series", "counts")
    for suite in suites:
        out[f"verify.{suite}.s"] = metric(field(f"verify.{suite}", total), "s")
    out["verify.cases"] = metric(sum(field(f"verify.{s}", amount) for s in suites), "count")
    out["verify.self_s"] = metric(sum(field(f"verify.{s}", self_s) for s in suites), "s")
    out["cli.calls"] = metric(field("cli", calls), "count")
    out["cli.self_s"] = metric(field("cli", self_s), "s")
    out["cli.out_bytes"] = metric(field("cli", amount), "B")
    out["py.gc.collections"] = metric(report["gc"][0] / per, "count")
    out["py.gc.s"] = metric(report["gc"][1] / per, "s")
    out["trace_overhead"] = metric(
        statistics.median(pass_seconds(p) for p in traced)
        / statistics.median(pass_seconds(p) for p in untraced), "ratio")
    rates = direction_rates(ops, untraced)
    out["map.t2b_weight_per_s"] = metric(rates["t2b"], "1/s")
    out["map.b2t_weight_per_s"] = metric(rates["b2t"], "1/s")
    return out


def pass_seconds(one: dict) -> float:
    return sum(result["seconds"] for result in one["ops"])


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        ops: list[dict] | None = None, min_passes: int = MIN_PASSES) -> tuple[dict, dict]:
    """One run: returns (info, result) as printed on the last two stdout lines."""
    deadline = time.monotonic() + DEADLINE_S
    if ops is None:
        ops = build_ops(workload, seed, work)
    info = {"workload": workload, "seed": seed, "trace": trace,
            "inputs_sha256": inputs_digest(ops), "ops_per_pass": len(ops),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit()}
    if not trace:
        setup = setup_seconds(deadline)
        ladders = run_ladders(work, deadline)
    report = run_client(ops, work, seconds, trace, deadline, min_passes)
    untraced = [p for p in report["passes"] if not p["traced"]]
    traced = [p for p in report["passes"] if p["traced"]]
    problems = [check_op(op, result) for one in report["passes"]
                for op, result in zip(ops, one["ops"])]
    failed = [p for p in problems if p is not None]
    attempted = len(problems)
    info.update(passes=len(report["passes"]), ops_attempted=attempted, failures=failed[:5],
                pass_seconds=[pass_seconds(p) for p in report["passes"]])

    if trace:
        metrics = layer_metrics(report, ops, untraced, traced)
        info["span_edges"] = {edge: count / len(traced) for edge, count in report["edges"].items()}
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
            "ops_ok_share": metric((attempted - len(failed)) / attempted, "share"),
            "sweep_s": metric(statistics.median(pass_seconds(p) for p in untraced), "s"),
            "map_max_weight": metric(ladders["map"]["max_rung"], "count"),
            "number_max_n": metric(min(ladders["number_k2"]["max_rung"],
                                       ladders["number_k5"]["max_rung"]), "count"),
        }
        info["ladders"] = ladders
        info["setup_s_probes"] = setup
        if workload == "map_large":
            rates = direction_rates(ops, untraced)
            info["t2b_weight_per_s"] = rates["t2b"]
            info["b2t_weight_per_s"] = rates["b2t"]
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("acceptance", "map_large", "high_order"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fussforest" / "cli.py").is_file():
        print(f"error: no fussforest sources under {SRC}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as work:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(work))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
