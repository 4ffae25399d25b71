"""Tests of the benchmark itself: oracles, checks, tracing and a smoke run.

Run with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import client
import oracle
import run
import spans

sys.path.insert(0, str(run.SRC))

from fussforest import bijection, cli, exact, series, trees, verify  # noqa: E402

# Small bounds and their case counts at the seed, for checks and smoke runs.
SMOKE_SUITES = [
    ("identities", ["--n-max", "6", "--m-max", "2"], 65),
    ("bijection", ["--n-max", "3", "--m-max", "2"], 93),
    ("series", ["--order", "8", "--m-max", "2"], 113),
    ("counts", ["--n-max", "4", "--m-max", "2"], 57),
]


def _colors(text: str) -> list[int]:
    """Preorder color list of canonical ternary text, read through the oracle's writer."""
    colors = []
    for token in text.replace("(", " (").split():
        if token.startswith("("):
            colors.append(-1 - int(token[1:-1]))
        else:
            colors.append(int(token.rstrip(")")))
    assert oracle.ternary_text(colors) == text
    return colors


def _word(text: str) -> str:
    return "".join("1" if ch == "(" else "0" for ch in text if ch in "(L")


def test_oracle_equals_phi_exhaustively_to_weight_9():
    checked = 0
    for n in range(10):
        for tree in trees.enumerate_colored_ternary(n):
            colors = _colors(trees.serialize(tree))
            image = trees.serialize(bijection.phi(tree))
            assert oracle.binary_text(oracle.encode(colors)) == image
            assert oracle.weight(colors) == n
            checked += 1
        for tree in trees.enumerate_binary(n):
            text = trees.serialize(tree)
            assert oracle.binary_text(_word(text)) == text
            expected = trees.serialize(bijection.phi_inverse(tree))
            assert oracle.ternary_text(oracle.decode(_word(text))) == expected
    assert checked == 6918


def test_remy_words_are_trees_of_the_asked_size():
    rng = random.Random(5)
    for n in (0, 1, 2, 17, 300):
        word = oracle.remy_word(n, rng)
        assert word.count("1") == n
        assert trees.internal_count(trees.parse_binary(oracle.binary_text(word))) == n


def test_log_uniform_weights_fill_the_batch_exactly():
    rng = random.Random(3)
    weights = oracle.log_uniform_weights(50_000, 16, 4096, rng)
    assert sum(weights) == 50_000
    assert all(16 <= w <= 4096 for w in weights)


def test_counts_modulo_the_prime_match_exact_counts():
    for k in (2, 5):
        for n in (0, 1, 7, 40, 333):
            value = exact.k_catalan(n, k)
            assert oracle.count_mod(n, k) == value % oracle.PRIME
            assert oracle.digits_mod(str(value)) == value % oracle.PRIME


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for work in (first, second, other):
        work.mkdir()
    ops = run.map_ops(7, first, batches=1, batch_weight=3000)
    again = run.map_ops(7, second, batches=1, batch_weight=3000)
    assert run.inputs_digest(ops) == run.inputs_digest(again)
    for a, b in zip(ops, again):
        assert Path(a["argv"][4]).read_bytes() == Path(b["argv"][4]).read_bytes()
    assert run.inputs_digest(run.map_ops(8, other, batches=1, batch_weight=3000)) \
        != run.inputs_digest(ops)


def test_map_outputs_are_checked_and_a_corrupted_line_fails(tmp_path):
    ops = run.map_ops(1, tmp_path, batches=1, batch_weight=3000)
    for op in ops:
        result = client.run_op(cli, op, None)
        assert run.check_op(op, result) is None
        out = Path(op["out"])
        lines = out.read_text().split("\n")
        lines[0] = lines[0].replace("L", "(L L)", 1) if op["kind"] == "t2b" else lines[0][::-1]
        out.write_text("\n".join(lines))
        corrupted = dict(result, out_sha256=client._sha256_file(op["out"]))
        assert run.check_op(op, corrupted) is not None


def test_verify_case_count_mismatch_fails():
    op = run.verify_ops(SMOKE_SUITES[:1])[0]
    result = client.run_op(cli, op, None)
    assert run.check_op(op, result) is None
    for cases in (op["cases"] - 1, op["cases"] + 1):
        assert "pinned" in run.check_op(dict(op, cases=cases), result)
    assert run.check_op(op, dict(result, rc=1)) is not None
    assert run.check_op(op, dict(result, stdout_last="suite identities: FAIL")) is not None


def test_tracer_restores_every_attribute():
    modules = (bijection, cli, exact, series, trees, verify, series.TruncatedSeries)
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--suite", "bijection", "--n-max", "3", "--m-max", "2"]) == 0
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert tracer.layers["bijection.phi"][spans.CALLS] > 0
    assert tracer.layers["trees.gen"][spans.AMOUNT] > 0
    assert tracer.layers["verify.bijection"][spans.AMOUNT] == 93
    assert tracer.edges["client>cli"] == 1
    assert tracer.edges["cli>verify.bijection"] == 1
    assert tracer.edges["verify.bijection>bijection.phi"] > 0


def test_traced_recursion_keeps_the_stack_depth():
    # A comb deep enough that one wrapper frame per level would overflow.
    text = "(L " * 600 + "L" + ")" * 600
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert trees.serialize(trees.parse_binary(text)) == text
    finally:
        tracer.uninstall()
    assert tracer.layers["trees.serialize"][spans.CALLS] == 1


def _names(key: str) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return sorted(m["name"] for m in spec[key])


@pytest.mark.parametrize("workload", ["acceptance", "map_large", "high_order"])
def test_smoke_run_reports_every_metric(workload, tmp_path):
    if workload == "map_large":
        ops = run.map_ops(2, tmp_path, batches=1, batch_weight=2000)
    else:
        suites = {"acceptance": SMOKE_SUITES, "high_order": [SMOKE_SUITES[2], SMOKE_SUITES[0]]}
        ops = run.verify_ops(suites[workload])
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        info, result = run.run(workload, 2, 0, trace, tmp_path, ops=ops, min_passes=1)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(ops) * info["passes"]
        assert sorted(result["metrics"]) == _names(key)
    assert info["inputs_sha256"] == run.inputs_digest(ops)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "acceptance",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
