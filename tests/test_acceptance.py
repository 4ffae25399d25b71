"""Acceptance sweep: every verified claim at its full stated bounds.

Each test prints one pass/fail line (visible with `pytest -s`).  All checks
are exact integer equalities; there are no tolerances anywhere.
"""

import subprocess
import sys
import time

from conftest import checkout_env
from fussforest.bijection import phi, phi_inverse
from fussforest.exact import (
    Identity,
    Side,
    binomial,
    colored_ternary_count,
    forest_catalan,
    identity_side,
    k_catalan,
)
from fussforest.series import colored_tree_series, fuss_catalan_series
from fussforest.trees import (
    BINARY,
    COLORED_TERNARY,
    enumerate_binary,
    enumerate_colored_ternary,
    enumerate_forests,
    serialize,
)
from fussforest.verify import _check_quinary_three_way, _run_check


def report(number, description, failures, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else f"FAIL ({len(failures)} cases)"
    print(f"criterion {number:02d} {description}: {status} [{elapsed:.2f}s]")
    assert not failures, f"criterion {number} first failure: {failures[0]}"


def test_criterion_01_ternary_identity():
    started = time.perf_counter()
    failures = [n for n in range(61)
                if identity_side(Identity.TERNARY, Side.LHS, n, 1) != k_catalan(n, 2)]
    report(1, "ternary identity equals Catalan for n<=60", failures, started)


def test_criterion_02_ternary_forest_identity():
    started = time.perf_counter()
    assert identity_side(Identity.TERNARY_FOREST, Side.LHS, 2, 2) == 5
    assert identity_side(Identity.TERNARY_FOREST, Side.RHS, 2, 2) == 5
    failures = [
        (n, m)
        for n in range(61)
        for m in range(1, 9)
        if identity_side(Identity.TERNARY_FOREST, Side.LHS, n, m)
        != identity_side(Identity.TERNARY_FOREST, Side.RHS, n, m)
    ]
    report(2, "ternary forest identity for n<=60, m<=8", failures, started)


def test_criterion_03_quinary_forest_identity_three_way():
    started = time.perf_counter()
    failures = [
        (n, m)
        for n in range(61)
        for m in range(1, 9)
        if identity_side(Identity.QUINARY_FOREST, Side.LHS, n, m)
        != identity_side(Identity.QUINARY_FOREST, Side.RHS, n, m)
    ]
    failures += _run_check("quinary_forest_three_way", _check_quinary_three_way,
                           {"n_max": 40, "m_max": 6}).failures
    report(3, "quinary forest identity + series three-way", failures, started)


def test_criterion_04_quinary_identity():
    started = time.perf_counter()
    assert identity_side(Identity.QUINARY, Side.LHS, 4) == 2
    assert binomial(8, 4) // 5 == 14 and identity_side(Identity.QUINARY, Side.RHS, 4) == 2
    failures = [n for n in range(61)
                if identity_side(Identity.QUINARY, Side.LHS, n)
                != identity_side(Identity.QUINARY, Side.RHS, n)]
    report(4, "quinary identity for n<=60", failures, started)


def test_criterion_05_tree_bijection():
    started = time.perf_counter()
    failures = []
    for n in range(9):
        images = []
        for t in enumerate_colored_ternary(n):
            b = phi(t)
            if phi_inverse(b) != t:
                failures.append(("round_trip_a", n, serialize(t)))
            images.append(serialize(b))
        codomain = set()
        for b in enumerate_binary(n):
            codomain.add(serialize(b))
            if phi(phi_inverse(b)) != b:
                failures.append(("round_trip_b", n, serialize(b)))
        if len(images) != len(set(images)):
            failures.append(("injective", n))
        if set(images) != codomain:
            failures.append(("onto", n))
        if n == 8 and len(images) != 1430:
            failures.append(("cardinality_at_8", len(images)))
    report(5, "bijection maps weight-n colored trees onto binary trees, n<=8", failures, started)


def test_criterion_06_forest_bijection():
    started = time.perf_counter()
    failures = []
    for m in range(1, 5):
        for n in range(7):
            colored = list(enumerate_forests(COLORED_TERNARY, n, m))
            expected = sum(
                forest_catalan(p, 3, m) * binomial(m + n + p - 1, n - 2 * p)
                for p in range(n // 2 + 1)
            )
            if len(colored) != expected:
                failures.append(("colored_count", n, m))
            images = []
            for forest in colored:
                image = tuple(map(phi, forest))
                if tuple(map(phi_inverse, image)) != forest:
                    failures.append(("forest_round_trip", n, m))
                images.append(tuple(serialize(b) for b in image))
            codomain = {tuple(serialize(b) for b in f)
                        for f in enumerate_forests(BINARY, n, m)}
            if len(codomain) != forest_catalan(n, 2, m):
                failures.append(("binary_count", n, m))
            if len(images) != len(set(images)) or set(images) != codomain:
                failures.append(("forest_bijectivity", n, m))
    report(6, "componentwise bijection on forests, m<=4, n<=6", failures, started)


def test_criterion_07_substitution_series_is_catalan():
    started = time.perf_counter()
    g = colored_tree_series(3, 64)
    catalan = fuss_catalan_series(2, 64)
    failures = [i for i in range(65) if g[i] != catalan[i]]
    if g.coeffs[:5] != (1, 1, 2, 5, 14):
        failures.append("prefix")
    report(7, "colored ternary series equals Catalan series to order 64", failures, started)


def test_criterion_08_power_coefficients():
    started = time.perf_counter()
    failures = []
    for k in (2, 3, 5):
        for m in range(1, 7):
            coeffs = (fuss_catalan_series(k, 32) ** m).coeffs
            failures += [
                (k, m, p) for p in range(33) if coeffs[p] != forest_catalan(p, k, m)
            ]
    report(8, "series power coefficients equal forest counts, k in {2,3,5}", failures, started)


def test_criterion_09_generator_cardinalities():
    started = time.perf_counter()
    failures = []
    for n in range(11):
        keys = [serialize(b) for b in enumerate_binary(n)]
        if len(keys) != k_catalan(n, 2) or len(keys) != len(set(keys)):
            failures.append(("binary", n))
        for p in range(n // 2 + 1):
            colored_keys = [serialize(t) for t in enumerate_colored_ternary(n, p)]
            if len(colored_keys) != colored_ternary_count(n, p):
                failures.append(("colored_count", n, p))
            if len(colored_keys) != len(set(colored_keys)):
                failures.append(("colored_dupes", n, p))
    report(9, "generator cardinalities match closed forms, n<=10", failures, started)


def test_criterion_10_verify_all_is_reproducible():
    started = time.perf_counter()
    command = [sys.executable, "-m", "fussforest", "verify", "--suite", "all"]
    runs = [subprocess.run(command, capture_output=True, env=checkout_env()) for _ in range(2)]
    failures = []
    for index, proc in enumerate(runs):
        if proc.returncode != 0:
            failures.append((f"run{index}_exit", proc.returncode, proc.stderr.decode()[-200:]))
    if runs[0].stdout != runs[1].stdout:
        failures.append("stdout_differs")
    # The case count pins the suite table: no check may be dropped or added silently.
    if b"suite all: PASS (cases=12737, failures=0)" not in runs[0].stdout:
        failures.append("missing_pass_line")
    report(10, "verify --suite all exits 0 with byte-identical reports", failures, started)
