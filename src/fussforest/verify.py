"""Verification sweeps: every library claim re-checked against an independent route.

Each check compares a closed form, a generator, a bijection image, or a
series coefficient against its counterpart over a swept parameter box and
reports per-case failures.  Default bounds are the acceptance bounds, so
running the `all` suite is the full acceptance sweep.

The checks share nothing, so `run_suite` runs them in forked workers, one
per usable CPU, and puts their results back in report order.  Reports
render deterministically, the same for any number of workers: each check's
wall time is kept on its result, but timing never goes into the text or
JSON output.
"""

from __future__ import annotations

import collections
import itertools
import json
import operator
import time
from dataclasses import asdict, dataclass, field
from functools import partial

from . import bijection, series, trees
from .exact import (SINGLE_COMPONENT, Identity, Side, binomial, by_parts_terms,
                    colored_ternary_count, forest_catalan, identity_side, k_catalan)
from .workers import WorkerError, run_units  # noqa: F401  (run_suite raises WorkerError)


@dataclass(frozen=True)
class CaseFailure:
    params: dict
    expected: str
    actual: str


@dataclass
class CheckResult:
    name: str
    bounds: dict
    cases: int = 0
    failures: list[CaseFailure] = field(default_factory=list)
    # Wall time of the check, taken in the process that ran it; never rendered.
    seconds: float = field(default=0.0, compare=False)

    def case(self, params, expected, *actual) -> None:
        """One case that passes iff every actual value equals the expected one.

        `params` is a dict, or a function returning one, called only when
        the case fails, for labels that cost something to render."""
        self.cases += 1
        if any(value != expected for value in actual):
            if callable(params):
                params = params()
            self.failures.append(
                CaseFailure(dict(params), _text(expected), " / ".join(map(_text, actual))))


def _text(value) -> str:
    """How a case shows a value: for a forest of colored ternary preorder
    tuples, the canonical text of each tree followed by ';', str() otherwise."""
    if isinstance(value, tuple):
        return "".join(trees.ternary_preorder_text(form) + ";" for form in value)
    return str(value)


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult]
    elapsed_seconds: float = 0.0

    @property
    def total_cases(self) -> int:
        return sum(c.cases for c in self.checks)

    @property
    def total_failures(self) -> int:
        return sum(len(c.failures) for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.total_failures == 0

    def to_text(self) -> str:
        lines = []
        for check in self.checks:
            bounds = " ".join(f"{k}={v}" for k, v in check.bounds.items())
            status = "ok" if not check.failures else f"{len(check.failures)} FAILED"
            lines.append(f"check {check.name} [{bounds}]: cases={check.cases} {status}")
            if check.failures:
                first = check.failures[0]
                where = " ".join(f"{k}={v}" for k, v in first.params.items())
                lines.append(f"  first failure: {where}: expected {first.expected}, got {first.actual}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"suite {self.suite}: {verdict} "
                     f"(cases={self.total_cases}, failures={self.total_failures})")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        checks = [{"name": c.name, "bounds": c.bounds, "cases": c.cases,
                   "failures": [asdict(f) for f in c.failures]} for c in self.checks]
        payload = {"suite": self.suite, "passed": self.passed, "total_cases": self.total_cases,
                   "total_failures": self.total_failures, "checks": checks}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# identities suite
# ---------------------------------------------------------------------------

# name, identity, and a third witness of the single-tree identities: the
# Catalan number both sides must equal.  A witnessed check shows LHS / RHS
# against the witness, the others LHS against RHS.
_IDENTITY_CHECKS = (
    ("ternary_identity", Identity.TERNARY, lambda n: k_catalan(n, 2)),
    ("ternary_forest_identity", Identity.TERNARY_FOREST, None),
    ("quinary_forest_identity", Identity.QUINARY_FOREST, None),
    ("quinary_identity", Identity.QUINARY, None),
)


def _check_identity(name: str, identity: Identity, witness, n_max: int, m_max: int) -> CheckResult:
    """One identity's RHS against its LHS (and its witness) for every n, and
    every m unless the identity is single-component."""
    sweeps_m = identity not in SINGLE_COMPONENT
    bounds = {"n_max": n_max, "m_max": m_max} if sweeps_m else {"n_max": n_max}
    result = CheckResult(name, bounds)
    for n in range(n_max + 1):
        for m in range(1, m_max + 1) if sweeps_m else (1,):
            params = {"n": n, "m": m} if sweeps_m else {"n": n}
            lhs = identity_side(identity, Side.LHS, n, m)
            rhs = identity_side(identity, Side.RHS, n, m)
            result.case(params, *((witness(n), lhs, rhs) if witness else (rhs, lhs)))
    return result


def _check_forest_single_component(n_max: int) -> CheckResult:
    # At m=1 each by-parts term, computed from the one before it, must equal
    # the single-tree identity's term C3(p) * binom(n+p, 3p) written out.
    result = CheckResult("ternary_forest_m1_termwise", {"n_max": n_max})
    for n in range(n_max + 1):
        for p, term in enumerate(by_parts_terms(3, n, 1)):
            result.case({"n": n, "p": p}, k_catalan(p, 3) * binomial(n + p, 3 * p), term)
    return result


def _check_colored_count_sum(n_max: int) -> CheckResult:
    result = CheckResult("colored_count_sum", {"n_max": n_max})
    for n in range(n_max + 1):
        total = sum(colored_ternary_count(n, p) for p in range(n // 2 + 1))
        result.case({"n": n}, k_catalan(n, 2), total)
    return result


def _identities_suite(n_max: int, m_max: int) -> list:
    return [
        *(partial(_check_identity, *row, n_max, m_max) for row in _IDENTITY_CHECKS),
        partial(_check_forest_single_component, n_max),
        partial(_check_colored_count_sum, n_max),
    ]


# ---------------------------------------------------------------------------
# bijection suite
# ---------------------------------------------------------------------------

def _check_tree_bijection(n_max: int) -> CheckResult:
    # The public maps on tree objects, so that the conversions around
    # encode and decode are checked too; the forest check runs on forms.
    result = CheckResult("tree_bijection", {"n_max": n_max})
    for n in range(n_max + 1):
        binary_words = set(trees.enumerate_binary_words(n, max_n=n_max))
        domain, images = set(), []
        for t in trees.enumerate_colored_ternary(n, max_n=n_max):
            b = bijection.phi(t)
            word = b.word
            result.case(
                lambda: {"n": n, "tree": trees.ternary_preorder_text(t.preorder)},
                True,
                word.count("1") == n,
                word in binary_words,
                bijection.phi_inverse(b) == t,
            )
            domain.add(t.preorder)
            images.append(word)
        for b in trees.enumerate_binary(n, max_n=n_max):
            t = bijection.phi_inverse(b)
            result.case(
                lambda: {"n": n, "tree": trees.serialize(b)},
                True,
                t.preorder in domain,
                bijection.phi(t) == b,
            )
        # Injective onto: image multiset has no repeats and covers the codomain.
        result.case({"n": n, "property": "image_size"}, k_catalan(n, 2), len(images))
        result.case({"n": n, "property": "image_distinct"}, len(images), len(set(images)))
        result.case({"n": n, "property": "image_onto"}, True, set(images) == binary_words)
    return result


def _check_forest_bijection(n_max: int, m_max: int) -> CheckResult:
    result = CheckResult("forest_bijection", {"n_max": n_max, "m_max": m_max})
    for m in range(1, m_max + 1):
        for n in range(n_max + 1):
            colored = list(trees.enumerate_forest_forms(trees.COLORED_TERNARY, n, m, max_n=n_max))
            result.case({"n": n, "m": m, "property": "colored_count"},
                        identity_side(Identity.TERNARY_FOREST, Side.LHS, n, m), len(colored))
            images = []
            for forest in colored:
                image = tuple(map(bijection.encode, forest))
                result.case(lambda: {"n": n, "m": m, "forest": _text(forest)},
                            forest, tuple(map(bijection.decode, image)))
                images.append(image)
            binary = set(trees.enumerate_forest_forms(trees.BINARY, n, m, max_n=n_max))
            result.case({"n": n, "m": m, "property": "binary_count"},
                        forest_catalan(n, 2, m), len(binary))
            result.case({"n": n, "m": m, "property": "image_distinct"},
                        len(images), len(set(images)))
            result.case({"n": n, "m": m, "property": "image_onto"},
                        True, set(images) == binary)
    return result


def _bijection_suite(n_max: int, m_max: int) -> list:
    return [
        partial(_check_tree_bijection, n_max),
        partial(_check_forest_bijection, min(6, n_max), m_max),
    ]


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------

def _check_series_vs_counts(order: int) -> CheckResult:
    result = CheckResult("fuss_catalan_series_coefficients", {"order": order})
    for k in (2, 3, 5):
        s = series.fuss_catalan_series(k, order)
        for i in range(order + 1):
            result.case({"k": k, "i": i}, k_catalan(i, k), s[i])
    return result


def _series_case(result: CheckResult, params: dict, a, b) -> None:
    """One case comparing two series of one order at their first differing index i (0 if none)."""
    i = next((i for i, (p, q) in enumerate(zip(a.coeffs, b.coeffs)) if p != q), 0)
    result.case({**params, "i": i}, a[i], b[i])


def _check_colored_ternary_series(order: int) -> CheckResult:
    result = CheckResult("colored_ternary_equals_catalan", {"order": order})
    g = series.colored_tree_series(3, order)
    catalan = series.fuss_catalan_series(2, order)
    for i in range(order + 1):
        result.case({"i": i}, catalan[i], g[i])
    return result


def _check_substitution_equations(order: int) -> CheckResult:
    result = CheckResult("substitution_functional_equations", {"order": order})
    x = series.TruncatedSeries.x(order)
    for k in (2, 3, 5):
        f = series.colored_tree_series(k, order)
        _series_case(result, {"k": k}, x * f + 1, f - f ** k * x ** (k - 1))
    return result


def _check_lagrange_powers(order: int, m_max: int) -> CheckResult:
    result = CheckResult("power_coefficients_vs_forest_counts", {"order": order, "m_max": m_max})
    for k in (2, 3, 5):
        for m in range(1, m_max + 1):
            coeffs = series.fuss_catalan_power_coefficients(k, m, order)
            for p in range(order + 1):
                result.case({"k": k, "m": m, "p": p}, forest_catalan(p, k, m), coeffs[p])
    return result


def _check_quinary_three_way(n_max: int, m_max: int) -> CheckResult:
    # [x^n] of the m-th power of the k=5 colored tree series, witnessed by
    # both closed-form sides of the quinary forest identity.
    result = CheckResult("quinary_forest_three_way", {"n_max": n_max, "m_max": m_max})
    f = series.colored_tree_series(5, n_max)
    power = series.TruncatedSeries.constant(1, n_max)
    for m in range(1, m_max + 1):
        power = power * f
        for n in range(n_max + 1):
            lhs = identity_side(Identity.QUINARY_FOREST, Side.LHS, n, m)
            rhs = identity_side(Identity.QUINARY_FOREST, Side.RHS, n, m)
            result.case({"n": n, "m": m}, lhs, power[n], rhs)
    return result


def _check_forest_expansion(order: int, m_max: int) -> CheckResult:
    result = CheckResult("forest_expansion_route", {"order": order, "m_max": m_max})
    g = series.colored_tree_series(3, order)
    power = series.TruncatedSeries.constant(1, order)
    for m in range(1, m_max + 1):
        power = power * g
        _series_case(result, {"m": m}, power, series.forest_expansion_series(m, order))
    return result


def _series_suite(order: int, m_max: int) -> list:
    return [
        partial(_check_series_vs_counts, order),
        partial(_check_colored_ternary_series, order),
        partial(_check_substitution_equations, min(order, 32)),
        partial(_check_lagrange_powers, min(order, 32), m_max),
        partial(_check_quinary_three_way, min(order, 40), m_max),
        partial(_check_forest_expansion, min(order, 32), min(m_max, 4)),
    ]


# ---------------------------------------------------------------------------
# counts suite
# ---------------------------------------------------------------------------

def _count(items) -> int:
    """How many items an iterator yields, counted in C without keeping them."""
    counter = itertools.count()
    collections.deque(zip(items, counter), maxlen=0)
    return next(counter)


def _check_binary_generator(n_max: int) -> CheckResult:
    result = CheckResult("binary_generator", {"n_max": n_max})
    for n in range(n_max + 1):
        words = list(trees.enumerate_binary_words(n, max_n=n_max))
        result.case({"n": n, "property": "count"}, k_catalan(n, 2), len(words))
        result.case({"n": n, "property": "distinct"}, len(words), len(set(words)))
    return result


def _check_colored_generator(n_max: int) -> CheckResult:
    result = CheckResult("colored_generator", {"n_max": n_max})
    zeros = itertools.repeat(0)
    for n in range(n_max + 1):
        for p in range(n // 2 + 1):
            forms = list(trees.enumerate_ternary_preorders(n, p, max_n=n_max))
            # An internal vertex of color c is the item ~c = -1 - c, so a form
            # with p negative items has color sum sum(map(abs, form)) - p.
            members = all(sum(map(operator.lt, t, zeros)) == p and sum(map(abs, t)) == n - p
                          for t in forms)
            result.case({"n": n, "p": p, "property": "count"},
                        colored_ternary_count(n, p), len(forms))
            result.case({"n": n, "p": p, "property": "distinct"}, len(forms), len(set(forms)))
            result.case({"n": n, "p": p, "property": "members"}, True, members)
    return result


def _check_forest_generators(n_max: int, m_max: int) -> CheckResult:
    result = CheckResult("forest_generators", {"n_max": n_max, "m_max": m_max})
    for m in range(1, m_max + 1):
        for n in range(n_max + 1):
            # The ternary forest identity's left side counts colored ternary
            # m-forests of weight n by their internal vertices.
            colored = identity_side(Identity.TERNARY_FOREST, Side.LHS, n, m)
            for family, expected in ((trees.BINARY, forest_catalan(n, 2, m)),
                                     (trees.COLORED_TERNARY, colored)):
                total = _count(trees.enumerate_forest_forms(family, n, m, max_n=n_max))
                result.case({"n": n, "m": m, "family": family}, expected, total)
    return result


def _counts_suite(n_max: int, m_max: int) -> list:
    return [
        partial(_check_binary_generator, n_max),
        partial(_check_colored_generator, n_max),
        partial(_check_forest_generators, min(8, n_max), m_max),
    ]


# ---------------------------------------------------------------------------
# Running the checks
# ---------------------------------------------------------------------------

def _timed(check) -> CheckResult:
    """Run one check and keep its wall time, taken in the process that ran it."""
    started = time.perf_counter()
    result = check()
    result.seconds = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Each suite's checks, as units for `run_units`, and its acceptance bounds,
# in the order `all` reports them.
_SUITES = {
    "identities": (_identities_suite, {"n_max": 60, "m_max": 8}),
    "bijection": (_bijection_suite, {"n_max": 8, "m_max": 4}),
    "series": (_series_suite, {"order": 64, "m_max": 6}),
    "counts": (_counts_suite, {"n_max": 10, "m_max": 4}),
}
SUITES = (*_SUITES, "all")

# The least value of each bound at which a suite still checks something.
_LEAST_BOUNDS = {"n_max": 0, "m_max": 1, "order": 0}


def run_suite(suite: str, n_max: int | None = None, m_max: int | None = None,
              order: int | None = None) -> VerificationReport:
    """Run one suite (or `all`) and return its report; bounds default to acceptance bounds.

    A bound that a chosen suite reads and that is below its least value in
    `_LEAST_BOUNDS` raises ValueError before any check runs.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    started = time.perf_counter()
    given = {"n_max": n_max, "m_max": m_max, "order": order}
    units = []
    for name in _SUITES if suite == "all" else (suite,):
        build, defaults = _SUITES[name]
        bounds = {key: default if given[key] is None else given[key]
                  for key, default in defaults.items()}
        for key, value in bounds.items():
            if value < _LEAST_BOUNDS[key]:
                raise ValueError(f"suite {name} needs {key} >= {_LEAST_BOUNDS[key]}, got {value}")
        units += [partial(_timed, check) for check in build(**bounds)]
    return VerificationReport(suite, run_units(units, "verify"),
                              elapsed_seconds=time.perf_counter() - started)
