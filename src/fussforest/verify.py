"""Verification sweeps: every library claim re-checked against an independent route.

Each check compares a closed form, a generator, a bijection image, or a
series coefficient against its counterpart over a swept parameter box.  A
check is a case generator: called with its bounds, it yields each case as
`(params, expected, *actual)` and knows neither its name nor its bounds.  A
suite is a list of `(name, cases, bounds)` rows, so each check is named and
bounded once, clamps included; `_run_check` turns a row into a
`CheckResult` with its per-case failures.  A new check is one generator
plus one row.  Default bounds are the acceptance bounds, so running the
`all` suite is the full acceptance sweep.

The checks share nothing, so `run_suite` runs them in forked workers, one
per usable CPU, and puts their results back in report order.  Reports
render deterministically, the same for any number of workers: each check's
wall time is kept on its result, but timing never goes into the text or
JSON output.  Only `_text` and the checks of the `bijection` and `counts`
suites import the tree modules, so `identities` and `series` load none.
"""

from __future__ import annotations

import collections
import itertools
import json
import operator
import time
from dataclasses import asdict, dataclass, field
from functools import partial

from . import _require_least, series
from .exact import (SINGLE_COMPONENT, Identity, Side, binomial, by_parts_terms,
                    colored_ternary_count, forest_catalan, identity_sides, k_catalan)
# identity_side goes unused here; perfbench/spans.py wraps it under this name.
from .exact import identity_side  # noqa: F401
from .workers import run_units


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
        if actual.count(expected) != len(actual):
            if callable(params):
                params = params()
            self.failures.append(
                CaseFailure(dict(params), _text(expected), " / ".join(map(_text, actual))))


def _text(value) -> str:
    """How a case shows a value: for a forest of colored ternary preorder
    tuples, the canonical text of each tree followed by ';', str() otherwise."""
    if isinstance(value, tuple):
        from . import trees

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


def _check_identity(identity: Identity, witness, n_max: int, m_max: int = 1):
    """One identity's RHS against its LHS (and its witness) for every n and
    m, one sweep over n per side and m; a single-component identity runs at
    m_max=1 and labels its cases by n."""
    sweeps = [(m, identity_sides(identity, Side.LHS, m), identity_sides(identity, Side.RHS, m))
              for m in range(1, m_max + 1)]
    for n in range(n_max + 1):
        for m, lhs_sides, rhs_sides in sweeps:
            lhs, rhs = next(lhs_sides), next(rhs_sides)
            yield ({"n": n} if identity in SINGLE_COMPONENT else {"n": n, "m": m},
                   *((witness(n), lhs, rhs) if witness else (rhs, lhs)))


def _check_forest_single_component(n_max: int):
    # At m=1 each by-parts term, computed from the one before it, must equal
    # the single-tree identity's term C3(p) * binom(n+p, 3p) written out.
    ternary = [k_catalan(p, 3) for p in range(n_max // 2 + 1)]
    for n in range(n_max + 1):
        for p, term in enumerate(by_parts_terms(3, n, 1)):
            yield {"n": n, "p": p}, ternary[p] * binomial(n + p, 3 * p), term


def _check_colored_count_sum(n_max: int):
    for n in range(n_max + 1):
        yield {"n": n}, k_catalan(n, 2), sum(colored_ternary_count(n, p) for p in range(n // 2 + 1))


def _identities_suite(n_max: int, m_max: int) -> list:
    return [
        *((name, partial(_check_identity, identity, witness),
           {"n_max": n_max} if identity in SINGLE_COMPONENT else {"n_max": n_max, "m_max": m_max})
          for name, identity, witness in _IDENTITY_CHECKS),
        ("ternary_forest_m1_termwise", _check_forest_single_component, {"n_max": n_max}),
        ("colored_count_sum", _check_colored_count_sum, {"n_max": n_max}),
    ]


# ---------------------------------------------------------------------------
# bijection suite
# ---------------------------------------------------------------------------

def _check_tree_bijection(n_max: int):
    from . import bijection, trees

    # The forward half checks the public maps on tree objects, and so the
    # conversions around encode and decode; the rest runs on forms.
    for n in range(n_max + 1):
        words = list(trees.enumerate_binary_words(n))
        binary_words = set(words)
        domain, images = set(), []
        for t in trees.enumerate_colored_ternary(n):
            b = bijection.phi(t)
            word = b.word
            yield (lambda: {"n": n, "tree": trees.ternary_preorder_text(t.preorder)}, True,
                   word.count("1") == n, word in binary_words, bijection.phi_inverse(b) == t)
            domain.add(t.preorder)
            images.append(word)
        for word in words:
            form = bijection.decode(word)
            yield (lambda: {"n": n, "tree": trees.binary_word_text(word)}, True,
                   form in domain, bijection.encode(form) == word)
        # Injective onto: image multiset has no repeats and covers the codomain.
        yield {"n": n, "property": "image_size"}, k_catalan(n, 2), len(images)
        yield {"n": n, "property": "image_distinct"}, len(images), len(set(images))
        yield {"n": n, "property": "image_onto"}, True, set(images) == binary_words


def _check_forest_bijection(n_max: int, m_max: int):
    from . import bijection, trees

    # Forests share their components: map each component form once each way.
    encoded = {form: bijection.encode(form)
               for s in range(n_max + 1) for form in trees.enumerate_ternary_preorders(s)}
    decoded = {word: bijection.decode(word) for word in encoded.values()}
    for m in range(1, m_max + 1):
        for n, count in zip(range(n_max + 1), identity_sides(Identity.TERNARY_FOREST, Side.LHS, m)):
            colored = list(trees.enumerate_forest_forms(trees.COLORED_TERNARY, n, m))
            yield {"n": n, "m": m, "property": "colored_count"}, count, len(colored)
            images = []
            for forest in colored:
                image = tuple(map(encoded.__getitem__, forest))
                yield (lambda: {"n": n, "m": m, "forest": _text(forest)},
                       forest, tuple(map(decoded.__getitem__, image)))
                images.append(image)
            binary = set(trees.enumerate_forest_forms(trees.BINARY, n, m))
            yield {"n": n, "m": m, "property": "binary_count"}, forest_catalan(n, 2, m), len(binary)
            yield {"n": n, "m": m, "property": "image_distinct"}, len(images), len(set(images))
            yield {"n": n, "m": m, "property": "image_onto"}, True, set(images) == binary


def _bijection_suite(n_max: int, m_max: int) -> list:
    return [
        ("tree_bijection", _check_tree_bijection, {"n_max": n_max}),
        ("forest_bijection", _check_forest_bijection, {"n_max": min(6, n_max), "m_max": m_max}),
    ]


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------

def _powers(f, m_max: int):
    """f, f^2, ..., f^m_max, each power the one before it times f."""
    return itertools.accumulate(itertools.repeat(f, m_max), operator.mul)


def _series_case(params: dict, a, b) -> tuple:
    """The case comparing two series of one order at their first differing index i (0 if none)."""
    i = next((i for i, (p, q) in enumerate(zip(a.coeffs, b.coeffs)) if p != q), 0)
    return {**params, "i": i}, a[i], b[i]


def _check_series_vs_counts(order: int):
    for k in (2, 3, 5):
        s = series.fuss_catalan_series(k, order)
        for i in range(order + 1):
            yield {"k": k, "i": i}, k_catalan(i, k), s[i]


def _check_colored_ternary_series(order: int):
    g = series.colored_tree_series(3, order)
    catalan = series.fuss_catalan_series(2, order)
    for i in range(order + 1):
        yield {"i": i}, catalan[i], g[i]


def _check_substitution_equations(order: int):
    x = series.TruncatedSeries.x(order)
    for k in (2, 3, 5):
        f = series.colored_tree_series(k, order)
        yield _series_case({"k": k}, x * f + 1, f - f ** k * x ** (k - 1))


def _check_lagrange_powers(order: int, m_max: int):
    for k in (2, 3, 5):
        for m, power in enumerate(_powers(series.fuss_catalan_series(k, order), m_max), 1):
            for p in range(order + 1):
                yield {"k": k, "m": m, "p": p}, forest_catalan(p, k, m), power[p]


def _check_quinary_three_way(n_max: int, m_max: int):
    # [x^n] of the m-th power of the k=5 colored tree series, witnessed by
    # both closed-form sides of the quinary forest identity.
    for m, power in enumerate(_powers(series.colored_tree_series(5, n_max), m_max), 1):
        sides = (identity_sides(Identity.QUINARY_FOREST, side, m) for side in (Side.LHS, Side.RHS))
        for n, lhs, rhs in zip(range(n_max + 1), *sides):
            yield {"n": n, "m": m}, lhs, power[n], rhs


def _check_forest_expansion(order: int, m_max: int):
    for m, power in enumerate(_powers(series.colored_tree_series(3, order), m_max), 1):
        yield _series_case({"m": m}, power, series.forest_expansion_series(m, order))


def _series_suite(order: int, m_max: int) -> list:
    return [
        ("fuss_catalan_series_coefficients", _check_series_vs_counts, {"order": order}),
        ("colored_ternary_equals_catalan", _check_colored_ternary_series, {"order": order}),
        ("substitution_functional_equations", _check_substitution_equations,
         {"order": min(order, 32)}),
        ("power_coefficients_vs_forest_counts", _check_lagrange_powers,
         {"order": min(order, 32), "m_max": m_max}),
        ("quinary_forest_three_way", _check_quinary_three_way,
         {"n_max": min(order, 40), "m_max": m_max}),
        ("forest_expansion_route", _check_forest_expansion,
         {"order": min(order, 32), "m_max": min(m_max, 4)}),
    ]


# ---------------------------------------------------------------------------
# counts suite
# ---------------------------------------------------------------------------

def _count(items) -> int:
    """How many items an iterator yields, counted in C without keeping them."""
    counter = itertools.count()
    collections.deque(zip(items, counter), maxlen=0)
    return next(counter)


def _check_binary_generator(n_max: int):
    from . import trees

    for n in range(n_max + 1):
        words = list(trees.enumerate_binary_words(n))
        yield {"n": n, "property": "count"}, k_catalan(n, 2), len(words)
        yield {"n": n, "property": "distinct"}, len(words), len(set(words))


def _check_colored_generator(n_max: int):
    from . import trees

    zeros = itertools.repeat(0)
    for n in range(n_max + 1):
        for p in range(n // 2 + 1):
            forms = list(trees.enumerate_ternary_preorders(n, p))
            # An internal vertex of color c is the item ~c = -1 - c, so a form
            # with p negative items has color sum sum(map(abs, form)) - p.
            members = all(sum(map(operator.lt, t, zeros)) == p and sum(map(abs, t)) == n - p
                          for t in forms)
            yield {"n": n, "p": p, "property": "count"}, colored_ternary_count(n, p), len(forms)
            yield {"n": n, "p": p, "property": "distinct"}, len(forms), len(set(forms))
            yield {"n": n, "p": p, "property": "members"}, True, members


def _check_forest_generators(n_max: int, m_max: int):
    from . import trees

    for m in range(1, m_max + 1):
        # The ternary forest identity's left side counts colored ternary
        # m-forests of weight n by their internal vertices.
        for n, colored in zip(range(n_max + 1), identity_sides(Identity.TERNARY_FOREST, Side.LHS, m)):
            for family, expected in ((trees.BINARY, forest_catalan(n, 2, m)),
                                     (trees.COLORED_TERNARY, colored)):
                total = _count(trees.enumerate_forest_forms(family, n, m))
                yield {"n": n, "m": m, "family": family}, expected, total


def _counts_suite(n_max: int, m_max: int) -> list:
    return [
        ("binary_generator", _check_binary_generator, {"n_max": n_max}),
        ("colored_generator", _check_colored_generator, {"n_max": n_max}),
        ("forest_generators", _check_forest_generators, {"n_max": min(8, n_max), "m_max": m_max}),
    ]


# ---------------------------------------------------------------------------
# Running the checks
# ---------------------------------------------------------------------------

def _run_check(name: str, cases, bounds: dict) -> CheckResult:
    """Feed every case of `cases(**bounds)` to the check's result, and keep
    its wall time, taken in the process that ran it.  Each case is fed before
    the generator resumes, so a label function may read its loop variables."""
    started = time.perf_counter()
    result = CheckResult(name, bounds)
    for case in cases(**bounds):
        result.case(*case)
    result.seconds = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Each suite's builder, which gives its checks as (name, cases, bounds)
# rows, and its acceptance bounds, in the order `all` reports them.
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
        _require_least(f"suite {name}",
                       *((key, value, _LEAST_BOUNDS[key]) for key, value in bounds.items()))
        units += [partial(_run_check, *row) for row in build(**bounds)]
    outcomes = run_units(units, "verify")
    for outcome in outcomes:  # the first check that raised fails the run
        if isinstance(outcome, Exception):
            raise outcome
    return VerificationReport(suite, outcomes, elapsed_seconds=time.perf_counter() - started)
