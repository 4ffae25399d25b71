"""Per-layer spans around calls into fussforest's public functions.

The tracer replaces module and class attributes with timing wrappers and
puts every original back on ``uninstall``.  Names re-bound by ``from ...
import`` are wrapped where they are bound, since a caller looks them up in
its own module.  ``math.comb`` and ``exact.binomial`` stay unwrapped: they
are too small to time without the timing dominating.

Each span's parent is the span that was open when it started.  A finished
span charges its whole wall time, wrapper bookkeeping included, to its
parent's child time, so a layer's self time excludes both nested spans and
tracing cost.  Spans are folded into per-layer totals as they close, and
into counts of (parent layer, layer) edges, which show what called what.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from time import perf_counter

# Per-layer accumulator fields.
CALLS, TOTAL_S, SELF_S, AMOUNT = range(4)


def _binary_internal(tree) -> int:
    """Internal vertices of a fussforest BinaryTree, counted without recursion."""
    count = 0
    stack = [tree]
    while stack:
        vertex = stack.pop()
        if vertex.left is not None:
            count += 1
            stack.append(vertex.left)
            stack.append(vertex.right)
    return count


class _TracedIterator:
    """Times each ``next()`` on a generator as one span of the given layer."""

    __slots__ = ("_tracer", "_layer", "_inner")

    def __init__(self, tracer: Tracer, layer: str, inner):
        self._tracer = tracer
        self._layer = layer
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._layer, self._inner.__next__, (), {}, _one_item)


def _one_item(args, kwargs, result) -> int:
    return 1


class Tracer:
    def __init__(self):
        self.layers = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.edges = defaultdict(int)  # "parent>child" layer names -> spans
        self.gc_collections = 0
        self.gc_seconds = 0.0
        self._open = []        # [layer, child seconds] of each open span, innermost last
        self._patches = []     # (owner, attribute, original)
        self._gc_started = None

    # -- spans ---------------------------------------------------------------

    def call(self, layer, fn, args, kwargs, measure=None):
        entered = perf_counter()
        span = [layer, 0.0]
        self._open.append(span)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            stats = self.layers[layer]
            stats[CALLS] += 1
            stats[TOTAL_S] += end - start
            stats[SELF_S] += end - start - span[1]
            parent = self._open[-1] if self._open else None
            self.edges[f"{parent[0] if parent else 'client'}>{layer}"] += 1
            if parent:
                parent[1] += end - entered
        if measure is not None:
            stats[AMOUNT] += measure(args, kwargs, result)
            if parent:
                parent[1] += perf_counter() - end
        return result

    def add(self, layer: str, amount: int) -> None:
        """Count work measured by the caller, such as bytes written."""
        self.layers[layer][AMOUNT] += amount

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, name: str, layer: str, measure=None, recursive=False) -> None:
        """Replace owner.name by a span of `layer`.

        A recursive function reaches itself through its module global, so
        while its outermost span is open the original is put back: the
        recursion then pays no tracing cost and no extra stack frame.
        """
        original = getattr(owner, name)
        call = self.call

        if recursive:
            def wrapper(*args, **kwargs):
                setattr(owner, name, original)
                try:
                    return call(layer, original, args, kwargs, measure)
                finally:
                    setattr(owner, name, wrapper)
        else:
            def wrapper(*args, **kwargs):
                return call(layer, original, args, kwargs, measure)

        self._patch(owner, name, wrapper)

    def wrap_generator(self, owner, name: str, layer: str) -> None:
        """Replace a generator factory so that time inside each next() is a span."""
        original = getattr(owner, name)
        tracer = self

        def wrapper(*args, **kwargs):
            return _TracedIterator(tracer, layer, iter(original(*args, **kwargs)))

        self._patch(owner, name, wrapper)

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds += perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def install(self) -> None:
        from fussforest import bijection, cli, exact, series, trees, verify

        for owner in (exact, verify, series, cli):
            for name in ("k_catalan", "forest_catalan", "colored_ternary_count"):
                if hasattr(owner, name):
                    self.wrap(owner, name, "exact.counts")
        for owner in (exact, verify, series):
            self.wrap(owner, "identity_side", "exact.identity_side")

        for name in ("enumerate_binary", "enumerate_colored_ternary", "enumerate_forests"):
            self.wrap_generator(trees, name, "trees.gen")
        for name in ("parse_binary", "parse_ternary"):
            self.wrap(trees, name, "trees.parse", measure=_text_bytes)
        self.wrap(trees, "serialize", "trees.serialize", recursive=True)
        for name in ("internal_count", "color_sum"):
            self.wrap(trees, name, "trees.check", recursive=True)
        for name in ("validate", "ternary_weight"):
            self.wrap(trees, name, "trees.check")

        for owner in (bijection, cli):
            self.wrap(owner, "phi", "bijection.phi", measure=_image_weight)
            self.wrap(owner, "phi_inverse", "bijection.phi_inverse", measure=_argument_weight)

        self.wrap(series, "fuss_catalan_series", "series.fuss_catalan_series")
        self.wrap(series, "colored_tree_series", "series.colored_tree_series")
        for name in ("__mul__", "__rmul__"):
            self.wrap(series.TruncatedSeries, name, "series.mul")

        run_suite = verify.run_suite

        def traced_run_suite(suite, *args, **kwargs):
            return self.call(f"verify.{suite}", run_suite, (suite,) + args, kwargs, _suite_cases)

        self._patch(verify, "run_suite", traced_run_suite)
        self.wrap(cli, "main", "cli")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _text_bytes(args, kwargs, result) -> int:
    return len(args[0])


def _image_weight(args, kwargs, result) -> int:
    return _binary_internal(result)


def _argument_weight(args, kwargs, result) -> int:
    return _binary_internal(args[0])


def _suite_cases(args, kwargs, result) -> int:
    return result.total_cases
