"""Tree values, generators, canonical text format, validation, DOT export, README examples."""

import collections
import copy
import doctest
import hashlib
import itertools
import pickle
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_generators
import oracle_parsers
import oracle_paths
from conftest import (
    binary_trees,
    colored_ternary_trees,
    deep_binary_words,
    deep_colored_preorders,
    wide_binary_words,
    wide_colored_preorders,
)
from fussforest import trees
from fussforest.bijection import decode, encode
from fussforest.exact import colored_ternary_count, forest_catalan, k_catalan
from fussforest.trees import (
    BINARY,
    COLORED_TERNARY,
    LEAF,
    BinaryTree,
    ColoredTernaryTree,
    ParseError,
    binary_from_word,
    binary_word_text,
    color_sum,
    enumerate_binary,
    enumerate_binary_words,
    enumerate_colored_ternary,
    enumerate_forest_forms,
    enumerate_forests,
    enumerate_ternary_preorders,
    form_dot,
    internal_count,
    leaf,
    node,
    parse_binary,
    parse_binary_word,
    parse_forest_forms,
    parse_ternary,
    parse_ternary_preorder,
    serialize,
    ternary_from_preorder,
    ternary_preorder_text,
    ValidationReport,
    ternary_weight,
    validate,
)
from fussforest.trees import _next_composition, _shape_words


def test_vertex_statistics():
    assert internal_count(LEAF) == 0
    assert internal_count(BinaryTree(LEAF, LEAF)) == 1
    assert internal_count(node(0, leaf(), leaf(), leaf())) == 1
    assert color_sum(leaf(2)) == 2
    assert color_sum(node(1, leaf(1), leaf(0), leaf(2))) == 4
    assert ternary_weight(node(1, leaf(1), leaf(0), leaf(2))) == 6


def test_trees_are_immutable_values():
    assert BinaryTree(LEAF, LEAF) == BinaryTree(LEAF, LEAF)
    assert len({leaf(1), leaf(1), leaf(2)}) == 2
    with pytest.raises(AttributeError):
        LEAF.left = LEAF
    with pytest.raises(AttributeError):
        leaf(1).preorder = (2,)
    assert BinaryTree(LEAF, LEAF) != node(0, leaf(), leaf(), leaf())
    # Equality and hashing are those of the one field, the preorder form.
    assert hash(BinaryTree(LEAF, LEAF)) == hash(binary_from_word("100"))
    assert BinaryTree(LEAF, BinaryTree(LEAF, LEAF)) != BinaryTree(BinaryTree(LEAF, LEAF), LEAF)
    assert node(1, leaf(0), leaf(2), leaf(0)) == ternary_from_preorder((~1, 0, 2, 0))


def test_value_reprs():
    assert repr(LEAF) == "BinaryTree(word='0')"
    assert repr(leaf(1)) == "ColoredTernaryTree(preorder=(1,))"
    assert repr(validate([LEAF, 3], BINARY)) == (
        "ValidationReport(ok=False, path=(1,), message='expected a BinaryTree, got int')")
    assert repr(validate(LEAF, BINARY)) == "ValidationReport(ok=True, path=None, message=None)"


@pytest.mark.parametrize("value", [
    parse_binary("((L L) (L (L L)))"),
    node(1, leaf(0), leaf(2), node(0, leaf(), leaf(), leaf())),
    ValidationReport(False, (1,), "a fault"),
], ids=lambda value: type(value).__name__)
def test_values_compare_copy_and_pickle_by_their_fields(value):
    kind = type(value)
    fields = [getattr(value, name) for name in kind.__match_args__]
    twin = object.__new__(kind)
    twin.__dict__.update(zip(kind.__match_args__, fields))
    assert twin == value and hash(twin) == hash(value) and not twin != value
    assert value != fields[0] and value != tuple(fields)
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is kind and copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)
    for name in (*kind.__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in kind.__match_args__] == fields
    match value:
        case BinaryTree(word):
            assert word == value.word
        case ColoredTernaryTree(preorder):
            assert preorder == value.preorder
        case ValidationReport(ok, path, message):
            assert (ok, path, message) == (False, (1,), "a fault")


def test_values_equal_only_values_of_their_own_class():
    class Tree(BinaryTree):
        pass

    assert Tree() == Tree() and Tree() != LEAF and LEAF != Tree()  # the same fields
    assert BinaryTree() != leaf(0) and leaf(0) != BinaryTree() and ValidationReport(True) != LEAF


def test_trees_are_views_of_their_forms():
    b = parse_binary("((L L) (L (L L)))")
    assert b.word == "110010100" and not b.is_leaf
    assert (b.left, b.right) == (parse_binary("(L L)"), parse_binary("(L (L L))"))
    assert (LEAF.left, LEAF.right, LEAF.is_leaf) == (None, None, True)
    t = node(1, leaf(0), leaf(2), node(0, leaf(), leaf(), leaf()))
    assert t.preorder == (~1, 0, 2, ~0, 0, 0, 0) and (t.color, t.is_leaf) == (1, False)
    assert t.children == (leaf(0), leaf(2), node(0, leaf(), leaf(), leaf()))
    assert (leaf(5).color, leaf(5).children, leaf(5).is_leaf) == (5, (), True)
    assert ColoredTernaryTree(3, [leaf(), leaf(), leaf()]) == node(3, leaf(), leaf(), leaf())


@pytest.mark.parametrize("build, error", [
    (lambda: leaf(-1), ValueError),
    (lambda: leaf(True), ValueError),
    (lambda: node(1.0, leaf(), leaf(), leaf()), ValueError),
    (lambda: BinaryTree(LEAF, None), TypeError),
    (lambda: BinaryTree(None, LEAF), TypeError),
    (lambda: ColoredTernaryTree(0, (leaf(),)), TypeError),
    (lambda: node(0, leaf(), BinaryTree(LEAF, LEAF), leaf()), TypeError),
], ids=["negative-color", "bool-color", "float-color", "binary-one-child", "binary-no-left",
        "ternary-one-child", "binary-child-under-ternary"])
def test_constructors_refuse_malformed_vertices(build, error):
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_enumerate_binary_base_case():
    assert list(enumerate_binary(0)) == [LEAF]


def test_enumerate_binary_order_is_left_size_ascending():
    assert [serialize(b) for b in enumerate_binary(2)] == ["(L (L L))", "((L L) L)"]


def test_enumerate_binary_counts():
    for n in range(9):
        assert sum(1 for _ in enumerate_binary(n)) == k_catalan(n, 2)


def test_enumerate_binary_no_duplicates():
    for n in range(7):
        keys = [serialize(b) for b in enumerate_binary(n)]
        assert len(keys) == len(set(keys))


def test_enumerate_binary_members_are_complete():
    for b in enumerate_binary(5):
        assert validate(b, BINARY).ok
        assert internal_count(b) == 5


def test_enumerate_colored_ternary_examples():
    assert [serialize(t) for t in enumerate_colored_ternary(2, 1)] == ["(0: 0 0 0)"]
    assert [serialize(t) for t in enumerate_colored_ternary(2, 0)] == ["2"]
    assert sum(1 for _ in enumerate_colored_ternary(4, 1)) == 10


def test_enumerate_colored_ternary_counts_and_members():
    for n in range(7):
        for p in range(n // 2 + 2):  # one past the range: must be empty
            members = list(enumerate_colored_ternary(n, p))
            assert len(members) == colored_ternary_count(n, p)
            keys = {serialize(t) for t in members}
            assert len(keys) == len(members)
            for t in members:
                assert internal_count(t) == p
                assert color_sum(t) == n - 2 * p
                assert ternary_weight(t) == n


def test_enumerate_colored_ternary_all_p():
    for n in range(7):
        total = sum(1 for _ in enumerate_colored_ternary(n))
        assert total == k_catalan(n, 2)


def test_enumerate_forests_examples():
    assert list(enumerate_forests(BINARY, 0, 3)) == [(LEAF, LEAF, LEAF)]
    assert sum(1 for _ in enumerate_forests(BINARY, 2, 2)) == 5
    two = [tuple(serialize(t) for t in f) for f in enumerate_forests(COLORED_TERNARY, 1, 2)]
    assert two == [("0", "1"), ("1", "0")]


def test_enumerate_forests_counts():
    for m in (1, 2, 3, 4):
        for n in range(5):
            assert sum(1 for _ in enumerate_forests(BINARY, n, m)) == forest_catalan(n, 2, m)


# The recursive object generators of tests/oracle_generators.py, against the
# flat ones: the same trees in the same order.

def test_binary_order_matches_the_recursive_oracle():
    for n in range(10):
        expected = list(oracle_generators.gen_binary(n))
        assert list(enumerate_binary(n)) == expected
        assert list(enumerate_binary_words(n)) == [b.word for b in expected]


def test_colored_order_matches_the_recursive_oracle():
    for n in range(9):
        for p in [None, *range(n // 2 + 2)]:
            expected = list(oracle_generators.gen_colored_ternary(n, p))
            assert list(enumerate_colored_ternary(n, p)) == expected
            forms = list(enumerate_ternary_preorders(n, p))
            assert forms == [t.preorder for t in expected]


def test_forest_order_matches_the_recursive_oracle():
    for family, form in ((BINARY, "word"), (COLORED_TERNARY, "preorder")):
        for n in range(6):
            for m in (1, 2, 3):
                expected = list(oracle_generators.gen_forests(family, n, m))
                assert list(enumerate_forests(family, n, m)) == expected
                assert list(enumerate_forest_forms(family, n, m)) == [
                    tuple(getattr(tree, form) for tree in forest) for forest in expected]


def test_binary_words_run_from_the_right_comb_to_the_left_comb():
    words = list(enumerate_binary_words(12))
    assert words[0] == "10" * 12 + "0"
    assert words[-1] == "1" * 12 + "0" * 13


def test_deep_binary_words_step_without_recursion():
    # Each word steps from the one before in one frame, so trees 10^4 levels
    # deep come out; the last vertex that can step is near the bottom.
    n = 10_000
    words = enumerate_binary_words(n)
    assert [next(words) for _ in range(3)] == [
        "10" * n + "0", "10" * (n - 2) + "11000", "10" * (n - 3) + "1100100"]


def test_shape_words_match_the_stepwise_oracle_past_the_table_cap():
    # Tables stop at size 9 for k=2, 6 for k=3, 4 for k=4 and 3 for k=5, so
    # these sizes restart pieces that come from steps, not from a table.
    for k, top in ((2, 12), (3, 8), (4, 7), (5, 6)):
        for p in range(top + 1):
            assert list(_shape_words(p, k)) == list(
                oracle_generators.shape_words_stepwise(p, k)), (k, p)


# The last size whose trees have at most 19 vertices, the largest with a table.
_LAST_TABLE_SIZE = {2: 9, 3: 6}


def test_deep_binary_words_build_no_table_past_the_cap(monkeypatch):
    # 3*10^5 words of a 2000-vertex tree take about 0.07 s on a 2-CPU x86-64
    # host (one step per word took about 1 s).  Tables are built once, in
    # increasing size, up to the last size with at most 19 vertices, and a
    # repeat call builds none.
    monkeypatch.setattr(trees, "_TABLES", {})
    started = time.perf_counter()
    words = enumerate_binary_words(2000)
    collections.deque(itertools.islice(words, 300_000), maxlen=0)
    assert time.perf_counter() - started < 1.0
    for k, last in _LAST_TABLE_SIZE.items():
        next(_shape_words(2000, k))
        tables = trees._TABLES[k]
        assert tables == [list(oracle_generators.shape_words_stepwise(s, k))
                          for s in range(last + 1)], k
        next(_shape_words(2000, k))
        assert trees._TABLES[k] is tables


def test_shape_words_read_a_size_with_a_table_from_it(monkeypatch):
    # Each call grows the kept tables through the size it asks for, and a
    # size with a table yields that table; the first size past the cap has
    # no table, and a repeat call builds none.
    for k, last in _LAST_TABLE_SIZE.items():
        monkeypatch.setattr(trees, "_TABLES", {})
        for p in range(last + 2):
            words = list(_shape_words(p, k))
            tables = trees._TABLES.get(k, [["0"]])
            assert [len(table) for table in tables] == [
                k_catalan(s, k) for s in range(min(p, last) + 1)], (k, p)
            assert len(words) == k_catalan(p, k)
            if p <= last:
                assert words == tables[p]
            collections.deque(_shape_words(p, k), maxlen=0)
            assert trees._TABLES.get(k, tables) is tables


def test_a_suspended_generator_keeps_the_tables_it_read(monkeypatch):
    # Tables grow by replacing the stored list, so a generator that another
    # call outgrows goes on with the list it read, which is left as it was.
    monkeypatch.setattr(trees, "_TABLES", {})
    words = _shape_words(4, 2)
    first = [next(words) for _ in range(3)]
    read = trees._TABLES[2]
    next(_shape_words(2000, 2))
    assert len(read) == 5 and len(trees._TABLES[2]) == _LAST_TABLE_SIZE[2] + 1
    assert first + list(words) == list(oracle_generators.shape_words_stepwise(4, 2))


def test_threads_that_build_the_tables_at_once_store_each_size_once(monkeypatch):
    # More threads than cores, switching often, all building from no tables:
    # a size stored twice would shift every larger table by one.
    monkeypatch.setattr(trees, "_TABLES", {})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=next, args=(_shape_words(2000, k),))
                   for k in (2, 3) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, last in _LAST_TABLE_SIZE.items():
        assert [len(table) for table in trees._TABLES[k]] == [
            k_catalan(s, k) for s in range(last + 1)], k


@pytest.mark.parametrize("family, text, digest", [
    (BINARY, binary_word_text,
     "1077e8c3b5552427b02d552d96c2b1f200e97de06100858270d4afddba7182ab"),
    (COLORED_TERNARY, ternary_preorder_text,
     "75e42aa58f573b4808327a1e0d16ee757fe59900669daf1af7c6a74f8bdd7ec5"),
], ids=[f"{BINARY}-forests", f"{COLORED_TERNARY}-forests"])
def test_enumerated_text_keeps_its_digest(family, text, digest):
    # One forest per line, its components' text joined by ';', for every
    # forest that `verify` enumerates (n <= 8, m <= 4), m outer and n inner:
    # 60840 lines per family.  The tree text that `enumerate` prints is
    # pinned by tests/cli_contract.json.
    forests = (forest for m in range(1, 5) for n in range(9)
               for forest in enumerate_forest_forms(family, n, m))
    lines = "".join(";".join(map(text, forest)) + "\n" for forest in forests)
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


def test_colored_forest_forms_are_tuples():
    # Components are immutable, so forests may share them, and they hash.
    forms = list(enumerate_forest_forms(COLORED_TERNARY, 4, 3))
    assert all(type(component) is tuple for forest in forms for component in forest)
    with pytest.raises(TypeError):
        forms[0][0][0] = 7
    assert len(set(forms)) == len(forms) == forest_catalan(4, 2, 3)


def test_weak_compositions_match_the_recursive_oracle():
    # The steps of one list, from the first composition until the stepper
    # stops, as the generators take them.
    for total in range(9):
        for parts in range(1, 8):
            composition = [0] * (parts - 1) + [total]
            steps = [tuple(composition)]
            while _next_composition(composition):
                steps.append(tuple(composition))
            assert steps == list(oracle_generators.weak_compositions(total, parts)), (total, parts)


def test_colors_of_a_large_colored_tree_take_no_frame_per_vertex():
    # 1801 vertices share 100 color units, deeper than the default recursion
    # limit if each part of a weak composition took a frame.
    first = next(enumerate_ternary_preorders(1300, 600))
    assert first == (~0, 0, 0) * 600 + (100,)


@pytest.mark.parametrize("call", [
    lambda: enumerate_forest_forms("septenary", 1, 0),  # the family is checked before m
    lambda: enumerate_forests("septenary", 1, 1),
    lambda: validate(LEAF, "septenary"),
    lambda: parse_forest_forms("L\n", "septenary"),
], ids=["enumerate_forest_forms", "enumerate_forests", "validate", "parse_forest_forms"])
def test_an_unknown_family_is_refused_with_the_families_named(call):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == ("unknown family 'septenary'; "
                                 "expected one of ('binary', 'colored-ternary')")


def test_enumeration_cap():
    # The enumeration cap, 12 unless --max-n raises it, is the CLI's alone: the
    # library generators enumerate past it and take no max_n.
    assert next(enumerate_binary_words(500)) == "10" * 500 + "0"
    assert next(enumerate_binary(13)) == binary_from_word("10" * 13 + "0")
    assert list(enumerate_colored_ternary(15, 0)) == [leaf(15)]
    for enumerate_n in (enumerate_binary, enumerate_colored_ternary, enumerate_binary_words,
                        enumerate_ternary_preorders,
                        lambda n, **cap: enumerate_forests(BINARY, n, 2, **cap),
                        lambda n, **cap: enumerate_forest_forms(COLORED_TERNARY, n, 1, **cap)):
        with pytest.raises(TypeError):
            enumerate_n(3, max_n=3)


# ---------------------------------------------------------------------------
# Canonical text format
# ---------------------------------------------------------------------------

def test_serialize_examples():
    assert serialize(LEAF) == "L"
    assert serialize(BinaryTree(LEAF, LEAF)) == "(L L)"
    assert serialize(leaf(2)) == "2"
    assert serialize(node(1, leaf(0), leaf(0), leaf(2))) == "(1: 0 0 2)"


def test_parse_examples():
    assert parse_binary("L") == LEAF
    assert parse_binary("(L (L L))") == BinaryTree(LEAF, BinaryTree(LEAF, LEAF))
    assert parse_ternary("2") == leaf(2)
    assert parse_ternary("(1: 0 0 2)") == node(1, leaf(0), leaf(0), leaf(2))
    assert parse_ternary("(10: 0 12 0)").children[1].color == 12


def test_round_trip_on_generated_trees():
    for n in range(6):
        for b in enumerate_binary(n):
            assert parse_binary(serialize(b)) == b
        for t in enumerate_colored_ternary(n):
            assert parse_ternary(serialize(t)) == t


@given(binary_trees)
def test_round_trip_binary_property(b):
    assert parse_binary(serialize(b)) == b


@given(colored_ternary_trees)
def test_round_trip_ternary_property(t):
    assert parse_ternary(serialize(t)) == t


@pytest.mark.parametrize("text,offset,expected_fragment", [
    ("", 0, "'L' or '('"),
    ("x", 0, "'L' or '('"),
    ("(L", 2, "'L' or '('"),
    ("(L L", 4, "')'"),
    ("(L L) L", 6, "end of input"),
    ("LL", 1, "end of input"),
])
def test_parse_binary_errors_carry_offsets(text, offset, expected_fragment):
    with pytest.raises(ParseError) as err:
        parse_binary(text)
    assert err.value.offset == offset
    assert expected_fragment in err.value.expected


@pytest.mark.parametrize("text,offset", [
    ("L", 0),          # binary leaf is not a color
    ("(1 0 0 0)", 2),  # missing ':'
    ("(1: 0 0)", 7),   # only two children
    ("-2", 0),         # signs are not allowed
])
def test_parse_ternary_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse_ternary(text)
    assert err.value.offset == offset


def test_forest_round_trip():
    forms = list(enumerate_ternary_preorders(3))
    text = "".join(ternary_preorder_text(form) + "\n" for form in forms)
    assert parse_forest_forms(text, COLORED_TERNARY) == forms
    assert text.endswith("\n")


def test_parse_forest_offset_spans_lines():
    with pytest.raises(ParseError) as err:
        parse_forest_forms("L\n(L x)\n", BINARY)
    assert err.value.offset == 5  # the 'x', counted from the start of the text


def test_parse_forest_forms_final_newline_is_optional():
    assert parse_forest_forms("", BINARY) == []
    assert parse_forest_forms("L\n(L L)", BINARY) == parse_forest_forms("L\n(L L)\n", BINARY)
    assert parse_forest_forms("L\n(L L)", BINARY) == ["0", "100"]
    assert parse_forest_forms("(1: 0 0 0)", COLORED_TERNARY) == [(-2, 0, 0, 0)]


def test_parse_forest_forms_are_the_forms_of_each_line():
    text = "".join(serialize(t) + "\n" for t in enumerate_colored_ternary(3))
    forms = parse_forest_forms(text, COLORED_TERNARY)
    assert forms == [parse_ternary(line).preorder for line in text.splitlines()]
    assert forms == [t.preorder for t in enumerate_colored_ternary(3)]


def test_parse_ternary_rejects_a_color_too_long_to_convert():
    digits = "1" * 5000
    with pytest.raises(ParseError) as err:
        parse_ternary(f"(0: 0 {digits} 0)")
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        parse_ternary(f"( {digits}: 0 0 0)")
    assert err.value.offset == 2


def test_deep_texts_parse_without_recursion():
    depth = 100_000
    assert parse_binary_word("(L " * depth + "L" + ")" * depth) == "10" * depth + "0"
    assert parse_ternary_preorder("(0: 1 2 " * depth + "3" + ")" * depth) == (~0, 1, 2) * depth + (3,)
    with pytest.raises(ParseError) as err:
        parse_binary_word("(" * depth)
    assert (err.value.offset, err.value.found) == (depth, "end of input")


def test_deep_trees_check_and_compare_without_recursion():
    # A binary right comb 5000 levels deep, and a colored ternary tree whose
    # last child nests 10^4 levels deep, built from their forms in linear time.
    comb = binary_from_word("10" * 5000 + "0")
    assert internal_count(comb) == 5000
    assert validate(comb, BINARY).ok and validate((LEAF, comb), BINARY).ok
    copy = binary_from_word("10" * 5000 + "0")
    assert comb == copy and hash(comb) == hash(copy)
    assert comb != binary_from_word("10" * 4999 + "0")
    assert (comb.left, comb.right) == (LEAF, binary_from_word("10" * 4999 + "0"))
    depth = 10_000
    preorder = (~1, 0, 2) * depth + (3,)
    tree = ternary_from_preorder(preorder)
    assert (internal_count(tree), color_sum(tree), ternary_weight(tree)) == (
        depth, 3 * depth + 3, 5 * depth + 3)
    assert validate(tree, COLORED_TERNARY).ok
    copy = ternary_from_preorder(preorder)
    assert tree == copy and hash(tree) == hash(copy)
    assert tree != ternary_from_preorder(preorder[:-1] + (4,))
    assert tree.children == (leaf(0), leaf(2), ternary_from_preorder(preorder[3:]))
    assert serialize(tree) == "(1: 0 2 " * depth + "3" + ")" * depth


@settings(max_examples=75, deadline=None)
@given(wide_binary_words)
def test_text_and_code_round_trips_on_wide_words(word):
    assert validate(binary_from_word(word), BINARY).ok
    assert parse_binary_word(binary_word_text(word)) == word
    preorder = decode(word)
    assert validate(ternary_from_preorder(preorder), COLORED_TERNARY).ok
    assert parse_ternary_preorder(ternary_preorder_text(preorder)) == preorder
    assert encode(preorder) == word


@settings(max_examples=8, deadline=None)
@given(deep_binary_words)
def test_form_routines_on_deep_words(word):
    assert parse_binary_word(binary_word_text(word)) == word
    tree = binary_from_word(word)
    assert tree.word == word and validate(tree, BINARY).ok
    copy = binary_from_word(word)
    assert tree == copy and hash(tree) == hash(copy)
    preorder = decode(word)
    assert encode(preorder) == word
    assert parse_ternary_preorder(ternary_preorder_text(preorder)) == preorder
    assert form_dot(word).count("[shape=") == len(word)
    assert form_dot(preorder).count("[shape=") == len(preorder)



def _check_colored_form_routines(preorder):
    assert parse_ternary_preorder(ternary_preorder_text(preorder)) == preorder
    assert decode(encode(preorder)) == preorder
    assert validate(ternary_from_preorder(preorder), COLORED_TERNARY).ok
    assert form_dot(preorder).count("[shape=") == len(preorder)


@settings(max_examples=25, deadline=None)
@given(wide_colored_preorders)
def test_form_routines_on_wide_colored_preorders(preorder):
    _check_colored_form_routines(preorder)


@settings(max_examples=8, deadline=None)
@given(deep_colored_preorders)
def test_form_routines_on_deep_colored_preorders(preorder):
    # Deeper than the recursion limit lets any recursive routine go.
    assert sum(item < 0 for item in preorder) > sys.getrecursionlimit()
    assert len(set(preorder)) > 4  # colors are mixed, on internal vertices and leaves
    _check_colored_form_routines(preorder)

# Parser fuzz.  Texts are raw bytes, or canonical texts cut short or with a
# few bytes inserted, deleted or replaced, so that errors also occur deep in
# the grammar.
_GRAMMAR_BYTES = st.sampled_from(list(b"()L0123456789: \t\nx-"))


@st.composite
def _fuzz_bytes(draw) -> bytes:
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    data = bytearray(serialize(draw(binary_trees | colored_ternary_trees)).encode("ascii"))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(("cut", "insert", "delete", "replace")))
        byte = draw(_GRAMMAR_BYTES)
        if action == "cut":
            del data[pos:]
        elif action == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if action == "delete":
                del data[pos]
            else:
                data[pos] = byte
    return bytes(data)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return err.offset, err.expected, err.found


@settings(max_examples=400)
@given(st.text() | _fuzz_bytes().map(lambda data: data.decode("latin-1")))
def test_parsers_raise_only_parse_errors_in_range(text):
    for parse in (parse_binary_word, parse_ternary_preorder):
        try:
            parse(text)
        except ParseError as err:
            assert 0 <= err.offset <= len(text)


@settings(max_examples=400)
@given(_fuzz_bytes().map(lambda data: bytes(b & 0x7F for b in data).decode("ascii")))
def test_parsers_match_the_recursive_oracle(text):
    # On ASCII text; the oracle also takes non-ASCII digits (str.isdigit).
    assert _outcome(parse_binary, text) == _outcome(oracle_paths.parse_binary, text)
    assert _outcome(parse_ternary, text) == _outcome(oracle_paths.parse_ternary, text)


# Pieces for the flat-parser oracle: blanks, an opener with a blank, without
# its '(' or without its color, a byte that was not ASCII as "surrogateescape"
# decodes it, and a color one digit past the int-to-str limit.
_ORACLE_PIECES = st.sampled_from(
    [" ", "\t", "( 3:", "3:", "(:", "\udcc3", "9" * 4301, "(", ")", "L", "0", ":"])


@st.composite
def _mutated_texts(draw) -> str:
    text = serialize(draw(binary_trees | colored_ternary_trees))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(text)))
        action = draw(st.sampled_from(("cut", "insert", "delete", "replace")))
        piece = draw(_ORACLE_PIECES)
        if action == "cut":
            text = text[:pos]
        elif action == "insert":
            text = text[:pos] + piece + text[pos:]
        else:
            text = text[:pos] + ("" if action == "delete" else piece) + text[pos + 1:]
    return text


@settings(max_examples=200)
@given(_mutated_texts())
def test_parsers_match_the_flat_oracle(text):
    # The same form, or a ParseError with the same offset, expectation and find.
    assert _outcome(parse_binary_word, text) == _outcome(oracle_parsers.parse_binary_word, text)
    assert _outcome(parse_ternary_preorder, text) == _outcome(
        oracle_parsers.parse_ternary_preorder, text)


@pytest.mark.parametrize("text", ["(L (((L (L L)) L) (L ((L L) L))))", "(1: 2 0 (10: 0 (0: 0 0 0) 0))"])
def test_parsers_match_the_recursive_oracle_on_cut_texts(text):
    # Every prefix, and every text with one character taken out.
    cuts = [text[:end] for end in range(len(text) + 1)]
    cuts += [text[:i] + text[i + 1:] for i in range(len(text))]
    for cut in cuts:
        assert _outcome(parse_binary, cut) == _outcome(oracle_paths.parse_binary, cut)
        assert _outcome(parse_ternary, cut) == _outcome(oracle_paths.parse_ternary, cut)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validate_accepts_valid_trees():
    assert validate(LEAF, BINARY).ok
    assert validate(node(1, leaf(0), leaf(2), leaf(0)), COLORED_TERNARY).ok
    assert validate((LEAF, BinaryTree(LEAF, LEAF)), BINARY).ok


def test_validate_checks_type_and_family():
    # The constructors refuse malformed vertices, so what is left is the
    # type: a tree of the other family, a forest with a foreign component,
    # an empty forest or something that is not a sequence.
    report = validate(LEAF, COLORED_TERNARY)
    assert (report.ok, report.path) == (False, ())
    assert "ColoredTernaryTree" in report.message and "BinaryTree" in report.message
    report = validate((leaf(0), leaf(2), LEAF, "L"), COLORED_TERNARY)
    assert (report.ok, report.path) == (False, (2,))
    report = validate([BinaryTree(LEAF, LEAF), leaf()], BINARY)
    assert (report.ok, report.path) == (False, (1,))
    for empty in ((), [], ""):
        report = validate(empty, BINARY)
        assert (report.ok, report.path, report.message) == (
            False, (), "a forest needs at least one component")
    for foreign in (None, 3, {LEAF}, iter([LEAF])):
        report = validate(foreign, BINARY)
        assert (report.ok, report.path) == (False, ())
    assert validate([LEAF, parse_binary("(L L)")], BINARY).ok


@pytest.mark.parametrize("family, form, fragment", [
    (BINARY, "11", "3 subtree(s) short"),
    (BINARY, "100" + "0", "item 3 is past the end"),
    (BINARY, "2", "item 0 is '2'"),
    (BINARY, "", "1 subtree(s) short"),
    (BINARY, ["1", "0", "0"], "expected a str form, got list"),
    (COLORED_TERNARY, (-1, 0), "2 subtree(s) short"),
    (COLORED_TERNARY, ("a",), "item 0 is 'a', not an int"),
    (COLORED_TERNARY, (True,), "item 0 is True, not an int"),
    (COLORED_TERNARY, (0, 0), "item 1 is past the end"),
    (COLORED_TERNARY, [0], "expected a tuple form, got list"),
    (COLORED_TERNARY, None, "expected a tuple form, got NoneType"),
], ids=["binary-short", "binary-long", "binary-letter", "binary-empty", "binary-list",
        "ternary-short", "ternary-str", "ternary-bool", "ternary-long", "ternary-list",
        "ternary-none"])
def test_validate_rejects_a_malformed_trusted_form(family, form, fragment):
    # The *_from_* wrappers trust their form, so validate scans it.
    tree = (binary_from_word if family == BINARY else ternary_from_preorder)(form)
    report = validate(tree, family)
    assert (report.ok, report.path) == (False, ()) and fragment in report.message
    report = validate((tree,) if family == BINARY else [leaf(1), leaf(0), tree], family)
    assert (report.ok, report.path) == (False, (0,) if family == BINARY else (2,))
    assert fragment in report.message


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def test_dot_export_single_colored_leaf():
    assert form_dot([2]) == 'digraph tree0 {\n  v0 [shape=point, xlabel="2"];\n}\n'


def test_dot_export_structure():
    dot = form_dot(BinaryTree(LEAF, LEAF).word, index=3)
    assert dot.startswith("digraph tree3 {")
    assert '  v0 [shape=circle, label=""];' in dot
    assert '  v0 -> v1 [label="1"];' in dot
    assert '  v0 -> v2 [label="2"];' in dot
    ternary_dot = form_dot(node(1, leaf(0), leaf(0), leaf(2)).preorder)
    assert '  v0 [shape=circle, label="1"];' in ternary_dot
    assert '  v0 -> v3 [label="3"];' in ternary_dot
    assert 'xlabel="2"' in ternary_dot


def test_dot_matches_the_recursive_oracle():
    # Every tree of weight <= 6, drawn from its preorder form.
    for n in range(7):
        for b in enumerate_binary(n):
            assert form_dot(b.word, n) == oracle_generators.to_dot(b, n)
        for t in enumerate_colored_ternary(n):
            assert form_dot(t.preorder, n) == oracle_generators.to_dot(t, n)


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

def test_readme_examples_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False, encoding="utf-8")
    assert result.attempted > 0 and result.failed == 0
