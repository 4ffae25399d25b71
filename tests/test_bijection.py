"""The colored-ternary <-> binary bijection: prefix code, paper's steps, round trips, paths."""

from hypothesis import given, settings

import oracle_paths
from conftest import binary_trees, colored_ternary_trees
from fussforest.bijection import decode, encode, phi, phi_inverse
from fussforest.exact import forest_catalan, k_catalan
from fussforest.trees import (
    BINARY,
    COLORED_TERNARY,
    LEAF,
    binary_from_word,
    enumerate_binary,
    enumerate_colored_ternary,
    enumerate_forests,
    internal_count,
    leaf,
    node,
    parse_binary,
    parse_ternary,
    serialize,
    ternary_from_preorder,
    ternary_weight,
    validate,
)
from oracle_paths import (
    binarize,
    contract_l_paths,
    contract_r_paths,
    expand_colors,
    maximal_l_paths,
    maximal_r_paths,
)

# An 8-internal-vertex example worked end to end: its image has two colored
# internal vertices and colors summing to 4.
WORKED_BINARY = "(L (((L (L L)) L) (L ((L L) L))))"
WORKED_TERNARY = "(1: 2 0 (1: 0 0 0))"


def arities(mixed):
    out = []

    def walk(v):
        out.append(len(v.children))
        for c in v.children:
            walk(c)

    walk(mixed)
    return out


# ---------------------------------------------------------------------------
# The prefix code on preorder forms
# ---------------------------------------------------------------------------

def test_encode_substitutes_one_code_word_per_vertex():
    assert encode([0]) == "0"
    assert encode([2]) == "10100"
    assert encode([~0, 0, 0, 0]) == "11000"
    assert encode([~1, 0, 0, 0]) == "1011000"


def test_decode_cuts_the_word_into_code_words():
    assert decode("0") == (0,)
    assert decode("10100") == (2,)
    assert decode("11000") == (~0, 0, 0, 0)
    assert decode("1011000") == (~1, 0, 0, 0)


def test_prefix_code_equals_the_path_construction_to_weight_10():
    # The paper's L/R-path passes, kept in tests/oracle_paths.py, against the
    # prefix code, on every tree of weight <= 10 in both directions.
    checked = 0
    for n in range(11):
        for t in enumerate_colored_ternary(n):
            assert phi(t) == oracle_paths.phi(t)
            checked += 1
        for b in enumerate_binary(n):
            assert phi_inverse(b) == oracle_paths.phi_inverse(b)
            checked += 1
    assert checked == 2 * 23714


def test_objects_10000_deep_match_the_word_level_map():
    # A right comb of colored vertices: each internal vertex's last child is the next.
    depth = 10_000
    preorder = (~1, 0, 2) * depth + (3,)
    word = encode(preorder)
    assert word == ("1011" + "0" + "10100") * depth + "1010100"
    tree = ternary_from_preorder(preorder)
    image = phi(tree)
    assert image.word == word
    assert phi_inverse(image).preorder == preorder
    assert decode(binary_from_word(word).word) == preorder


# ---------------------------------------------------------------------------
# The paper's steps (tests/oracle_paths.py)
# ---------------------------------------------------------------------------

def test_expand_colors_zero_is_identity_shape():
    assert arities(expand_colors(leaf(0))) == [0]
    assert arities(expand_colors(node(0, leaf(0), leaf(0), leaf(0)))) == [3, 0, 0, 0]


def test_expand_colors_builds_left_leafed_chains():
    # color 2 becomes two chained 2-child vertices, each with a left leaf.
    chain = expand_colors(leaf(2))
    assert arities(chain) == [2, 0, 2, 0, 0]
    top_left, below = chain.children
    assert top_left.is_leaf and arities(below) == [2, 0, 0]


def test_binarize_splits_ternary_vertices():
    assert serialize(binarize(expand_colors(node(0, leaf(0), leaf(0), leaf(0))))) == "((L L) L)"
    assert binarize(expand_colors(leaf(0))) == LEAF


def test_phi_small_values():
    assert phi(leaf(0)) == LEAF
    assert serialize(phi(leaf(1))) == "(L L)"
    assert serialize(phi(leaf(2))) == "(L (L L))"
    assert serialize(phi(node(0, leaf(0), leaf(0), leaf(0)))) == "((L L) L)"


def test_contract_l_paths_examples():
    assert arities(contract_l_paths(LEAF)) == [0]
    # left comb of length 3 collapses to one 3-child vertex
    assert arities(contract_l_paths(parse_binary("((L L) L)"))) == [3, 0, 0, 0]
    # right comb has no left chain of length 3: unchanged
    assert arities(contract_l_paths(parse_binary("(L (L L))"))) == [2, 0, 2, 0, 0]


def test_contract_l_paths_leaves_only_left_leafed_binary_vertices():
    for n in range(7):
        for b in enumerate_binary(n):
            def check(v):
                if len(v.children) == 2:
                    assert v.children[0].is_leaf
                for c in v.children:
                    check(c)
            check(contract_l_paths(b))


def test_contract_r_paths_examples():
    assert contract_r_paths(contract_l_paths(LEAF)) == leaf(0)
    assert phi_inverse(parse_binary("(L (L L))")) == leaf(2)
    assert phi_inverse(parse_binary("((L L) L)")) == node(0, leaf(0), leaf(0), leaf(0))


def test_worked_example_both_directions():
    b = parse_binary(WORKED_BINARY)
    t = parse_ternary(WORKED_TERNARY)
    assert phi_inverse(b) == t
    assert phi(t) == b


def test_phi_inverse_of_all_small_binary_trees():
    # weight-3 family by hand: one color-3 leaf and the four one-unit colorings
    images = {serialize(phi_inverse(b)) for b in enumerate_binary(3)}
    assert images == {"3", "(1: 0 0 0)", "(0: 1 0 0)", "(0: 0 1 0)", "(0: 0 0 1)"}


# ---------------------------------------------------------------------------
# Round trips and bijectivity
# ---------------------------------------------------------------------------

def test_round_trips_exhaustive():
    for n in range(7):
        binary = list(enumerate_binary(n))
        ternary = list(enumerate_colored_ternary(n))
        assert len(binary) == len(ternary) == k_catalan(n, 2)
        images = []
        for t in ternary:
            b = phi(t)
            assert internal_count(b) == n
            assert validate(b, BINARY).ok
            assert phi_inverse(b) == t
            images.append(serialize(b))
        assert len(set(images)) == len(images)
        assert set(images) == {serialize(b) for b in binary}
        for b in binary:
            t = phi_inverse(b)
            assert validate(t, COLORED_TERNARY).ok
            assert ternary_weight(t) == n
            assert phi(t) == b


@settings(max_examples=60)
@given(colored_ternary_trees)
def test_round_trip_from_ternary_property(t):
    b = phi(t)
    assert internal_count(b) == ternary_weight(t)
    assert phi_inverse(b) == t


@settings(max_examples=60)
@given(binary_trees)
def test_round_trip_from_binary_property(b):
    t = phi_inverse(b)
    assert validate(t, COLORED_TERNARY).ok
    assert ternary_weight(t) == internal_count(b)
    assert phi(t) == b


# ---------------------------------------------------------------------------
# Forests
# ---------------------------------------------------------------------------

def test_forest_map_is_componentwise():
    assert tuple(map(phi, (leaf(1), leaf(0)))) == (parse_binary("(L L)"), LEAF)


def test_forest_counts_match_closed_form():
    # both families with 2 components and total weight 3: 14 forests each
    assert sum(1 for _ in enumerate_forests(COLORED_TERNARY, 3, 2)) == 14
    assert forest_catalan(3, 2, 2) == 14


# ---------------------------------------------------------------------------
# Path machinery (tests/oracle_paths.py)
# ---------------------------------------------------------------------------

def test_maximal_l_paths_on_the_worked_example():
    paths = {p.vertices for p in maximal_l_paths(parse_binary(WORKED_BINARY))}
    assert ((1,), (1, 0), (1, 0, 0), (1, 0, 0, 0)) in paths  # the length-4 chain
    assert ((1, 1, 1), (1, 1, 1, 0), (1, 1, 1, 0, 0)) in paths  # the length-3 chain


@given(binary_trees)
def test_maximal_l_paths_partition_the_vertices(b):
    paths = maximal_l_paths(b)
    positions = [pos for path in paths for pos in path.vertices]
    assert len(positions) == len(set(positions)) == internal_count(b) * 2 + 1
    for path in paths:
        for parent, child in zip(path.vertices, path.vertices[1:]):
            assert child == parent + (0,)


def test_maximal_r_path_blockers():
    paths = maximal_r_paths(parse_binary("(L (L L))"))
    assert len(paths) == 1
    assert paths[0].vertices == ((), (1,))
    assert paths[0].head_blocker == "is the root"
    assert paths[0].tail_blocker == "right child is a leaf"
    assert maximal_r_paths(LEAF) == ()


@given(binary_trees)
def test_maximal_r_paths_cover_left_leafed_vertices(b):
    paths = maximal_r_paths(b)
    covered = [pos for path in paths for pos in path.vertices]
    assert len(covered) == len(set(covered))

    expected = []

    def walk(v, pos):
        if v.is_leaf:
            return
        if v.left.is_leaf:
            expected.append(pos)
        walk(v.left, pos + (0,))
        walk(v.right, pos + (1,))

    walk(b, ())
    assert sorted(covered) == sorted(expected)
