import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import itertools  # noqa: E402

import pytest  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fussforest.bijection import decode  # noqa: E402
from fussforest.trees import LEAF, BinaryTree, enumerate_binary_words, leaf, node  # noqa: E402


def checkout_env() -> dict:
    """The caller's environment with this checkout's src/ first on PYTHONPATH,
    for a subprocess that runs `python -m fussforest`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# verify and map run their units in forked workers, one per usable CPU.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set how many CPUs the process may use, as the worker runner sees it.
    At teardown, every worker the test forked must have been reaped."""
    def usable(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
    yield usable
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@st.composite
def edited_texts(draw, texts, pieces, edits: int) -> str:
    """A text of `texts` with up to `edits` edits, each at a random place: cut
    the rest, insert a piece of `pieces`, delete a character or replace one with a piece."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, edits))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("cut", "insert", "delete", "replace")))
        piece = draw(pieces) if kind in ("insert", "replace") else ""
        text = text[:at] + piece + ("" if kind == "cut" else text[at + (kind != "insert"):])
    return text


# Random complete trees, small enough for exhaustive-style properties.
binary_trees = st.recursive(
    st.just(LEAF),
    lambda child: st.builds(BinaryTree, child, child),
    max_leaves=25,
)

colored_ternary_trees = st.recursive(
    st.integers(min_value=0, max_value=3).map(leaf),
    lambda child: st.builds(node, st.integers(min_value=0, max_value=3), child, child, child),
    max_leaves=20,
)

# Binary words 10^4 to 2*10^4 levels deep: the j-th word of a size, j <= 30.
deep_binary_words = st.builds(
    lambda n, j: next(itertools.islice(enumerate_binary_words(n), j, None)),
    st.integers(min_value=10_000, max_value=20_000),
    st.integers(min_value=0, max_value=30),
)


@st.composite
def _uniform_binary_word(draw) -> str:
    # By the cycle lemma, n "1"s and n + 1 "0"s shuffled have exactly one
    # rotation that is a preorder word: the one that starts just after the
    # first minimum of the running sum (+1 for "1", -1 for "0").  So a
    # uniform shuffle gives a uniform tree, bushy and of depth of order sqrt(n).
    n = draw(st.integers(min_value=1_000, max_value=5_000))
    letters = ["1"] * n + ["0"] * (n + 1)
    draw(st.randoms(use_true_random=True)).shuffle(letters)  # seeded, one draw
    running = list(itertools.accumulate(1 if letter == "1" else -1 for letter in letters))
    start = running.index(min(running)) + 1
    return "".join(letters[start:] + letters[:start])


# Uniform binary words with 1000 to 5000 internal vertices.
wide_binary_words = _uniform_binary_word()

# Colored ternary preorders of weight 1000 to 5000, uniform at their weight:
# phi is a weight-preserving bijection, so it carries a uniform binary tree
# to a uniform colored ternary tree.
wide_colored_preorders = wide_binary_words.map(decode)


@st.composite
def _deep_colored_preorder(draw) -> tuple[int, ...]:
    # A spine of 10^4 to 2*10^4 internal vertices of mixed colors: at each
    # level the spine goes on in a random child, and the other two are
    # leaves of random colors.  A level's leaves after the spine child come
    # after the whole subtree below it in preorder.
    depth = draw(st.integers(min_value=10_000, max_value=20_000))
    rng = draw(st.randoms(use_true_random=True))  # seeded, one draw
    head, tail = [], []
    for _ in range(depth):
        spine_child = rng.randrange(3)
        leaves = [rng.randrange(4) for _ in range(2)]
        head += [~rng.randrange(4), *leaves[:spine_child]]
        tail.append(leaves[spine_child:])
    head.append(rng.randrange(4))
    return tuple(head + [color for leaves in reversed(tail) for color in leaves])


# Colored ternary preorders 10^4 to 2*10^4 internal vertices deep.
deep_colored_preorders = _deep_colored_preorder()
