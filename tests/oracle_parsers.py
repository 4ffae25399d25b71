"""Test oracle: the flat parsers as they were before each became one scan.

`trees.parse_binary_word` and `trees.parse_ternary_preorder` run one loop
with a need counter over the blank-free text or over token strings.  These
keep the earlier form: a stack of per-vertex pending counts, and for the
ternary family a five-group token match, so the tests can check that the
new parsers return the same form, or raise a ParseError with the same text.
"""

from __future__ import annotations

import itertools
import re
import sys

from fussforest.trees import ParseError, _error_at

_BLANKS = str.maketrans("", "", " \t")
_BINARY_LETTERS = str.maketrans({"(": "1", "L": "0", ")": None})
_NOT_BLANK = re.compile(r"[^ \t]")


def parse_binary_word(text: str) -> str:
    """Parse one canonical binary tree to its preorder word."""
    compact = text.translate(_BLANKS)
    pending = []  # per open vertex: subtrees still to read before its ')'
    done = False
    for index, ch in enumerate(compact):
        if done:
            raise _binary_error(text, index, "end of input")
        if pending and not pending[-1]:
            if ch != ")":
                raise _binary_error(text, index, "')'")
            pending.pop()
        elif ch == "(":
            pending.append(2)
            continue
        elif ch != "L":
            raise _binary_error(text, index, "'L' or '('")
        # A subtree ended here.
        if pending:
            pending[-1] -= 1
        else:
            done = True
    if not done:
        expected = "')'" if pending and not pending[-1] else "'L' or '('"
        raise ParseError(len(text), expected, "end of input")
    return compact.translate(_BINARY_LETTERS)


def _binary_error(text: str, index: int, expected: str) -> ParseError:
    token = next(itertools.islice(_NOT_BLANK.finditer(text), index, None))
    return _error_at(text, token.start(), expected)


_TERNARY_TOKEN = re.compile(r"[ \t]*(?:(\()[ \t]*([0-9]*)(:?)|([0-9]+)|(\))|[^ \t])")


def parse_ternary_preorder(text: str) -> tuple[int, ...]:
    """Parse one canonical colored ternary tree to its preorder tuple."""
    preorder = []
    pending = []  # per open vertex: subtrees still to read before its ')'
    done = False
    try:
        for index, (opener, color, colon, digits, closer) in enumerate(_TERNARY_TOKEN.findall(text)):
            if done:
                raise _ternary_error(text, index, "end of input")
            if pending and not pending[-1]:
                if not closer:
                    raise _ternary_error(text, index, "')'")
                pending.pop()
            elif digits:
                preorder.append(int(digits))
            elif color and colon:
                preorder.append(~int(color))
                pending.append(3)
                continue
            elif opener:
                token = _ternary_token(text, index)
                if color:
                    raise _error_at(text, token.end(2), "':' after the color")
                raise _error_at(text, token.start(2), "an unsigned decimal color")
            else:
                raise _ternary_error(text, index, "a color digit or '('")
            # A subtree ended here.
            if pending:
                pending[-1] -= 1
            else:
                done = True
    except ParseError:
        raise
    except ValueError:  # int() refuses more digits than sys.get_int_max_str_digits()
        token = _ternary_token(text, index)
        group = 2 if token.group(1) else 4
        raise ParseError(token.start(group),
                         f"a color of at most {sys.get_int_max_str_digits()} digits",
                         f"{len(token.group(group))} digits") from None
    if not done:
        expected = "')'" if pending and not pending[-1] else "a color digit or '('"
        raise ParseError(len(text), expected, "end of input")
    return tuple(preorder)


def _ternary_token(text: str, index: int) -> re.Match:
    return next(itertools.islice(_TERNARY_TOKEN.finditer(text), index, None))


def _ternary_error(text: str, index: int, expected: str) -> ParseError:
    token = _ternary_token(text, index)
    return _error_at(text, token.end() - len(token.group().lstrip(" \t")), expected)
