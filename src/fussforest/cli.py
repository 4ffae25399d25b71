"""Command-line interface: number, enumerate, map, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 enumeration
cap exceeded, 4 parse error (message carries the byte offset), 5 input file
family mismatch, 6 out of resources (Python's recursion limit, memory or int
sizes, as for a color of 2**62 or more, a full disk or quota, or a worker,
of `verify` or `map`, that died without sending its results).
Stdout is deterministic for identical invocations; counts and timing go to
stderr.  ``verify`` runs its checks, and ``map`` its blocks of lines, in
forked workers, one per usable CPU, and their output is the same for any
number of them.  When the reader of stdout goes away early (as in
``fussforest enumerate ... | head -1``), the command stops quietly with
exit 0: what was written is all the reader asked for.  Start-up loads
this module alone, and each command imports the modules it runs when it
starts: ``number`` the exact counts, ``enumerate`` the trees, ``map`` the
trees, the bijection and the worker runner, and ``verify`` the suites.

``map`` reads its input as ASCII bytes, the same from a file and from stdin:
a parse error's offset counts bytes, and a byte that is not ASCII is a parse
error.  It cuts the input at line ends into blocks of about equal size, at
most one per usable CPU and none much under ``_MIN_BLOCK_BYTES``, and each
worker parses, maps and renders its block.  It writes only once every block
has succeeded, so a line that fails (exit 4, 5 or 6) leaves no output.  The
first line that does not parse wins over every other failure, a worker that
died included; failing that, the first failing block's error wins.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import os
import sys
from functools import partial

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_PARSE = 4
EXIT_FAMILY = 5
EXIT_RESOURCE = 6

FORMATS = ("sexp", "dot", "json")
# trees.BINARY and trees.COLORED_TERNARY, written out so that building the
# parser does not import trees (a test keeps them equal).
BINARY = "binary"
COLORED_TERNARY = "colored-ternary"
# verify.SUITES, written out so that building the parser does not import verify
# (a test keeps the two equal).
SUITES = ("identities", "bijection", "series", "counts", "all")


class FamilyMismatchError(Exception):
    """Input parsed as the opposite tree family from the one requested."""


# The exit code of each error, by module and class name, that `main` reports
# by its class; any other "error: <text>" line is a usage error.
_ERROR_EXITS = (("fussforest.workers", "WorkerError", EXIT_RESOURCE),
                ("fussforest.trees", "SizeCapError", EXIT_CAP),
                ("fussforest.trees", "ParseError", EXIT_PARSE),
                (__name__, "FamilyMismatchError", EXIT_FAMILY))


def _error_exits() -> list[tuple[type, int]]:
    """(class, exit code) of each row of _ERROR_EXITS whose module is loaded: a
    module not loaded raised no error, so `main` imports none to report one."""
    return [(getattr(sys.modules[module], name), code)
            for module, name, code in _ERROR_EXITS if module in sys.modules]


# Forwards to the bijection's maps, which no command calls: perfbench/spans.py
# wraps them under these names.  They go when the tracer stops wrapping names.
def phi(tree):
    from .bijection import phi

    return phi(tree)


def phi_inverse(tree):
    from .bijection import phi_inverse

    return phi_inverse(tree)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fussforest",
        description="Exact tree counting, enumeration, bijection mapping, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_number = sub.add_parser("number", help="print a k-ary tree or forest count")
    p_number.add_argument("--k", type=int, required=True, help="arity, k >= 2")
    p_number.add_argument("--n", type=int, required=True, help="internal vertex count, n >= 0")
    p_number.add_argument("--m", type=int, default=None,
                          help="component count; when given, counts m-component forests")
    p_number.set_defaults(func=cmd_number)

    p_enum = sub.add_parser("enumerate", help="stream every tree of a family, one per line")
    p_enum.add_argument("--family", choices=(BINARY, COLORED_TERNARY), required=True)
    p_enum.add_argument("--n", type=int, required=True, help="weight (internal vertices / weight)")
    p_enum.add_argument("--p", type=int, default=None,
                        help="restrict colored ternary trees to p internal vertices")
    p_enum.add_argument("--format", choices=FORMATS, default="sexp")
    p_enum.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_enum.add_argument("--max-n", type=int, default=None,
                        help="acknowledge and override the enumeration cap")
    p_enum.set_defaults(func=cmd_enumerate)

    p_map = sub.add_parser("map", help="apply the bijection to a file of trees (one per line)")
    p_map.add_argument("--direction", choices=("t2b", "b2t"), required=True,
                       help="t2b: colored ternary to binary; b2t: the inverse")
    p_map.add_argument("--in", dest="in_path", default="-", help="input path, '-' for stdin")
    p_map.add_argument("--out", default="-", help="output path, '-' for stdout")
    p_map.add_argument("--format", choices=FORMATS, default="sexp")
    p_map.set_defaults(func=cmd_map)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--m-max", type=int, default=None)
    p_verify.add_argument("--order", type=int, default=None)
    p_verify.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def cmd_number(args) -> int:
    # str() of an int over 4300 digits raises ValueError (the interpreter's
    # int-to-str limit); an exact Decimal of the int has no such limit.
    # Imported here so that start-up does not pay for it.
    import decimal

    from . import exact

    if args.m is None:
        count = exact.k_catalan(args.n, args.k)
    else:
        count = exact.forest_catalan(args.n, args.k, args.m)
    print(str(decimal.Decimal(count)))
    return EXIT_OK


def _render(forms, text, fmt: str, first: int = 0):
    """Each form's piece of output in the given format: its line of `text` (a
    family's text function), its digraph numbered from `first`, or its JSON string."""
    if fmt == "dot":
        from .trees import form_dot

        return map(form_dot, forms, itertools.count(first))
    if fmt == "json":  # tree text holds no character that JSON escapes
        return ('"' + text(form) + '"' for form in forms)
    return (text(form) + "\n" for form in forms)


def _write(stream, pieces, fmt: str) -> int:
    """Write the pieces `_render` made as they come, JSON items as one array
    ("[", the items joined by ", ", then "]" and a line end); return how many."""
    opening, separator, closing = ("[", ", ", "]\n") if fmt == "json" else ("", "", "")
    stream.write(opening)
    count = 0
    for count, piece in enumerate(pieces, 1):
        stream.write(separator + piece if count > 1 else piece)
    stream.write(closing)
    return count


def _emit(args, pieces, verb: str) -> None:
    """Write rendered trees to --out (or stdout); report the count on stderr."""
    if args.out == "-":
        count = _write(sys.stdout, pieces, args.format)
        sys.stdout.flush()  # a full stdout fails here, as a full --out file does on close
    else:
        with open(args.out, "w", encoding="ascii") as stream:
            count = _write(stream, pieces, args.format)
    print(f"{verb} {count} tree(s)", file=sys.stderr)


def cmd_enumerate(args) -> int:
    from . import trees

    if args.family == COLORED_TERNARY:
        forms = trees.enumerate_ternary_preorders(args.n, args.p, max_n=args.max_n)
        text = trees.ternary_preorder_text
    elif args.p is not None:
        raise ValueError("--p only applies to the colored-ternary family")
    else:
        forms = trees.enumerate_binary_words(args.n, max_n=args.max_n)
        text = trees.binary_word_text
    _emit(args, _render(forms, text, args.format), "enumerated")
    return EXIT_OK


# The least size, in bytes, of a block of `map`'s input: an input of n bytes
# is cut into at most n // _MIN_BLOCK_BYTES blocks.  On a 2-CPU x86-64 host
# with Python 3.11, forking a worker and pickling its output back cost about
# 5 ms in a process of 30 MB, while parsing, mapping and rendering cost about
# 0.4 us a byte, so a block of 16 KiB (about 7 ms of work) is already worth
# a worker, and an input of a few lines never forks.
_MIN_BLOCK_BYTES = 1 << 14


def _line_blocks(text: str, count: int) -> list[tuple[int, int]]:
    """(start, end) of at most `count` contiguous blocks of `text` of about
    equal length, each made of whole lines."""
    cuts = [0]
    for b in range(1, count):
        cut = text.find("\n", len(text) * b // count) + 1
        if cuts[-1] < cut < len(text):
            cuts.append(cut)
    cuts.append(len(text))
    return list(zip(cuts, cuts[1:]))


def _map_block(text: str, start: int, end: int, source: str, apply_map, render) -> list:
    """Parse, map and render the lines of text[start:end], one block of `map`;
    a ParseError is raised with its offset in the whole text."""
    from .trees import ParseError, parse_forest_forms

    try:
        forms = parse_forest_forms(text[start:end], source)
    except ParseError as err:
        raise ParseError(start + err.offset, err.expected, err.found) from None
    return list(render(map(apply_map, forms), first=text.count("\n", 0, start)))


def cmd_map(args) -> int:
    from . import bijection, trees, workers

    source, apply_map, target_text, parse_target = (
        (COLORED_TERNARY, bijection.encode, trees.binary_word_text, trees.parse_binary_word)
        if args.direction == "t2b"
        else (BINARY, bijection.decode, trees.ternary_preorder_text, trees.parse_ternary_preorder)
    )
    if args.in_path == "-":
        text = sys.stdin.buffer.read()
    else:
        with open(args.in_path, "rb") as stream:
            text = stream.read()
    # One character per byte, the same from a file and from stdin: offsets
    # count bytes, and a byte that is not ASCII becomes a character no tree
    # text holds, so it is a parse error.
    text = text.decode("ascii", "surrogateescape")
    render = partial(_render, text=target_text, fmt=args.format)
    count = min(workers.usable_cpus(), len(text) // _MIN_BLOCK_BYTES) or 1
    units = [partial(_map_block, text, start, end, source, apply_map, render)
             for start, end in _line_blocks(text, count)]
    blocks = workers.run_units(units, "map")
    # A line that does not parse wins over every other failure, as in a pass that parses
    # every line before it maps any; failing that, the first failing block's error wins.
    errors = [block for block in blocks if isinstance(block, Exception)]
    err = min(errors, key=lambda error: not isinstance(error, trees.ParseError), default=None)
    if isinstance(err, trees.ParseError):
        line_no = text.count("\n", 0, err.offset)
        end = text.find("\n", err.offset)
        line = text[text.rfind("\n", 0, err.offset) + 1:None if end < 0 else end]
        try:
            parse_target(line)
        except trees.ParseError:
            raise err from None
        raise FamilyMismatchError(
            f"line {line_no + 1} parses as the opposite family; check --direction")
    if err is not None:
        raise err
    _emit(args, itertools.chain.from_iterable(blocks), "mapped")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    report = verify.run_suite(args.suite, n_max=args.n_max, m_max=args.m_max, order=args.order)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    sys.stdout.flush()
    print(f"elapsed: {report.elapsed_seconds:.3f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _drop_stdout() -> None:
    """Point stdout at devnull, so the exit-time flush of what a failed write left cannot fail."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # an in-memory stdout, which no device refused
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _out_of_resources(err: Exception) -> int:
    """Report exit 6 on stderr: the error's type, then its text if it has any."""
    line = f"error: out of resources: {type(err).__name__}"
    print(f"{line}: {err}" if str(err) else line, file=sys.stderr)
    return EXIT_RESOURCE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse uses exit code 2 for usage errors
        return exit_.code if isinstance(exit_.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a full or closed stdout fails here, not in the exit-time flush
        return code
    except (RecursionError, MemoryError, OverflowError,
            *[kind for kind, code in _error_exits() if code == EXIT_RESOURCE]) as err:
        return _out_of_resources(err)
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_OK
    except (ValueError, OSError, FamilyMismatchError) as err:
        if isinstance(err, OSError) and err.errno in (errno.ENOSPC, errno.EFBIG, errno.EDQUOT):
            _drop_stdout()
            return _out_of_resources(err)
        print(f"error: {err}", file=sys.stderr)
        return next((code for kind, code in _error_exits() if isinstance(err, kind)), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
