"""Command-line surface: subcommands, formats, exit codes, determinism."""

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary_trees, colored_ternary_trees
from fussforest.cli import (
    EXIT_CAP,
    EXIT_FAMILY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from fussforest import bijection, cli, trees, verify
from fussforest.bijection import encode
from fussforest.trees import form_dot, parse_binary_word, serialize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_number_binary(capsys):
    code, out, _ = run(capsys, "number", "--k", "2", "--n", "4")
    assert code == EXIT_OK and out == "14\n"


def test_number_ternary_trivial(capsys):
    code, out, _ = run(capsys, "number", "--k", "3", "--n", "0")
    assert code == EXIT_OK and out == "1\n"


def test_number_forest(capsys):
    code, out, _ = run(capsys, "number", "--k", "3", "--n", "2", "--m", "2")
    assert code == EXIT_OK and out == "7\n"


@pytest.mark.parametrize("k, n, digits, tail", [
    (2, 8192, 4926, "3222663750"),
    (5, 4096, 4445, "2056091885"),
])
def test_number_prints_counts_past_the_int_to_str_digit_limit(capsys, k, n, digits, tail):
    # Python refuses str() of an int over 4300 digits; number must not.
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "number", "--k", str(k), "--n", str(n))
    assert code == EXIT_OK
    assert len(out) == digits + 1 and out.endswith(tail + "\n") and out[:-1].isdigit()
    assert sys.get_int_max_str_digits() == limit


def test_number_rejects_bad_arity(capsys):
    code, _, err = run(capsys, "number", "--k", "1", "--n", "4")
    assert code == EXIT_USAGE and "k >= 2" in err


def test_usage_error_on_unknown_flag(capsys):
    assert run(capsys, "number", "--bogus", "1")[0] == EXIT_USAGE
    assert run(capsys, "number", "--k", "2")[0] == EXIT_USAGE
    assert run(capsys, "enumerate", "--family", "binary", "--n", "2", "--p", "1")[0] == EXIT_USAGE
    assert run(capsys, "enumerate", "--family", "binary", "--n", "3", "--max-n", "-1")[0] == EXIT_USAGE


def test_enumerate_binary_golden_order(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "binary", "--n", "2")
    assert code == EXIT_OK
    assert out == "(L (L L))\n((L L) L)\n"
    assert "2 tree(s)" in err


def test_enumerate_single_leaf(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "binary", "--n", "0")
    assert code == EXIT_OK and out == "L\n"


def test_enumerate_colored_with_p(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "colored-ternary", "--n", "2", "--p", "1")
    assert code == EXIT_OK and out == "(0: 0 0 0)\n"


def test_enumerate_json_format(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "binary", "--n", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == ["(L (L L))", "((L L) L)"]


@pytest.mark.parametrize("family", [trees.BINARY, trees.COLORED_TERNARY])
def test_enumerate_json_is_json_dumps_of_the_text_lines(capsys, family):
    # The array is written item by item, with the bytes of json.dumps, since
    # no tree text holds a character that JSON escapes.
    for n in range(9):
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", str(n))
        texts = out.splitlines()
        assert code == EXIT_OK and all(json.dumps(text) == f'"{text}"' for text in texts)
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", str(n),
                           "--format", "json")
        assert code == EXIT_OK and out == json.dumps(texts) + "\n"


def test_empty_json_output_is_an_empty_array(capsys, monkeypatch):
    code, out, err = run(capsys, "enumerate", "--family", "colored-ternary", "--n", "3",
                         "--p", "5", "--format", "json")
    assert (code, out, err) == (EXIT_OK, "[]\n", "enumerated 0 tree(s)\n")
    monkeypatch.setattr("sys.stdin", _stdin(b""))
    code, out, err = run(capsys, "map", "--direction", "t2b", "--format", "json")
    assert (code, out, err) == (EXIT_OK, "[]\n", "mapped 0 tree(s)\n")


def test_enumerate_dot_format(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "colored-ternary", "--n", "1")
    assert code == EXIT_OK and out == "1\n"
    code, out, _ = run(capsys, "enumerate", "--family", "colored-ternary", "--n", "1",
                       "--format", "dot")
    assert code == EXIT_OK
    assert out == 'digraph tree0 {\n  v0 [shape=point, xlabel="1"];\n}\n'


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "binary", "--n", "13")
    assert code == EXIT_CAP and "cap" in err


def test_enumerate_cap_override(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "colored-ternary", "--n", "15",
                       "--p", "0", "--max-n", "15")
    assert code == EXIT_OK and out == "15\n"


@pytest.mark.parametrize("exhaustion, line", [
    (RecursionError("out of it"), "RecursionError: out of it"),
    (MemoryError("out of it"), "MemoryError: out of it"),
    (MemoryError(), "MemoryError"),
], ids=["recursion", "memory", "memory-no-text"])
def test_resource_exhaustion_has_its_own_exit_code(capsys, monkeypatch, exhaustion, line):
    # Running out of stack or memory is not exit 1, which means a
    # verification failed, and prints no traceback.  A failed allocation
    # raises MemoryError() with no text: its line ends at the type's name.
    def exhausted(*args, **kwargs):
        raise exhaustion

    monkeypatch.setattr(trees, "enumerate_binary_words", exhausted)
    code, out, err = run(capsys, "enumerate", "--family", "binary", "--n", "3")
    assert code == EXIT_RESOURCE and out == ""
    assert err == f"error: out of resources: {line}\n"


class _LateCap(trees.SizeCapError):
    pass


class _LateParse(trees.ParseError):
    pass


class _LateMismatch(cli.FamilyMismatchError):
    pass


@pytest.mark.parametrize("error, exit_code", [
    (trees.SizeCapError("past the cap"), EXIT_CAP),
    (_LateCap("past the cap"), EXIT_CAP),
    (trees.ParseError(7, "'('", "'x'"), EXIT_PARSE),
    (_LateParse(7, "'('", "'x'"), EXIT_PARSE),
    (cli.FamilyMismatchError("the other family"), EXIT_FAMILY),
    (_LateMismatch("the other family"), EXIT_FAMILY),
    (ValueError("out of range"), EXIT_USAGE),
    (OSError(errno.EACCES, "Permission denied"), EXIT_USAGE),
], ids=["cap", "cap-subclass", "parse", "parse-subclass", "family", "family-subclass",
        "value", "os"])
def test_each_error_line_exits_with_the_code_of_its_type(capsys, monkeypatch, error, exit_code):
    # One handler prints the error; a subclass takes its base's code, and any
    # other ValueError or OSError that is not a full disk is a usage error.
    def fails(*args, **kwargs):
        raise error

    monkeypatch.setattr(trees, "enumerate_binary_words", fails)
    code, out, err = run(capsys, "enumerate", "--family", "binary", "--n", "3")
    assert (code, out, err) == (exit_code, "", f"error: {error}\n")


@pytest.mark.parametrize("color", ["9" * 300, str(2**62)], ids=["300-digits", "2**62"])
def test_map_huge_color_is_out_of_resources(tmp_path, capsys, color):
    # The image of a leaf of color c holds "10" * c, which Python cannot size
    # from 2**62 on (OverflowError): exit 6, not a traceback and exit 1.
    src = tmp_path / "huge.txt"
    src.write_text(color + "\n", encoding="ascii")
    code, out, err = run(capsys, "map", "--direction", "t2b", "--in", str(src))
    assert code == EXIT_RESOURCE and out == ""
    assert err.startswith("error: out of resources: OverflowError: ") and err.count("\n") == 1


def test_map_huge_color_after_good_lines_leaves_no_output(tmp_path, capsys):
    # Every line is mapped before any is written, so the lines before a
    # color too large to map are not written either, to stdout or to --out.
    src = tmp_path / "in.txt"
    src.write_text("(1: 0 0 1)\n0\n" + "9" * 300 + "\n", encoding="ascii")
    dst = tmp_path / "out.txt"
    for out_flag in ([], ["--out", str(dst)]):
        code, out, err = run(capsys, "map", "--direction", "t2b", "--in", str(src), *out_flag)
        assert code == EXIT_RESOURCE and out == "" and err.count("\n") == 1
        assert not dst.exists()


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@_NO_DEV_FULL
@pytest.mark.parametrize("command", [
    ["enumerate", "--family", "binary", "--n", "3"],
    ["map", "--direction", "b2t", "--in", "{src}"],
], ids=["enumerate", "map"])
def test_full_disk_is_out_of_resources(tmp_path, capsys, command):
    # Writing to /dev/full fails with ENOSPC: a full disk, not a usage error.
    src = tmp_path / "b.txt"
    src.write_text("(L L)\n", encoding="ascii")
    argv = [arg.format(src=src) for arg in command] + ["--out", "/dev/full"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_RESOURCE and out == ""
    assert err.startswith("error: out of resources: OSError: [Errno 28]") and err.count("\n") == 1


@_NO_DEV_FULL
@pytest.mark.parametrize("command", [
    ["enumerate", "--family", "binary", "--n", "3"],
    ["verify", "--suite", "bijection", "--n-max", "2"],
    ["number", "--k", "2", "--n", "3"],
], ids=["enumerate", "verify", "number"])
def test_full_stdout_is_out_of_resources(command):
    # Block-buffered stdout, as a user gets it: output too short to fill the
    # buffer still has to fail in the command, not in the exit-time flush.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "fussforest", *command],
                              stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == EXIT_RESOURCE
    assert proc.stderr.startswith(b"error: out of resources: ") and proc.stderr.count(b"\n") == 1


def test_enumerate_to_file(tmp_path, capsys):
    target = tmp_path / "trees.txt"
    code, out, _ = run(capsys, "enumerate", "--family", "binary", "--n", "3",
                       "--out", str(target))
    assert code == EXIT_OK and out == ""
    lines = target.read_text(encoding="ascii").splitlines()
    assert len(lines) == 5


def test_map_ternary_to_binary(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("2\n", encoding="ascii")
    dst = tmp_path / "b.txt"
    code, _, err = run(capsys, "map", "--direction", "t2b",
                       "--in", str(src), "--out", str(dst))
    assert code == EXIT_OK and "mapped 1 tree(s)" in err
    assert dst.read_text(encoding="ascii") == "(L (L L))\n"


def test_map_binary_to_ternary_stdout(tmp_path, capsys):
    src = tmp_path / "b.txt"
    src.write_text("L\n", encoding="ascii")
    code, out, _ = run(capsys, "map", "--direction", "b2t", "--in", str(src))
    assert code == EXIT_OK and out == "0\n"


def test_map_round_trip_is_byte_exact(tmp_path, capsys):
    forest = tmp_path / "forest.txt"
    code, _, _ = run(capsys, "enumerate", "--family", "colored-ternary", "--n", "4",
                     "--out", str(forest))
    assert code == EXIT_OK
    mapped = tmp_path / "mapped.txt"
    restored = tmp_path / "restored.txt"
    assert run(capsys, "map", "--direction", "t2b",
               "--in", str(forest), "--out", str(mapped))[0] == EXIT_OK
    assert run(capsys, "map", "--direction", "b2t",
               "--in", str(mapped), "--out", str(restored))[0] == EXIT_OK
    original = forest.read_bytes()
    assert original == restored.read_bytes()
    assert len(mapped.read_text(encoding="ascii").splitlines()) == len(original.splitlines())


def test_map_parse_error_carries_offset(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("0\n(1: 0 0 oops)\n", encoding="ascii")
    code, out, err = run(capsys, "map", "--direction", "t2b", "--in", str(src))
    assert code == EXIT_PARSE
    assert "offset 10" in err  # the 'o' of oops, counted from the start of the input
    assert out == ""  # not even the line before the bad one


def test_map_dot_and_json_formats(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("2\n(0: 0 0 0)\n", encoding="ascii")
    code, out, _ = run(capsys, "map", "--direction", "t2b", "--in", str(src), "--format", "json")
    assert code == EXIT_OK and json.loads(out) == ["(L (L L))", "((L L) L)"]
    code, out, _ = run(capsys, "map", "--direction", "t2b", "--in", str(src), "--format", "dot")
    assert code == EXIT_OK
    images = ("(L (L L))", "((L L) L)")
    assert out == "".join(form_dot(parse_binary_word(text), i) for i, text in enumerate(images))


def _stdin(data: bytes):
    """A stand-in for sys.stdin whose .buffer yields `data`."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="ascii")


@pytest.mark.parametrize("data, offset, byte", [
    (b"(L L)\n(L \xc3\xa9)\n", 9, "0xc3"),  # UTF-8 e-acute
    (b"(L L)\n\xff\n", 6, "0xff"),
], ids=["utf8", "xff"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_map_non_ascii_byte_is_a_parse_error_from_file_and_stdin(
        tmp_path, capsys, monkeypatch, source, data, offset, byte):
    # Input is read as bytes, one character each, wherever it comes from,
    # and the error names the byte by its value.
    if source == "file":
        src = tmp_path / "in.txt"
        src.write_bytes(data)
        argv = ["--in", str(src)]
    else:
        monkeypatch.setattr("sys.stdin", _stdin(data))
        argv = []
    code, out, err = run(capsys, "map", "--direction", "b2t", *argv)
    assert code == EXIT_PARSE and out == ""
    assert err == f"error: offset {offset}: expected 'L' or '(', found byte {byte}\n"


@pytest.mark.parametrize("text, exit_code", [
    ("(L L)\n(L x)\n", EXIT_PARSE),
    ("(L L)\n(0: 0 0 0)\n", EXIT_FAMILY),
    ("(L L)\n(0: 0 0 0)", EXIT_FAMILY),
], ids=["parse", "family", "family-no-final-newline"])
def test_map_error_leaves_no_out_file(tmp_path, capsys, text, exit_code):
    src = tmp_path / "in.txt"
    src.write_text(text, encoding="ascii")
    dst = tmp_path / "out.txt"
    code, out, _ = run(capsys, "map", "--direction", "b2t", "--in", str(src), "--out", str(dst))
    assert (code, out) == (exit_code, "")
    assert not dst.exists()


def _map_line(tmp_path, capsys, direction, line):
    src = tmp_path / "in.txt"
    src.write_text(line + "\n", encoding="ascii")
    code, out, _ = run(capsys, "map", "--direction", direction, "--in", str(src))
    assert code == EXIT_OK
    return out[:-1]


def test_map_deep_lines_at_the_default_recursion_limit(tmp_path, capsys):
    # A color-10^5 leaf is the right comb with 10^5 internal vertices.
    n = 100_000
    comb = "(L " * n + "L" + ")" * n
    assert _map_line(tmp_path, capsys, "t2b", str(n)) == comb
    assert _map_line(tmp_path, capsys, "b2t", comb) == str(n)
    # A weight-10^5 ternary spine: each internal vertex is the last child of the one above.
    spine = "(0: 0 0 " * (n // 2) + "0" + ")" * (n // 2)
    image = "((L L) " * (n // 2) + "L" + ")" * (n // 2)
    assert _map_line(tmp_path, capsys, "t2b", spine) == image
    assert _map_line(tmp_path, capsys, "b2t", image) == spine


def test_map_dot_has_no_depth_limit(tmp_path, capsys, monkeypatch):
    # `echo 1000 | fussforest map --direction t2b --format dot`: a right comb 1000 deep.
    monkeypatch.setattr("sys.stdin", _stdin(b"1000\n"))
    code, out, _ = run(capsys, "map", "--direction", "t2b", "--format", "dot")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert sum("[shape=" in line for line in lines) == 2001
    assert sum(" -> " in line for line in lines) == 2000
    # 10^5 deep: the DOT route has every vertex of the sexp route's tree.
    src = tmp_path / "in.txt"
    src.write_text("100000\n", encoding="ascii")
    code, dot, _ = run(capsys, "map", "--direction", "t2b", "--in", str(src), "--format", "dot")
    assert code == EXIT_OK
    sexp = _map_line(tmp_path, capsys, "t2b", "100000")
    assert dot.count("[shape=") == sexp.count("(") + sexp.count("L") == 200_001


@pytest.mark.parametrize("n, cap", [(12, None), (10000, 10000)], ids=["default-cap", "deep"])
def test_closed_pipe_is_a_quiet_exit(n, cap):
    # `enumerate ... | head -1`: the reader leaves after one line, which at
    # n = 10000 is a tree 10000 levels deep.
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["enumerate", "--family", "binary", "--n", str(n)]
    if cap is not None:
        argv += ["--max-n", str(cap)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "fussforest", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    with proc.stderr:
        err = proc.stderr.read()
    assert code == EXIT_OK
    assert first == ("(L " * n + "L" + ")" * n + "\n").encode("ascii")  # the right comb
    assert err == b""


def test_map_family_mismatch(tmp_path, capsys):
    src = tmp_path / "binary.txt"
    src.write_text("(L L)\n", encoding="ascii")
    code, _, err = run(capsys, "map", "--direction", "t2b", "--in", str(src))
    assert code == EXIT_FAMILY and "opposite family" in err


def test_map_garbage_is_a_parse_error_not_a_mismatch(tmp_path, capsys):
    src = tmp_path / "junk.txt"
    # An empty line is a tree of neither family.
    for direction, text in (("t2b", "hello\n"), ("b2t", "(L L)\n\n(L L)\n")):
        src.write_text(text, encoding="ascii")
        code, _, _ = run(capsys, "map", "--direction", direction, "--in", str(src))
        assert code == EXIT_PARSE, text


def test_map_output_closes_over_enumerate_output(tmp_path, capsys):
    # every enumerate output must be mappable without errors
    for family, direction in ((("binary"), "b2t"), (("colored-ternary"), "t2b")):
        src = tmp_path / f"{direction}.txt"
        code, _, _ = run(capsys, "enumerate", "--family", family, "--n", "3",
                         "--out", str(src))
        assert code == EXIT_OK
        assert run(capsys, "map", "--direction", direction, "--in", str(src),
                   "--out", str(tmp_path / f"{direction}.out"))[0] == EXIT_OK


# ---------------------------------------------------------------------------
# map runs its blocks of lines in forked workers, one per usable CPU
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")


def _weight_8_text(direction: str) -> str:
    """Every tree of weight 8 in the input family of `direction`, one a line."""
    if direction == "t2b":
        forms, text = trees.enumerate_ternary_preorders(8), trees.ternary_preorder_text
    else:
        forms, text = trees.enumerate_binary_words(8), trees.binary_word_text
    return "".join(text(form) + "\n" for form in forms)


def _map_at(capsys, monkeypatch, cpus, src, direction, *flags):
    """Run map with `cpus` usable CPUs; (exit code, stdout, stderr, forks made)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    code, out, err = run(capsys, "map", "--direction", direction, "--in", str(src), *flags)
    monkeypatch.setattr(os, "fork", real_fork)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
    return code, out, err, len(forks)


@needs_fork
@pytest.mark.parametrize("fmt", ["sexp", "dot", "json"])
@pytest.mark.parametrize("direction", ["t2b", "b2t"])
def test_map_output_is_the_same_for_one_and_two_cpus(tmp_path, capsys, monkeypatch,
                                                       direction, fmt):
    text = _weight_8_text(direction)
    assert len(text) > 2 * cli._MIN_BLOCK_BYTES  # two blocks at two CPUs
    src = tmp_path / "in.txt"
    src.write_text(text, encoding="ascii")
    outputs = []
    for cpus in (1, 2):
        dst = tmp_path / f"out_{cpus}.txt"
        code, out, err, forks = _map_at(capsys, monkeypatch, cpus, src, direction, "--format", fmt)
        assert (code, forks) == (EXIT_OK, cpus - 1)
        assert _map_at(capsys, monkeypatch, cpus, src, direction, "--format", fmt,
                       "--out", str(dst)) == (EXIT_OK, "", err, cpus - 1)
        assert dst.read_text(encoding="ascii") == out
        outputs.append((out, err))
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == f"mapped {text.count(chr(10))} tree(s)\n"


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("direction", ["t2b", "b2t"])
def test_map_json_is_json_dumps_of_the_images(tmp_path, capsys, monkeypatch, cpus, direction):
    src = tmp_path / "in.txt"
    src.write_text(_weight_8_text(direction), encoding="ascii")
    code, images, _, _ = _map_at(capsys, monkeypatch, cpus, src, direction)
    assert code == EXIT_OK
    code, out, _, forks = _map_at(capsys, monkeypatch, cpus, src, direction, "--format", "json")
    assert (code, forks) == (EXIT_OK, cpus - 1)
    assert out == json.dumps(images.splitlines()) + "\n"


# Lines that fail in the last block, after every tree of weight 8, and the
# offset in that line of a parse error.  A bad line is reported at its offset
# in the whole input, and a line that fails to parse wins over a color too
# large to map in an earlier block, as it does in one pass over the lines.
_LAST_BLOCK_FAILURES = [
    ("b2t", "", "(L x)\n", 3, EXIT_PARSE, "error: offset {at}: expected 'L' or '(', found 'x'\n"),
    ("t2b", "", "(1: 0 0)\n", 7, EXIT_PARSE,
     "error: offset {at}: expected a color digit or '(', found ')'\n"),
    ("b2t", "", "(0: 0 0 0)\n", 0, EXIT_FAMILY,
     "error: line {line} parses as the opposite family; check --direction\n"),
    ("b2t", "", "(0: 0 0 0)", 0, EXIT_FAMILY,
     "error: line {line} parses as the opposite family; check --direction\n"),
    ("t2b", "", "9" * 300 + "\n", 0, EXIT_RESOURCE, "error: out of resources: OverflowError: "),
    ("t2b", "9" * 300 + "\n", "(1: 0 0)\n", 7, EXIT_PARSE,
     "error: offset {at}: expected a color digit or '(', found ')'\n"),
]


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("direction, head, tail, offset, exit_code, message", _LAST_BLOCK_FAILURES,
                         ids=["parse", "parse-ternary", "family", "family-no-final-newline",
                              "huge-color", "parse-first"])
def test_map_failure_in_the_last_block(tmp_path, capsys, monkeypatch, cpus,
                                       direction, head, tail, offset, exit_code, message):
    body = head + _weight_8_text(direction)
    src = tmp_path / "in.txt"
    src.write_text(body + tail, encoding="ascii")
    dst = tmp_path / "out.txt"
    message = message.format(at=len(body) + offset, line=body.count("\n") + 1)
    for flags in ([], ["--out", str(dst)]):
        code, out, err, forks = _map_at(capsys, monkeypatch, cpus, src, direction, *flags)
        assert (code, out, forks) == (exit_code, "", cpus - 1)
        assert err.startswith(message) and err.count("\n") == 1
        assert not dst.exists()


@needs_fork
def test_killed_map_worker_exits_6_with_one_line(tmp_path, capsys, monkeypatch):
    caller = os.getpid()

    def encode_or_die(form):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return encode(form)

    monkeypatch.setattr(bijection, "encode", encode_or_die)
    src = tmp_path / "in.txt"
    src.write_text(_weight_8_text("t2b"), encoding="ascii")
    dst = tmp_path / "out.txt"
    code, out, err, forks = _map_at(capsys, monkeypatch, 2, src, "t2b", "--out", str(dst))
    assert (code, out, forks) == (EXIT_RESOURCE, "", 1)
    assert re.fullmatch(r"error: out of resources: WorkerError: map worker \d+ was killed by "
                        rf"signal {int(signal.SIGKILL)} before it sent its results\n", err)
    assert not dst.exists()


@needs_fork
def test_a_line_that_does_not_parse_wins_over_a_killed_map_worker(tmp_path, capsys, monkeypatch):
    # Three blocks at three CPUs: the caller maps the first, the worker that
    # maps the second is killed, and the last block's bad line is met in parsing.
    caller = os.getpid()

    def encode_or_die(form):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return encode(form)

    monkeypatch.setattr(bijection, "encode", encode_or_die)
    body = _weight_8_text("t2b") * 2
    src = tmp_path / "in.txt"
    src.write_text(body + "(1: 0 0)\n", encoding="ascii")
    code, out, err, forks = _map_at(capsys, monkeypatch, 3, src, "t2b")
    assert (code, out, forks) == (EXIT_PARSE, "", 2)
    assert err == f"error: offset {len(body) + 7}: expected a color digit or '(', found ')'\n"


def test_verify_small_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "identities", "--n-max", "10",
                         "--m-max", "2")
    assert code == EXIT_OK
    assert "suite identities: PASS" in out
    assert "elapsed" in err


def test_verify_bijection_suite_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bijection", "--n-max", "4", "--m-max", "2")
    assert code == EXIT_OK
    assert "tree_bijection" in out and "forest_bijection" in out


@pytest.mark.parametrize("suite", ["identities", "bijection", "series", "counts"])
def test_verify_json_schema(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n-max", "4", "--m-max", "2",
                       "--order", "8", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["suite"] == suite
    assert payload["passed"] is True
    assert payload["total_failures"] == 0
    assert payload["total_cases"] == sum(c["cases"] for c in payload["checks"])
    for check in payload["checks"]:
        assert {"name", "bounds", "cases", "failures"} <= set(check)


def test_verify_stdout_is_deterministic(capsys):
    first = run(capsys, "verify", "--suite", "series", "--order", "12", "--m-max", "2")
    second = run(capsys, "verify", "--suite", "series", "--order", "12", "--m-max", "2")
    assert first[0] == second[0] == EXIT_OK
    assert first[1] == second[1]


@pytest.mark.parametrize("suite, bounds, cases", [
    ("series", ["--order", "128", "--m-max", "6"], 1363),
    ("identities", ["--n-max", "300", "--m-max", "8"], 28520),
])
def test_verify_at_high_order(capsys, suite, bounds, cases):
    # The benchmark's high_order calls, with their case counts.
    code, out, _ = run(capsys, "verify", "--suite", suite, *bounds)
    assert code == EXIT_OK
    assert out.splitlines()[-1] == f"suite {suite}: PASS (cases={cases}, failures=0)"


def test_verify_rejects_unknown_suite(capsys):
    assert run(capsys, "verify", "--suite", "everything")[0] == EXIT_USAGE


@pytest.mark.parametrize("suite, bounds, message", [
    ("identities", ["--n-max", "-1"], "suite identities needs n_max >= 0, got -1"),
    ("all", ["--n-max", "-3", "--m-max", "-2"], "suite identities needs n_max >= 0, got -3"),
    ("bijection", ["--m-max", "0"], "suite bijection needs m_max >= 1, got 0"),
    ("series", ["--order", "-1"], "suite series needs order >= 0, got -1"),
    ("series", ["--m-max", "0"], "suite series needs m_max >= 1, got 0"),
    ("counts", ["--n-max", "-1"], "suite counts needs n_max >= 0, got -1"),
    ("all", ["--order", "-1"], "suite series needs order >= 0, got -1"),
])
def test_verify_bounds_that_check_nothing_are_usage_errors(capsys, suite, bounds, message):
    code, out, err = run(capsys, "verify", "--suite", suite, *bounds)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("suite, cases", [("series", 35), ("all", 11665)])
def test_verify_runs_at_order_zero(capsys, suite, cases):
    # _LEAST_BOUNDS accepts order 0, and at order 0 each series is its constant term.
    code, out, _ = run(capsys, "verify", "--suite", suite, "--order", "0")
    assert code == EXIT_OK
    assert out.endswith(f"suite {suite}: PASS (cases={cases}, failures=0)\n")


def test_verify_ignores_bounds_its_suite_does_not_read(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--n-max", "2",
                       "--m-max", "1", "--order", "-1")
    assert code == EXIT_OK
    assert out.splitlines()[-1].startswith("suite identities: PASS")


def test_suite_choices_are_the_verify_suites():
    assert cli.SUITES == verify.SUITES


def test_family_choices_are_the_tree_families():
    assert (cli.BINARY, cli.COLORED_TERNARY) == (trees.BINARY, trees.COLORED_TERNARY)


@given(colored_ternary_trees)
def test_cli_phi_forwards_to_the_bijection(tree):
    image = cli.phi(tree)
    assert image == bijection.phi(tree)
    assert cli.phi_inverse(image) == bijection.phi_inverse(image) == tree


# sha256 of each command's --help text on an 80-column terminal, as argparse of
# Python 3.10-3.12 formats it: the parser's text does not depend on which
# modules start-up loads.
HELP_DIGESTS = {
    "": "67347b72e141dfc285c5d203f58d4e558ce8c6edf9fd1a6a6a5ca53bbefe56ca",
    "number": "aff285ef58ca79b82fb7e2387817e4c45f694726ded1df0512148ccae5c60d03",
    "enumerate": "c0d80d0f319c69bc6f62f012b56b6f62a8a81729fe42a4a2bf90d86a3278c4e5",
    "map": "ae7857e2e856092e82f4aabd1a26ee015fff54559c7ed369a888e327a47d354e",
    "verify": "a103969ca7254d3dd2fc992b3616058df7c1fbaeff51a2872a6d68e98ba45df5",
}


@pytest.mark.parametrize("command", HELP_DIGESTS, ids=lambda command: command or "top")
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *([command] if command else []), "--help")
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == HELP_DIGESTS[command], out


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force one check to disagree so the failure path is observable end to end
    from fussforest import verify as verify_mod

    real = verify_mod.run_suite

    def broken(suite, **kwargs):
        report = real(suite, **kwargs)
        report.checks[0].case({"n": -1}, "expected-value", "actual-value")
        return report

    monkeypatch.setattr("fussforest.verify.run_suite", broken)
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--n-max", "2", "--m-max", "1")
    assert code == EXIT_VERIFY_FAILED
    assert "first failure" in out and "FAIL" in out


# ---------------------------------------------------------------------------
# Exit-code fuzzer: argv from the four subcommands, each flag valid, invalid,
# missing or extreme, and input bytes from trees, broken trees and odd bytes.
# Sizes stay small: enumerate runs under a cap of 8, number has n <= 40, and
# verify has bounds <= 3 and order <= 5 (a bound may be missing only where
# the suite does not read it).
# ---------------------------------------------------------------------------

def _often(usual, *rare):
    """`usual` five times in six, else one of the `rare` strategies."""
    return st.sampled_from([usual] * 5 + [st.one_of(*rare)]).flatmap(lambda pick: pick)


_HUGE = "9" * 300
_NOT_ASCII = st.binary(min_size=1, max_size=4).map(lambda b: b + bytes([0x80 | b[0]]))
_ODD_LINE = st.sampled_from([_HUGE, f"({_HUGE}: 0 0 0)", f"(0: 0 {_HUGE} 0)", ""]).map(str.encode)


@st.composite
def _broken(draw, texts):
    text = draw(texts)
    at = draw(st.integers(0, len(text)))
    piece = draw(st.sampled_from(["", "(", ")", "L", "0", "7", ":", " ", "\t", "x", "-"]))
    return text[:at] + piece + text[at + draw(st.integers(0, 1)):]


@st.composite
def _input(draw):
    """Lines of one family's trees, now and then broken, of the other family,
    not ASCII, with a 300-digit color, or empty."""
    ours, theirs = draw(st.permutations([binary_trees, colored_ternary_trees]))
    texts = ours.map(serialize)
    line = _often(texts.map(str.encode), _broken(texts).map(str.encode),
                  theirs.map(serialize).map(str.encode), _NOT_ASCII, _ODD_LINE)
    return b"\n".join(draw(st.lists(line, max_size=5))) + draw(st.sampled_from([b"", b"\n"]))


def _value(valid, *odd):
    """A flag value as text: mostly a valid int, else an invalid or extreme one."""
    return _often(valid, st.sampled_from(odd)).map(str)


_NOT_AN_INT = ("x", "", "1.5", "1" + "0" * 5000)
_OUT = _often(st.just("-"), st.sampled_from(["{tmp}/out.txt", "{tmp}/missing/out.txt", "{tmp}"]))
_FORMAT = _often(st.sampled_from(["sexp", "dot", "json"]), st.just("xml"))
_FLAGS = {
    "number": {"--k": _value(st.integers(2, 6), 1, 0, -3, 10**30, *_NOT_AN_INT),
               "--n": _value(st.integers(0, 40), -1, *_NOT_AN_INT),
               "--m": _value(st.integers(1, 5), 0, -2, 10**6, *_NOT_AN_INT)},
    "enumerate": {"--family": _often(st.sampled_from([trees.BINARY, trees.COLORED_TERNARY]),
                                     st.just("unary")),
                  "--n": _value(st.integers(0, 10), -1, 10**9, *_NOT_AN_INT),
                  # Binary trees take no --p, so it is mostly left out.
                  "--p": _often(st.none(), _value(st.integers(0, 5), -1, 10**9, *_NOT_AN_INT)),
                  "--format": _FORMAT, "--out": _OUT,
                  "--max-n": _value(st.integers(0, 8), -1, -(10**9), *_NOT_AN_INT)},
    "map": {"--direction": _often(st.sampled_from(["t2b", "b2t"]), st.just("sideways")),
            "--in": _often(st.sampled_from(["-", "{tmp}/in.txt"]),
                           st.sampled_from(["{tmp}/absent.txt", "{tmp}"])),
            "--out": _OUT, "--format": _FORMAT},
}
_BOUNDS = {"--n-max": ("n_max", 3), "--m-max": ("m_max", 3), "--order": ("order", 5)}
_LEAST = verify._LEAST_BOUNDS


@st.composite
def _cli_case(draw):
    """argv, input bytes, and whether argv is a verify call whose bounds are all
    ints at or above their least values, which must not be a usage error."""
    command = draw(_often(st.sampled_from(["number", "enumerate", "map", "verify"]),
                          st.sampled_from(["frobnicate", None])))
    pairs = []
    for flag, values in _FLAGS.get(command, {}).items():
        value = draw(_often(values, st.none()))
        pairs += [] if value is None else [[flag, value]]
    bounds_met = False
    if command == "verify":
        suite = draw(_often(st.sampled_from(verify.SUITES), st.sampled_from(["everything", None])))
        pairs += [] if suite is None else [["--suite", suite]]
        reads = verify._SUITES[suite][1] if suite in verify._SUITES else _LEAST
        bounds_met = suite in verify.SUITES
        for flag, (key, top) in _BOUNDS.items():
            value = _value(st.integers(_LEAST[key], top), _LEAST[key] - 1, -(10**20), *_NOT_AN_INT)
            value = draw(value if key in reads else _often(st.none(), value))
            if value is not None:
                pairs.append([flag, value])
                bounds_met &= value not in _NOT_AN_INT and int(value) >= _LEAST[key]
        pairs += [["--json"]] if draw(st.booleans()) else []
    junk = draw(_often(st.just([]), st.sampled_from([["--bogus"], ["extra"]])))
    argv = [command] if command else []
    argv += [word for pair in draw(st.permutations(pairs)) for word in pair] + junk
    return argv, draw(_input()), bounds_met and not junk


def _run_captured(argv, data):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", _stdin(data)):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(case=_cli_case())
def test_exit_codes_hold_for_any_argv_and_input(case):
    # No traceback, and an exit code whose meaning holds: 1 only for a verify
    # that ran and failed, 3-6 with one error line and no output, no --out
    # file left by a map that failed, no usage error from a verify whose
    # bounds are all in range, and the same stdout from every run that passed.
    argv, data, bounds_met = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {trees.MAX_N_ENV: "8"}):
        argv = [word.replace("{tmp}", tmp) for word in argv]
        Path(tmp, "in.txt").write_bytes(data)
        code, out, err = _run_captured(argv, data)
        assert code in range(7)
        if code == EXIT_VERIFY_FAILED:
            assert argv[0] == "verify"
            if "--json" in argv:
                assert json.loads(out)["passed"] is False
            else:
                assert re.search(r"FAIL \(cases=\d+, failures=\d+\)\n\Z", out)
        if code >= EXIT_CAP:
            assert out == "" and re.fullmatch(r"error: [^\n]*\n", err), (code, out[:200], err)
        if argv[:1] == ["map"] and code != EXIT_OK:
            assert not Path(tmp, "out.txt").exists()
        if bounds_met:
            assert code != EXIT_USAGE, err
        if code == EXIT_OK:
            assert _run_captured(argv, data)[1] == out
