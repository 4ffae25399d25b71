"""The scripts under scripts/, each run as its own process from the checkout."""

import ast
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
LAYERS = ["exact", "generators", "encode", "decode", "parse.binary", "parse.ternary",
          "render.binary", "render.ternary", "series"]


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)


def test_identity_table_prints_matching_sides():
    proc = _run("identity_table.py", "--n-max", "12", "--m", "2")
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header.split("|")[0].strip() == "n" and set(rule) == {"-"}
    assert [row.split("|")[0].strip() for row in rows] == [str(n) for n in range(13)]
    assert "MISMATCH" not in proc.stdout


def test_identity_table_refuses_a_bound_below_its_least():
    proc = _run("identity_table.py", "--m", "0")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    # The message itself is pinned once, as a row of BELOW_LEAST.
    assert len(re.findall(r"^identity_table\.py: error: [^\n]*$", proc.stderr, re.M)) == 1


def test_bench_layers_times_every_layer_and_checks_its_output(tmp_path):
    proc = _run("bench_layers.py", "probe", "--repeats", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "BENCH_layers_probe.json").read_text(encoding="ascii"))
    assert (report["label"], report["repeats"]) == ("probe", 1)
    assert report["python"] == platform.python_version()
    # The files checked in at the root were made by the same layers, each output matching.
    for made in [report, *(json.loads(path.read_text(encoding="ascii"))
                           for path in ROOT.glob("BENCH_layers_*.json"))]:
        assert list(made["layers"]) == LAYERS
        for name, layer in made["layers"].items():
            assert 0 < layer["min_s"] <= layer["median_s"] and layer["matches"], name


def test_bench_layers_refuses_a_src_without_the_package(tmp_path):
    # Else the import falls through to PYTHONPATH, which times another package
    # under this --src's commit.
    proc = _run("bench_layers.py", "probe", "--src", str(tmp_path), "--repeats", "1",
                "--out", str(tmp_path))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert list(tmp_path.glob("BENCH_layers_*.json")) == []


def test_scripts_import_only_the_standard_library_and_fussforest():
    # A script runs from any checkout, as bench_layers.py does with --src: it
    # may not import the benchmark, the tests or a package not installed.
    allowed = sys.stdlib_module_names | {"fussforest"}
    for script in SCRIPTS.glob("*.py"):
        nodes = list(ast.walk(ast.parse(script.read_text(encoding="utf-8"))))
        modules = [alias.name for node in nodes if isinstance(node, ast.Import)
                   for alias in node.names]
        modules += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
        outside = [module for module in modules if module.split(".")[0] not in allowed]
        assert outside == [], script.name
