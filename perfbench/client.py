"""The workload process: one single-threaded closed-loop client of fussforest's CLI.

Usage: python3 client.py SPEC.json

The spec names the source tree, the operations of one pass (each an argv
for ``fussforest.cli.main`` and the path of its --out file, if any), the
seconds to run and whether to trace.  The client repeats the pass,
sending each operation only after the previous one returned, until the
time is up and at least ``min_passes`` passes ran, or until another pass
would overrun ``budget`` seconds.  In a traced run the passes alternate
untraced and traced, so the two can be compared.

Only ``cli.main`` is timed.  Clearing an --out file and collecting garbage
beforehand, and hashing outputs afterwards, happen outside the timed
region.  The correctness checks happen in the parent, so this process
holds the program's memory and little else.  One JSON object on stdout
carries the results.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter


def _sha256_file(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_op(cli, op: dict, tracer) -> dict:
    if op["out"] is not None and os.path.exists(op["out"]):
        os.remove(op["out"])
    # Each CLI invocation in real use is a fresh process, so garbage left by
    # the previous operation is collected before the clock starts.
    gc.collect()
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            rc = cli.main(op["argv"])
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            error = f"{type(exc).__name__}: {exc}"[:300]
        seconds = perf_counter() - start
    text = stdout.getvalue()
    result = {
        "rc": rc,
        "error": error,
        "seconds": seconds,
        "stdout_last": text.rstrip("\n").rsplit("\n", 1)[-1],
        "stderr_last": stderr.getvalue().rstrip("\n").rsplit("\n", 1)[-1][:300],
    }
    out_bytes = len(text)
    if op["out"] is not None:
        result["out_sha256"] = _sha256_file(op["out"])
        if result["out_sha256"] is not None:
            out_bytes += os.path.getsize(op["out"])
    if tracer is not None:
        tracer.add("cli", out_bytes)
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as stream:
        spec = json.load(stream)
    sys.path.insert(0, spec["src"])
    from fussforest import cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()

    passes = []
    started = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            results = [run_op(cli, op, tracer if traced else None) for op in spec["ops"]]
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "ops": results})
        if tracer is not None and len(passes) < 2:
            continue  # a traced run needs one pass of each kind
        elapsed = perf_counter() - started
        if elapsed >= spec["seconds"] and len(passes) >= spec["min_passes"]:
            break
        if elapsed * (len(passes) + 1) / len(passes) > spec["budget"]:
            break  # another pass would overrun the run's deadline

    report = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = dict(tracer.layers)
        report["edges"] = dict(tracer.edges)
        report["gc"] = [tracer.gc_collections, tracer.gc_seconds]
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
