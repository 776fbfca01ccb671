"""One benchmark child: runs invocations of `bessel_tr.cli.main` in this
fresh interpreter and reports what each did.

Reads a job from stdin,

    {"invocations": [{"argv": [...], "out": FILE or null}, ...], "trace": bool}

and writes one JSON object to stdout: per invocation the exit code, whether
it raised, the SHA-256 of its output (the --out file when given, which is
then deleted) and the wall and CPU seconds spent inside `main`; the peak RSS
of this process; and, when traced, the tracer's counters and spans. The
package must be importable (the parent sets PYTHONPATH to the checkout's
src/).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_one(main, argv: list[str], out_path: str | None) -> dict:
    if out_path:
        argv = argv + ["--out", out_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        cpu0 = _cpu_seconds()
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            code, error = 1, traceback.format_exc()
        wall = perf_counter() - start
        cpu = _cpu_seconds() - cpu0
    data = stdout.getvalue().encode()
    stray = False
    if out_path:
        stray = bool(data)
        try:
            with open(out_path, "rb") as fh:
                data = fh.read()
            os.remove(out_path)
        except FileNotFoundError:
            data = b""
    return {
        "exit": code,
        "error": error or stderr.getvalue()[-2000:],
        "raised": error is not None,
        "stray_stdout": stray,
        "sha256": hashlib.sha256(data).hexdigest(),
        "wall_s": wall,
        "cpu_s": cpu,
    }


def main() -> None:
    job = json.load(sys.stdin)
    from bessel_tr import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        results = [run_one(cli.main, inv["argv"], inv["out"]) for inv in job["invocations"]]
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "results": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["raw"] = tracer.raw()
        report["spans"] = tracer.spans
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
