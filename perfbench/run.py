"""bessel-tr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and drives `bessel_tr.cli.main` from the
checkout's src/, one fresh child interpreter at a time. Passes of the
workload repeat until --seconds is used up; each metric is the median over
passes. Every invocation's exit code and output bytes are checked against
perfbench/reference.json. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
same figures for people, plus run metadata.

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus their extra wall time as trace.overhead_s, and writes the spans of
the run to .perfbench_out/. --workload all runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads
from tracer import layer_metrics, merge_raw

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_PER_PASS = 2
CHILD_TIMEOUT_S = 150
SETUP_CODE = (
    "import time\n"
    "import bessel_tr.cli as cli\n"
    "cli.build_parser()\n"
    "print(time.monotonic())\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    # per-invocation latency; only small-many has enough invocations per pass
    "call_ms_p50": "ms",
    "call_ms_p95": "ms",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BESSEL_TR_THREADS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env: dict) -> float:
    """Seconds from launching an interpreter until bessel_tr.cli is imported
    and build_parser() has returned."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def run_child(invocations: list[dict], trace: bool, env: dict) -> dict:
    job = {"invocations": invocations, "trace": trace}
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=json.dumps(job), env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"child timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"crash": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"crash": f"child printed no report: {proc.stdout[-200:]!r}"}


def check(ref: dict, invocation: dict, result: dict) -> str | None:
    """Why this invocation failed, or None if it matched the reference."""
    try:
        sha, code = reference.expected(ref, invocation["argv"])
    except KeyError:
        return "no reference entry"
    if result["raised"]:
        return "raised: " + result["error"].strip().splitlines()[-1]
    if result["exit"] != code:
        return f"exit {result['exit']}, expected {code}"
    if result["stray_stdout"]:
        return "wrote to stdout despite --out"
    if result["sha256"] != sha:
        return "output differs from the reference"
    return None


class Run:
    """The passes of one workload run and what they measured."""

    def __init__(self, name: str, seed: int, ref: dict, env: dict):
        self.name = name
        self.ref = ref
        self.env = env
        self.children = workloads.build(name, seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setup: list[float] = []
        self.spans: list[list] = []

    def one_pass(self, trace: bool) -> None:
        walls, cpus, rss, raws = [], [], [], []
        complete = True
        for c, child in enumerate(self.children):
            invocations = [
                {"argv": inv["argv"], "out": str(TMP / f"out-{c}-{i}.txt") if inv["out"] else None}
                for i, inv in enumerate(child)
            ]
            report = run_child(invocations, trace, self.env)
            results = report.get("results", [])
            for i, inv in enumerate(child):
                self.attempted += 1
                why = report.get("crash") or check(self.ref, inv, results[i])
                if why:
                    self.failures.append(f"{' '.join(inv['argv'])}: {why}")
            if "crash" in report:
                complete = False
                continue
            walls += [r["wall_s"] for r in results]
            cpus += [r["cpu_s"] for r in results]
            rss.append(report["peak_rss_kb"] / 1024)
            if trace:
                raws.append(report["raw"])
                p = len(self.traced)
                self.spans += [[p, c, *span] for span in report["spans"]]
        if not complete:
            return  # a pass missing a child would read as faster
        summary = {"wall_s": sum(walls), "cpu_s": sum(cpus), "peak_rss_mb": max(rss)}
        if self.name == "small-many":
            cuts = statistics.quantiles([w * 1000 for w in walls], n=100, method="inclusive")
            summary["call_ms_p50"], summary["call_ms_p95"] = cuts[49], cuts[94]
        if trace:
            summary["layers"] = layer_metrics(merge_raw(raws))
            self.traced.append(summary)
        else:
            self.untraced.append(summary)

    def measure(self, seconds: float, trace: bool) -> None:
        """Passes until the next one would end after `seconds`; with tracing,
        untraced and traced passes alternate and at least one of each runs.
        Without tracing, set-up is sampled before each pass, after one
        unmeasured launch that writes the bytecode caches, as any earlier
        use would."""
        setup_seconds(self.env)
        deadline = time.monotonic() + seconds
        durations = []
        while True:
            start = time.monotonic()
            if not trace:
                self.setup += [setup_seconds(self.env) for _ in range(SETUP_PER_PASS)]
            self.one_pass(trace and len(durations) % 2 == 1)
            durations.append(time.monotonic() - start)
            if len(durations) >= (2 if trace else 1) and (
                time.monotonic() + statistics.median(durations) > deadline
            ):
                return

    def end_to_end(self) -> dict[str, float]:
        if not self.untraced:
            return {}
        metrics = {key: statistics.median(p[key] for p in self.untraced) for key in self.untraced[0]}
        metrics["setup_s"] = statistics.median(self.setup)
        return metrics

    def per_layer(self) -> dict[str, float]:
        if not self.traced:
            return {}
        metrics = {
            key: statistics.median(p["layers"][key] for p in self.traced)
            for key in self.traced[0]["layers"]
        }
        if self.untraced:
            metrics["trace.overhead_s"] = statistics.median(
                p["wall_s"] for p in self.traced
            ) - statistics.median(p["wall_s"] for p in self.untraced)
        return metrics


def metadata() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, ref: dict, env: dict):
    run = Run(name, seed, ref, env)
    run.measure(seconds, trace)
    if trace:
        values = run.per_layer()
        units = {k: layer_unit(k) for k in values}
    else:
        values = run.end_to_end()
        units = END_TO_END_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return run, metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_layer_shares(metrics: dict) -> None:
    selfs = {k.split(".")[0]: m["value"] for k, m in metrics.items() if k.endswith(".self_s")}
    total = sum(selfs.values())
    if total > 0:
        shares = ", ".join(f"{k} {v / total:.1%}" for k, v in selfs.items())
        print(f"# self-time shares of {total:.4f} s traced: {shares}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bessel_tr" / "cli.py").is_file():
        print(f"no bessel_tr package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    ref = reference.load()
    env = child_env()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print("# meta " + json.dumps(metadata()))

    attempted, failures, combined = 0, [], {}
    TMP.mkdir(exist_ok=True)
    try:
        for name in names:
            run, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace), ref, env)
            attempted += run.attempted
            failures += run.failures
            for fail in run.failures[:5]:
                print(f"FAILED {name}: {fail}", file=sys.stderr)
            print(f"# {name} seed {args.seed}: {len(run.untraced)} untraced and {len(run.traced)} traced passes,"
                  f" failed_frac {len(run.failures) / max(run.attempted, 1)} ratio"
                  f" ({len(run.failures)} of {run.attempted} invocations)")
            for key, m in metrics.items():
                print(f"{name} {key} {m['value']:.6g} {m['unit']}")
            if args.trace:
                print_layer_shares(metrics)
                OUT.mkdir(exist_ok=True)
                with open(OUT / f"spans-{name}-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
                    fh.writelines(json.dumps(s) + "\n" for s in run.spans)
            if len(names) == 1:
                combined = metrics
            else:
                combined.update({f"{name}/{k}": m for k, m in metrics.items()})
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
