"""Tests of the benchmark itself (not of bessel_tr). Run from the repo root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the package's own test collection; the
smoke tests start the benchmark and take about a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bessel_tr import cli, correlators, pseries, spectral, verify, wave  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_is_deterministic_per_seed():
    assert workloads.small_many(7) == workloads.small_many(7)
    assert workloads.small_many(7) != workloads.small_many(8)
    assert workloads.build("tables", 1) == workloads.build("tables", 2)


def test_small_many_mix():
    calls = workloads.small_many(11)
    argvs = [c["argv"] for c in calls]
    assert 180 <= len(calls) <= 220
    assert {a[0] for a in argvs} == {"u-table", "omega", "free-energy", "partition", "wave", "verify"}
    assert {a[a.index("--format") + 1] for a in argvs} == set(workloads.FORMATS)
    assert abs(sum(c["out"] for c in calls) / len(calls) - 0.3) < 0.01
    for a in argvs:
        flags = dict(zip(a[1::2], a[2::2]))
        if a[0] == "verify":
            assert 5 <= int(flags["--order"]) <= 8
            assert int(flags["--chi-max"]) <= 6 and int(flags["--m-max"]) <= 3
        if a[0] == "omega" and flags["--curve"] == "airy":
            assert int(flags["--chi-max"]) <= 3


def test_reference_covers_every_generated_invocation():
    ref = reference.load()
    for seed in range(25):
        for call in workloads.small_many(seed):
            reference.expected(ref, call["argv"])
    for name in workloads.DEEP:
        for child in workloads.build(name, 0):
            for call in child:
                reference.expected(ref, call["argv"])


def _output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_tracer_keeps_outputs_and_restores_originals():
    argvs = [
        ["verify", "--order", "6", "--chi-max", "4", "--m-max", "2"],
        ["u-table", "--chi-max", "7", "--format", "csv"],
        ["omega", "--curve", "airy", "--chi-max", "3"],
        ["wave", "--order", "6", "--format", "text"],
    ]
    plain = [_output(a) for a in argvs]
    originals = (cli.main, verify.partition_function, correlators.CorrelatorTable.value,
                 spectral.CorrelationEngine.omega, pseries.PSeries.__mul__)
    t = tracer.Tracer()
    t.install()
    try:
        # every `from .x import f` binding is the same wrapper
        assert verify.partition_function is wave.partition_function is cli.partition_function
        assert verify.partition_function is not originals[1]
        traced = [_output(a) for a in argvs]
    finally:
        t.uninstall()
    assert traced == plain
    assert (cli.main, verify.partition_function, correlators.CorrelatorTable.value,
            spectral.CorrelationEngine.omega, pseries.PSeries.__mul__) == originals
    metrics = tracer.layer_metrics(t.raw())
    assert metrics["cli.invocations"] == len(argvs)
    # recursive value calls are counted, and only outermost ones are spans
    spans = sum(1 for s in t.spans if s[2] == "correlators.value")
    assert metrics["correlators.value_calls"] > spans > 0
    assert metrics["verify.kdv_s"] > 0
    by_id = {s[0]: s for s in t.spans}
    for span_id, parent, _, start, end in t.spans:
        if parent is not None:
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]


def test_tracer_skips_a_hooked_function_the_package_no_longer_has(monkeypatch):
    import bessel_tr

    monkeypatch.delattr(spectral, "compute_omega")
    monkeypatch.delattr(bessel_tr, "compute_omega")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert not hasattr(spectral, "compute_omega")


def test_failed_frac_counts_a_corrupted_reference_entry():
    ref = reference.load()
    env = run.child_env()
    good = run.Run("small-many", 5, ref, env)
    run.TMP.mkdir(exist_ok=True)
    bad_ref = copy.deepcopy(ref)
    bad_ref["outputs"]["wave --order 3 --format json"]["sha256"] = "0" * 64
    bad = run.Run("small-many", 5, bad_ref, env)
    try:
        good.one_pass(trace=False)
        bad.one_pass(trace=False)
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    assert good.attempted == bad.attempted > 0
    assert good.failures == []
    assert len(bad.failures) == 1 and bad.failures[0].startswith("wave --order 3 --format json")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    if workload == "small-many":
        declared.update({"call_ms_p50": "ms", "call_ms_p95": "ms"})
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced():
    proc = _bench("--workload", "small-many", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "small-many", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
