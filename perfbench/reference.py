"""Reference outputs for every invocation the workloads can generate.

`reference.json` holds, for each non-verify-subset invocation (keyed by its
argv without --out), the SHA-256 of its output bytes and its exit code. For
the small-many verify calls, whose target subsets vary with the seed, it holds
each target's report line per format and per (order, chi, m-max), so the
expected bytes of any subset can be assembled line by line. The output of a
run with --out must equal the reference bytes of the same run to stdout.

Regenerate (only when the program's output is meant to change) with

    PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import workloads
from tracer import TARGETS

PATH = Path(__file__).resolve().parent / "reference.json"


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def expected(ref: dict, argv: list[str]) -> tuple[str, int]:
    """(SHA-256 of the expected output, expected exit code) for one argv,
    given without --out. Raises KeyError outside the recorded space."""
    if argv[0] == "verify" and "--targets" in argv:
        key = ",".join(_flag(argv, f) for f in ("--order", "--chi-max", "--m-max"))
        fmt = _flag(argv, "--format", "json")
        rounds = ref["verify_lines"][key]
        names = _flag(argv, "--targets").split(",")
        lines = [rounds[fmt][name] for name in names]
        if fmt == "csv":
            lines.insert(0, ref["verify_csv_header"])
        passed = all(json.loads(rounds["json"][name])["status"] == "pass" for name in names)
        return sha256(("\n".join(lines) + "\n").encode()), 0 if passed else 1
    entry = ref["outputs"][" ".join(argv)]
    return entry["sha256"], entry["exit"]


def _run(main, argv) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return buf.getvalue(), code


def build() -> dict:
    from bessel_tr.cli import main

    outputs = {}
    plain = [argv for child in workloads.DEEP.values() for invs in child for argv in invs]
    plain += [t + ["--format", f] for t in workloads.SMALL_TEMPLATES for f in workloads.FORMATS]
    for argv in plain:
        text, code = _run(main, argv)
        if code != 0:
            raise SystemExit(f"reference run failed: {' '.join(argv)} exited {code}")
        if argv[0] == "verify" and any(json.loads(r)["status"] != "pass" for r in text.splitlines()):
            raise SystemExit(f"a verify target does not pass: {' '.join(argv)}")
        outputs[" ".join(argv)] = {"sha256": sha256(text.encode()), "bytes": len(text.encode()), "exit": code}

    verify_lines = {}
    header = None
    for order, m_max in workloads.VERIFY_ROUNDS:
        for chi in workloads.VERIFY_CHIS:
            per_format = {}
            for fmt in workloads.FORMATS:
                text, code = _run(main, ["verify", "--order", str(order), "--chi-max", str(chi),
                                         "--m-max", str(m_max), "--format", fmt])
                lines = text.splitlines()
                if fmt == "csv":
                    header = lines.pop(0)
                if code != 0 or len(lines) != len(TARGETS):
                    raise SystemExit(f"reference verify failed at order {order}, chi {chi}")
                per_format[fmt] = dict(zip(TARGETS, lines))
            if any(json.loads(line)["status"] != "pass" for line in per_format["json"].values()):
                raise SystemExit(f"a verify target does not pass at order {order}, chi {chi}")
            verify_lines[f"{order},{chi},{m_max}"] = per_format
    return {"outputs": outputs, "verify_csv_header": header, "verify_lines": verify_lines}


if __name__ == "__main__":
    ref = build()
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PATH.name}: {len(ref['outputs'])} outputs, {len(ref['verify_lines'])} verify rounds")
