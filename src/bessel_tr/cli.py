"""Command-line interface.

Subcommands: u-table (closed-recursion coefficient dump), omega (residue
engine dump), free-energy, partition, wave (series exports), and verify
(the integrability suites). All outputs are deterministic: identical
configuration yields byte-identical output, values are always lowest-terms
"p/q" strings, and files are UTF-8. Usage errors, including negative
numeric flags, an `--order` above 127 and a verify target whose check window
would be empty, print a message on stderr and exit 2, and so does an `--out`
path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from .correlators import CorrelatorTable, support_keys
from .pseries import LIMIT, free_energy, mono_degree, mono_str, partition_function
from .spectral import (
    ConsistencyError,
    CorrelationEngine,
    airy_curve,
    bessel_curve,
    omega_records,
    stable_pairs,
)
from .verify import TARGETS, RunContext, empty_window, run_target
from .wave import coefficients, principal_specialize


# --curve name -> the function that returns the germ of its y
CURVES = {"bessel": bessel_curve, "airy": airy_curve}


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def order_int(text: str) -> int:
    if (value := non_negative_int(text)) > LIMIT:
        raise argparse.ArgumentTypeError(f"must be at most {LIMIT}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bessel-tr",
        description="Exact topological recursion on the Bessel curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, order=False, chi=False, **defaults):
        if order:
            p.add_argument("--order", type=order_int, default=6, help="truncation order N")
        if chi:
            p.add_argument("--chi-max", type=non_negative_int, default=6, help="bound on 2g-2+n")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to this file")
        p.set_defaults(run=run, **defaults)

    p = sub.add_parser("u-table", help="dump the coefficient table")
    p.add_argument("--g-max", type=non_negative_int, default=None, help="optional genus bound")
    add_common(p, _run_u_table, chi=True)

    p = sub.add_parser("omega", help="dump residue-engine tensors")
    p.add_argument("--curve", choices=tuple(CURVES), default="bessel")
    add_common(p, _run_omega, chi=True)

    p = sub.add_parser("free-energy", help="export the free energy series")
    add_common(p, _run_series, order=True, build=free_energy)

    p = sub.add_parser("partition", help="export the partition function series")
    add_common(p, _run_series, order=True, build=partition_function)

    p = sub.add_parser("wave", help="export the specialised wave function")
    add_common(p, _run_wave, order=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--targets",
        default=",".join(TARGETS),
        help="comma-separated subset of: " + ", ".join(TARGETS),
    )
    p.add_argument("--m-max", type=non_negative_int, default=4, help="Virasoro index bound")
    add_common(p, _run_verify, order=True, chi=True)

    return parser


def _dump(args, json_lines, csv_header, text_format, rows) -> None:
    """Write `json_lines` as JSON, or `rows` as csv under `csv_header` or
    through `text_format`, one newline-ended line each, to stdout or `--out`.
    No records, no output but the csv header. Only one iterable is read."""
    if args.format == "json":
        lines = [json.dumps(r) for r in json_lines]
    elif args.format == "csv":
        lines = [csv_header] + [",".join(map(str, row)) for row in rows]
    else:
        lines = [text_format.format(*row) for row in rows]
    text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mu_str(parts) -> str:
    return "[" + ",".join(str(p) for p in parts) + "]"


def _run_u_table(args) -> int:
    table = CorrelatorTable()
    keys = [k for k in support_keys(args.chi_max) if args.g_max is None or k[0] <= args.g_max]
    records = [{"g": g, "mu": list(mu), "value": str(table.value(g, mu))} for g, mu in keys]
    rows = ((r["g"], _mu_str(r["mu"]), r["value"]) for r in records)
    _dump(args, records, "g,mu,value", "g={0} mu={1} {2}", rows)
    return 0


def _run_omega(args) -> int:
    engine = CorrelationEngine(CURVES[args.curve]())
    pairs = stable_pairs(args.chi_max)
    records = [r for g, n in pairs for r in omega_records(g, n, engine.omega(g, n))]
    rows = ((r["g"], r["n"], _mu_str(r["mu"]), r["value"]) for r in records)
    _dump(args, records, "g,n,mu,value", "g={0} n={1} mu={2} {3}", rows)
    return 0


def _run_series(args) -> int:
    series = args.build(CorrelatorTable(), args.order)
    rows = ((mono_degree(m), mono_str(m), c) for m, c in series.sorted_terms())
    _dump(args, [series.to_json_dict()], "degree,mono,coeff", "deg {0}: {2} * {1}", rows)
    return 0


def _run_wave(args) -> int:
    coeffs = coefficients(principal_specialize(partition_function(CorrelatorTable(), args.order)))
    record = {"var": "hbar_over_z", "coeffs": [str(c) for c in coeffs]}
    _dump(args, [record], "d,coeff", "w^{0}: {1}", enumerate(coeffs))
    return 0


def _run_verify(args) -> int:
    targets = [t.strip() for t in args.targets.split(",") if t.strip()]
    if not targets:
        print("verify needs at least one target", file=sys.stderr)
        return 2
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        print(f"unknown verify targets: {', '.join(unknown)}", file=sys.stderr)
        return 2

    params = {"order": args.order, "chi_max": args.chi_max, "m_max": args.m_max}
    empty = [reason for t in targets if (reason := empty_window(t, **params))]
    if empty:
        print("\n".join(empty), file=sys.stderr)
        return 2
    run = RunContext(**params)
    reports = [run_target(t, run) for t in targets]
    rows = (
        (r["check"], r["order"], r["reliable_order"], r["status"], len(r["residual_terms"]))
        for r in reports
    )
    text = "{0}: {3} (order={1}, reliable={2}, residuals={4})"
    _dump(args, reports, "check,order,reliable_order,status,residuals", text, rows)
    return 0 if all(r["status"] == "pass" for r in reports) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConsistencyError as exc:
        print(json.dumps({"error": "internal inconsistency", "detail": str(exc)}))
        return 1
    except OSError as exc:
        if not args.out:
            raise
        print(f"cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
