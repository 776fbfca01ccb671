"""Command-line interface.

Subcommands: u-table (closed-recursion coefficient dump), omega (residue
engine dump), free-energy, partition, wave (series exports), and verify
(the integrability suites). All outputs are deterministic: identical
configuration yields byte-identical output, values are always lowest-terms
"p/q" strings, and files are UTF-8. Usage errors, including negative
numeric flags and a verify target whose check window would be empty, print
a message on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .correlators import CorrelatorTable, support_keys
from .formal import ConsistencyError
from .pseries import free_energy, mono_degree, mono_str, partition_function
from .spectral import (
    CorrelationEngine,
    airy_curve,
    bessel_curve,
    stable_pairs,
    symmetric_table,
)
from .verify import TARGETS, empty_window, run_target
from .wave import principal_specialize


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bessel-tr",
        description="Exact topological recursion on the Bessel curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, order=False, chi=False):
        if order:
            p.add_argument("--order", type=non_negative_int, default=6, help="truncation order N")
        if chi:
            p.add_argument("--chi-max", type=non_negative_int, default=6, help="bound on 2g-2+n")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("u-table", help="dump the coefficient table")
    p.add_argument("--g-max", type=non_negative_int, default=None, help="optional genus bound")
    add_common(p, chi=True)

    p = sub.add_parser("omega", help="dump residue-engine tensors")
    p.add_argument("--curve", choices=("bessel", "airy"), default="bessel")
    add_common(p, chi=True)

    p = sub.add_parser("free-energy", help="export the free energy series")
    add_common(p, order=True)

    p = sub.add_parser("partition", help="export the partition function series")
    add_common(p, order=True)

    p = sub.add_parser("wave", help="export the specialised wave function")
    add_common(p, order=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--targets",
        default=",".join(TARGETS),
        help="comma-separated subset of: " + ", ".join(TARGETS),
    )
    p.add_argument("--m-max", type=non_negative_int, default=4, help="Virasoro index bound")
    add_common(p, order=True, chi=True)

    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mu_str(parts) -> str:
    return "[" + ",".join(str(p) for p in parts) + "]"


def _run_u_table(args) -> int:
    table = CorrelatorTable()
    rows = []
    for g, parts in support_keys(args.chi_max):
        if args.g_max is not None and g > args.g_max:
            continue
        rows.append((g, parts, table.value(g, parts)))
    if args.format == "json":
        lines = [
            json.dumps({"g": g, "mu": list(parts), "value": str(v)})
            for g, parts, v in rows
        ]
    elif args.format == "csv":
        lines = ["g,mu,value"] + [f"{g},{_mu_str(parts)},{v}" for g, parts, v in rows]
    else:
        lines = [f"g={g} mu={_mu_str(parts)} {v}" for g, parts, v in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_omega(args) -> int:
    curve = bessel_curve() if args.curve == "bessel" else airy_curve()
    engine = CorrelationEngine(curve)
    records = []
    for g, n in stable_pairs(args.chi_max):
        sym = symmetric_table(engine.omega(g, n))
        for mu in sorted(sym):
            records.append((g, n, mu, sym[mu]))
    if args.format == "json":
        lines = [
            json.dumps({"g": g, "n": n, "mu": list(mu), "value": str(v)})
            for g, n, mu, v in records
        ]
    elif args.format == "csv":
        lines = ["g,n,mu,value"] + [
            f"{g},{n},{_mu_str(mu)},{v}" for g, n, mu, v in records
        ]
    else:
        lines = [f"g={g} n={n} mu={_mu_str(mu)} {v}" for g, n, mu, v in records]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _series_output(series, args) -> int:
    if args.format == "json":
        text = json.dumps(series.to_json_dict()) + "\n"
    elif args.format == "csv":
        lines = ["degree,mono,coeff"] + [
            f"{mono_degree(m)},{mono_str(m)},{c}" for m, c in series.sorted_terms()
        ]
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"deg {mono_degree(m)}: {c} * {mono_str(m)}"
            for m, c in series.sorted_terms()
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _run_wave(args) -> int:
    psi = principal_specialize(partition_function(CorrelatorTable(), args.order))
    if args.format == "json":
        text = json.dumps(psi.to_json_dict()) + "\n"
    elif args.format == "csv":
        lines = ["d,coeff"] + [f"{d},{c}" for d, c in enumerate(psi.coeffs)]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"w^{d}: {c}" for d, c in enumerate(psi.coeffs)]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
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
    reports = [run_target(t, **params) for t in targets]

    if args.format == "json":
        lines = [json.dumps(r) for r in reports]
    elif args.format == "csv":
        lines = ["check,order,reliable_order,status,residuals"] + [
            f"{r['check']},{r['order']},{r['reliable_order']},{r['status']},{len(r['residual_terms'])}"
            for r in reports
        ]
    else:
        lines = [
            f"{r['check']}: {r['status']} (order={r['order']}, reliable={r['reliable_order']},"
            f" residuals={len(r['residual_terms'])})"
            for r in reports
        ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(r["status"] == "pass" for r in reports) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "u-table":
            return _run_u_table(args)
        if args.command == "omega":
            return _run_omega(args)
        if args.command == "free-energy":
            series = free_energy(CorrelatorTable(), args.order)
            return _series_output(series, args)
        if args.command == "partition":
            series = partition_function(CorrelatorTable(), args.order)
            return _series_output(series, args)
        if args.command == "wave":
            return _run_wave(args)
        if args.command == "verify":
            return _run_verify(args)
    except ConsistencyError as exc:
        print(json.dumps({"error": "internal inconsistency", "detail": str(exc)}))
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
