"""Command-line interface.

Subcommands: u-table (closed-recursion coefficient dump), omega (residue
engine dump), free-energy, partition, wave (series exports), and verify
(the integrability suites), read from one table, COMMANDS. Flags take
`--flag VALUE`, `--flag=VALUE` or a unique prefix (`--chi 3`), the last of a
repeat counting; `-h`/`--help` prints usage and exits 0. Outputs are
deterministic: identical configuration yields byte-identical output, values
are lowest-terms "p/q" strings, files are UTF-8. Usage errors, including
negative numeric flags, an `--order` above 127 and a verify target whose
check window would be empty, print a message on stderr and exit 2, and so
does an `--out` path that cannot be written.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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
        raise ValueError(f"must be a non-negative integer, got {value}")
    return value


def order_int(text: str) -> int:
    if (value := non_negative_int(text)) > LIMIT:
        raise ValueError(f"must be at most {LIMIT}, got {value}")
    return value


def choice(*names: str):
    """A converter that accepts only `names`."""
    def convert(text: str) -> str:
        if text in names:
            return text
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})")
    return convert


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


# flag -> (converter, default, help line); it sets the attribute of its name, "-" read as "_"
ORDER = {"order": (order_int, 6, "truncation order N")}
CHI = {"chi-max": (non_negative_int, 6, "bound on 2g-2+n")}
OUTPUT = {"format": (choice("json", "csv", "text"), "json", "json, csv or text"),
          "out": (str, None, "write output to this file")}
# subcommand -> (help line, the attributes it sets: its runner and what that reads, flags)
COMMANDS = {
    "u-table": ("dump the coefficient table", dict(run=_run_u_table),
                {"g-max": (non_negative_int, None, "optional genus bound"), **CHI, **OUTPUT}),
    "omega": ("dump residue-engine tensors", dict(run=_run_omega),
              {"curve": (choice(*CURVES), "bessel", " or ".join(CURVES)), **CHI, **OUTPUT}),
    "free-energy": ("export the free energy series", dict(run=_run_series, build=free_energy),
                    {**ORDER, **OUTPUT}),
    "partition": ("export the partition function series",
                  dict(run=_run_series, build=partition_function), {**ORDER, **OUTPUT}),
    "wave": ("export the specialised wave function", dict(run=_run_wave), {**ORDER, **OUTPUT}),
    "verify": ("run verification suites", dict(run=_run_verify), {
        "targets": (str, ",".join(TARGETS), "comma-separated subset of: " + ", ".join(TARGETS)),
        "m-max": (non_negative_int, 4, "Virasoro index bound"), **ORDER, **CHI, **OUTPUT}),
}


class Parser:
    """Reads argv against COMMANDS, as the module docstring says."""

    def parse_args(self, argv=None) -> SimpleNamespace:
        tokens = iter(sys.argv[1:] if argv is None else argv)
        command = next(tokens, None)
        if command in (None, "-h", "--help"):
            self.exit(None, command is None and "the following arguments are required: command")
        try:
            _, attrs, flags = COMMANDS[choice(*COMMANDS)(command)]
        except ValueError as exc:
            self.exit(None, f"argument command: {exc}")
        values = {flag.replace("-", "_"): default for flag, (_, default, _) in flags.items()}
        for token in tokens:
            if token in ("-h", "--help"):
                self.exit(command)
            name, eq, value = token[2:].partition("=")
            found = [flag for flag in flags if flag.startswith(name)] if token[:2] == "--" else []
            if len(found) != 1:
                self.exit(command, f"{'ambiguous' if found else 'unrecognized'} argument: {token}")
            [flag] = found
            # a flag's value is the next token unless given after "="; none starts with "--"
            if not eq and (value := next(tokens, "--")).startswith("--"):
                self.exit(command, f"argument --{flag}: expected one argument")
            try:
                values[flag.replace("-", "_")] = flags[flag][0](value)
            except ValueError as exc:
                self.exit(command, f"argument --{flag}: {exc}")
        return SimpleNamespace(command=command, **values, **attrs)

    def exit(self, command, error=None):
        """Help on `command` (None: the program), exit 0; or usage and error on stderr, exit 2."""
        if command is None:
            prog, summary = "bessel-tr", "Exact topological recursion on the Bessel curve."
            rows = {name: entry[0] for name, entry in COMMANDS.items()}
        else:
            prog, (summary, _, flags) = f"bessel-tr {command}", COMMANDS[command]
            rows = {f"--{f} {f.upper().replace('-', '_')}": h for f, (_, _, h) in flags.items()}
        args = " ".join(f"[{row}]" for row in rows) if command else "{" + ",".join(rows) + "} ..."
        usage = f"usage: {prog} [-h] {args}\n"
        if error:
            sys.stderr.write(f"{usage}{prog}: error: {error}\n")
            raise SystemExit(2)
        width = max(map(len, rows))
        sys.stdout.write(f"{usage}\n{summary}\n\n")
        sys.stdout.write("".join(f"  {row:<{width}}  {text}\n" for row, text in rows.items()))
        raise SystemExit(0)


def build_parser() -> Parser:
    return Parser()


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
