import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from bessel_tr import cli, verify
from bessel_tr.cli import build_parser, main
from bessel_tr.pseries import free_energy, partition_function
from bessel_tr.spectral import (
    ConsistencyError,
    CorrelationEngine,
    airy_curve,
    omega_records,
    stable_pairs,
)
from bessel_tr.verify import TARGETS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_u_table_csv(capsys):
    code, out = run_cli(capsys, "u-table", "--chi-max", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "g,mu,value"
    assert "2,[3],3/128" in lines
    assert "1,[1,1],1/8" in lines


def test_u_table_json_records(capsys):
    code, out = run_cli(capsys, "u-table", "--chi-max", "3")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert {"g": 2, "mu": [3], "value": "3/128"} in records
    for rec in records:
        assert set(rec) == {"g", "mu", "value"}


def test_u_table_respects_g_max(capsys):
    code, out = run_cli(capsys, "u-table", "--chi-max", "4", "--g-max", "1")
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(rec["g"] <= 1 for rec in records)


def test_wave_order_four(capsys):
    code, out = run_cli(capsys, "wave", "--order", "4")
    assert code == 0
    assert json.loads(out) == {
        "var": "hbar_over_z",
        "coeffs": ["1", "1/8", "9/128", "75/1024", "3675/32768"],
    }


def test_omega_records(capsys):
    code, out = run_cli(capsys, "omega", "--chi-max", "2")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert {"g": 1, "n": 1, "mu": [1], "value": "1/8"} in records
    assert {"g": 1, "n": 2, "mu": [1, 1], "value": "1/8"} in records


def test_omega_airy(capsys):
    code, out = run_cli(capsys, "omega", "--curve", "airy", "--chi-max", "1")
    records = [json.loads(line) for line in out.splitlines()]
    assert {"g": 1, "n": 1, "mu": [3], "value": "1/24"} in records
    assert {"g": 0, "n": 3, "mu": [1, 1, 1], "value": "1"} in records


def test_free_energy_json(capsys):
    code, out = run_cli(capsys, "free-energy", "--order", "3")
    data = json.loads(out)
    assert data["order"] == 3
    assert {"mono": {"3": 1}, "coeff": "3/128"} in data["terms"]


def test_partition_formats(capsys):
    code, out = run_cli(capsys, "partition", "--order", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "degree,mono,coeff"
    assert "3,p3,3/128" in out.splitlines()
    code, out = run_cli(capsys, "partition", "--order", "3", "--format", "text")
    assert code == 0
    assert "deg 3: 3/128 * p3" in out.splitlines()


def test_verify_single_target(capsys):
    code, out = run_cli(capsys, "verify", "--targets", "virasoro", "--order", "10", "--m-max", "4")
    assert code == 0
    report = json.loads(out)
    assert report["check"] == "virasoro"
    assert report["status"] == "pass"
    assert report["reliable_order"] == 9
    assert report["residual_terms"] == []


def test_verify_all_targets(capsys):
    code, out = run_cli(capsys, "verify", "--order", "6", "--chi-max", "4")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 8
    assert all(r["status"] == "pass" for r in reports)
    by_name = {r["check"]: r for r in reports}
    assert by_name["sk-identity"]["prefactor"] == {"S0": "-z", "S1": "-(1/2)*log(z)"}


@pytest.mark.parametrize("order, chi_max", [(6, 6), (9, 7)])
def test_verify_shared_context_matches_separate_runs(capsys, order, chi_max):
    # one run shares its table, F and Z among its targets; in either order,
    # no target may change what a later one reads
    flags = ["--order", str(order), "--chi-max", str(chi_max)]
    for names in (TARGETS, TARGETS[::-1]):
        code, together = run_cli(capsys, "verify", "--targets", ",".join(names), *flags)
        assert code == 0
        separate = "".join(
            run_cli(capsys, "verify", "--targets", name, *flags)[1] for name in names
        )
        assert together == separate
        assert len(together.splitlines()) == 8


def test_verify_table_targets_build_no_series(capsys, monkeypatch):
    # string-dilaton and oracle-equivalence read the table alone, so a run of
    # just those two never builds F (and so never Z)
    def refuse(*args):
        raise AssertionError("F was built")

    monkeypatch.setattr(verify, "free_energy", refuse)
    code, out = run_cli(capsys, "verify", "--targets", "string-dilaton,oracle-equivalence")
    assert code == 0
    assert [json.loads(line)["status"] for line in out.splitlines()] == ["pass", "pass"]


def test_verify_unknown_target(capsys):
    code = main(["verify", "--targets", "nonsense"])
    assert code == 2


def test_verify_without_targets_exits_two(capsys):
    code = main(["verify", "--targets", ","])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "verify needs at least one target\n"


def test_consistency_error_prints_one_json_line(capsys, monkeypatch):
    def inconsistent(coeffs, n):
        raise ConsistencyError("two live slots disagree")

    monkeypatch.setattr(verify, "symmetric_table", inconsistent)
    code, out = run_cli(capsys, "verify", "--targets", "oracle-equivalence")
    assert code == 1
    assert out.splitlines() == [
        json.dumps({"error": "internal inconsistency", "detail": "two live slots disagree"})
    ]


def test_stdout_write_error_propagates(monkeypatch):
    # only an --out path turns an OSError into exit 2
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(OSError):
        main(["wave", "--order", "3"])


def test_invalid_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["u-table", "--format", "yaml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# each subcommand's attributes as argparse set them before the command table
ARGPARSE_DEFAULTS = {
    "u-table": dict(g_max=None, chi_max=6, format="json", out=None, run=cli._run_u_table),
    "omega": dict(curve="bessel", chi_max=6, format="json", out=None, run=cli._run_omega),
    "free-energy": dict(order=6, format="json", out=None, run=cli._run_series, build=free_energy),
    "partition": dict(
        order=6, format="json", out=None, run=cli._run_series, build=partition_function
    ),
    "wave": dict(order=6, format="json", out=None, run=cli._run_wave),
    "verify": dict(
        targets=",".join(TARGETS), m_max=4, order=6, chi_max=6, format="json", out=None,
        run=cli._run_verify,
    ),
}


@pytest.mark.parametrize(
    "argv, needles",
    [
        ([], ["the following arguments are required: command"]),
        (["omega", "--curve", "x"], ["'bessel'", "'airy'"]),
        (["no-such-command"], ["invalid choice: 'no-such-command'", "'u-table'", "'verify'"]),
        (["--order", "3", "verify"], ["invalid choice: '--order'"]),
        (["u-table", "--nope", "1"], ["bessel-tr u-table: error: unrecognized argument: --nope"]),
        (["omega", "--c", "3"], ["bessel-tr omega: error: ambiguous argument: --c"]),
        (["omega", "foo"], ["unrecognized argument: foo"]),
        (["omega", "-x"], ["unrecognized argument: -x"]),
        (["omega", "--chi-max"], ["argument --chi-max: expected one argument"]),
        (["omega", "--chi-max", "--curve", "airy"], ["argument --chi-max: expected one argument"]),
        (["u-table", "--format", "yaml"], ["invalid choice: 'yaml'", "'json'", "'csv'", "'text'"]),
        (["wave", "--order", "x"], ["argument --order:", "'x'"]),
        (["verify", "--m-max=1.5"], ["argument --m-max:", "'1.5'"]),
    ],
)
def test_usage_errors_exit_two(capsys, argv, needles):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    prog = " ".join(["bessel-tr"] + [a for a in argv[:1] if a in ARGPARSE_DEFAULTS])
    assert captured.err.startswith(f"usage: {prog} ")
    assert f"\n{prog}: error: " in captured.err
    for needle in needles:
        assert needle in captured.err


def test_accepted_flag_forms():
    parse = build_parser().parse_args
    for command, defaults in ARGPARSE_DEFAULTS.items():
        assert vars(parse([command])) == {"command": command, **defaults}
    # --flag=VALUE, a unique prefix, the last of a repeat; after "=" a value
    # may start with "--", and a separate value may start with one "-"
    argv = ["verify", "--order=9", "--chi", "3", "--m-max", "1", "--m=2", "--t", "-x", "--t=kdv"]
    args = parse(argv + ["--f", "csv", "--out=--x"])
    assert (args.order, args.chi_max, args.m_max, args.targets) == (9, 3, 2, "kdv")
    assert (args.format, args.out, args.run) == ("csv", "--x", cli._run_verify)
    assert parse(["omega", "--cu=airy", "--ch=0"]).curve == "airy"


def test_help_exits_zero_and_lists_the_table(capsys):
    # help ends the parse where it stands, before the bad flag after it
    for flag in ("-h", "--help"):
        for argv in [[flag]] + [[command, flag] for command in ARGPARSE_DEFAULTS]:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--order", "128"])
            assert exc.value.code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out.startswith("usage: bessel-tr")
            if len(argv) == 1:
                names = list(ARGPARSE_DEFAULTS)
            else:
                names = ["--" + a.replace("_", "-") for a in ARGPARSE_DEFAULTS[argv[0]]]
                names = [name for name in names if name not in ("--run", "--build")]
            rows = [line.split()[0] for line in captured.out.splitlines() if line.startswith("  ")]
            assert rows == names


def test_the_cli_imports_no_argparse():
    # argparse and its gettext and locale imports cost a fresh process
    # milliseconds before any work; the command table needs none of them
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from bessel_tr.cli import build_parser\n"
        "build_parser().parse_args(['verify'])\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_deterministic_output(capsys):
    _, first = run_cli(capsys, "u-table", "--chi-max", "5", "--format", "csv")
    _, second = run_cli(capsys, "u-table", "--chi-max", "5", "--format", "csv")
    assert first == second
    _, third = run_cli(capsys, "verify", "--targets", "kdv,cutjoin", "--order", "6")
    _, fourth = run_cli(capsys, "verify", "--targets", "kdv,cutjoin", "--order", "6")
    assert third == fourth


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run_cli(
        capsys, "u-table", "--chi-max", "3", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert "2,[3],3/128" in target.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--targets", "kdv", "--order", "3"],
        ["verify", "--targets", "virasoro", "--order", "0"],
        ["verify", "--targets", "quantum-curve", "--order", "0"],
        ["verify", "--targets", "oracle-equivalence", "--chi-max", "0"],
        ["verify", "--targets", "string-dilaton", "--chi-max", "0"],
        ["verify", "--targets", "cutjoin,kdv", "--order", "4"],
        ["verify", "--targets", "commutator", "--m-max", "0"],
        ["verify", "--targets", "commutator", "--order", "1", "--m-max", str(10**11)],
    ],
)
def test_empty_window_exits_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checks nothing" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--targets", "commutator", "--m-max", "-1"],
        ["free-energy", "--order", "-1"],
        ["u-table", "--chi-max", "-2"],
        ["u-table", "--g-max", "-1"],
        ["omega", "--chi=-1"],
    ],
)
def test_negative_flag_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["free-energy"],
        ["partition"],
        ["wave"],
        ["verify", "--targets", "kdv"],
        ["verify", "--targets", "commutator"],
    ],
)
def test_order_above_the_packed_key_limit_exits_two(capsys, argv):
    # a packed series key holds degrees up to 127: one rule for --order on
    # every subcommand, the commutator's too, checked before any work
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--order", "128"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 127" in captured.err
    assert build_parser().parse_args(argv + ["--order", "127"]).order == 127


def test_kdv_at_its_floor_passes(capsys):
    code, out = run_cli(capsys, "verify", "--targets", "kdv", "--order", "5")
    assert code == 0
    report = json.loads(out)
    assert report["reliable_order"] == 0
    assert report["status"] == "pass"


def test_huge_m_max_prints_the_bytes_of_half_the_order(capsys):
    # L_m kills every monomial of degree <= order once 2m > order, so an
    # --m-max past order // 2 checks nothing more, and must not cost more
    flags = ["verify", "--targets", "virasoro,commutator", "--order", "10"]
    start = perf_counter()
    huge = run_cli(capsys, *flags, "--m-max", str(10**9))
    elapsed = perf_counter() - start
    assert huge == run_cli(capsys, *flags, "--m-max", "5")
    assert elapsed < 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["u-table", "--chi-max", "0", "--format", "json"], ""),
        (["u-table", "--chi-max", "0", "--format", "csv"], "g,mu,value\n"),
        (["u-table", "--chi-max", "0", "--format", "text"], ""),
        (["omega", "--chi-max", "0", "--format", "json"], ""),
        (["omega", "--chi-max", "0", "--format", "csv"], "g,n,mu,value\n"),
        (["omega", "--chi-max", "0", "--format", "text"], ""),
        (["omega", "--curve", "airy", "--chi-max", "0", "--format", "json"], ""),
        (["free-energy", "--order", "0", "--format", "text"], ""),
        (["free-energy", "--order", "0", "--format", "csv"], "degree,mono,coeff\n"),
    ],
)
def test_empty_dump_prints_no_records(capsys, argv, expected):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_unwritable_out_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code = main(["wave", "--order", "3", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert str(target) in captured.err
    assert not target.exists()


def test_empty_dump_writes_an_empty_file(capsys, tmp_path):
    target = tmp_path / "empty.json"
    code, out = run_cli(capsys, "omega", "--chi-max", "0", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_bytes() == b""


def test_omega_dump_matches_its_records(capsys):
    engine = CorrelationEngine(airy_curve())
    records = [r for g, n in stable_pairs(3) for r in omega_records(g, n, engine.omega(g, n))]
    _, out = run_cli(capsys, "omega", "--curve", "airy", "--chi-max", "3", "--format", "json")
    assert [json.loads(line) for line in out.splitlines()] == records
    _, out = run_cli(capsys, "omega", "--curve", "airy", "--chi-max", "3", "--format", "text")
    assert out.splitlines()[:2] == ["g=0 n=3 mu=[1,1,1] 1", "g=1 n=1 mu=[3] 1/24"]


_PINNED_DUMPS = {
    ("u-table", "--chi-max", "4"): {
        "json": "073ce81be65f0008aeb58d1255d90dcacacab9825133f52c4eb74ffe9d6ce1db",
        "csv": "ca7174f5e3abafdd2ef464f4e27406f9b1e1490971e5eb10697166e7f0e5f5c7",
        "text": "95f416b117e689612d620872dd1a9973b06cc0678ccaa7cb71e4e78edf60a6f1",
    },
    ("omega", "--curve", "airy", "--chi-max", "3"): {
        "json": "30107abcb87b9f8247f4adc568f63b77f23645e9503eaa8b80075caea9eb5a4e",
        "csv": "dbcc9657e4f2df637767d3b434aae6f9f61bbac57716075fb91be6df915843c8",
        "text": "379ca71015d9e8918e57a904e270dbeb87f5be7110d4d9bcbf7f8f235456181a",
    },
    ("free-energy", "--order", "5"): {
        "json": "ed2105242f12259b1d574b595689b56c5da487bbdd6e1500c43f7b86172b3fe6",
        "csv": "c7c4d3c1a62c0b4ae5f8f73de7ed3192888b23e17735583c2e27cac1b63db94b",
        "text": "f1119ecd4721cdb0025fc675671b79a9325aa803231dd9385eaf3679cd992556",
    },
    ("partition", "--order", "5"): {
        "json": "c576ba94792e02fdcd1134f4876dcebe3643fa09bf80f44927cf5dcf6ccbe413",
        "csv": "785245941eefd46c30d2d2d24dddb113d1c9c5bf93593dfdd998c7277d78e89a",
        "text": "2ac6838b46b7f6c80792fbf2383e963ee4412b0a561e581cc8f2a3986c3ae04a",
    },
    ("wave", "--order", "5"): {
        "json": "d58f9eb82835758a458f4bc62a540b3d1f7b4be403463b133a9746982e728205",
        "csv": "4d90d7fafa8415e37e2616c3c4762774f523fdfe77b9796d1764b6ba672beada",
        "text": "5bfc2c6e1204abe82d1ddc8ee522740f242808c29332b840ab9ea841df1355df",
    },
    ("verify", "--order", "6", "--chi-max", "4"): {
        "json": "89f1e3afabf385dcbe9ccf466dbc9e069ce36396e278f8709f298b06de3b7805",
        "csv": "568823d3ce1181af0e7a3ae14c3951b03cd3dc7f5653120bd7797b05820484ea",
        "text": "e5ca3ed5fe6e978dac38af9ff040b209b9a4ef16a3024ab1002161df3b690632",
    },
    # depth: deep keys are where denominators reach hundreds of bits
    ("u-table", "--chi-max", "24"): {
        "json": "de3f15d479db1813a65113faab93c999cf60baf32f024eed9d27f7349c09939b",
    },
    ("partition", "--order", "24"): {
        "json": "e0c00c11e27368b6ccf4341e78a6214bc087f95ebc30f7e60a9abbd8cb4a2881",
    },
    ("omega", "--curve", "airy", "--chi-max", "10"): {
        "json": "64d1f98b5c857bad99defea2dc61722ad924748f40b74d05a1728bd3f7e27a12",
    },
    ("omega", "--curve", "bessel", "--chi-max", "20"): {
        "json": "3587f5e957642f54099540b6b9eaa4dfd0bc656fd1256374a8e452a1d35b9dfb",
    },
    # the depths where the engine's polar-part cut and the closed recursion's
    # split vectors do most of their work
    ("omega", "--curve", "airy", "--chi-max", "12"): {
        "json": "65ddb47147a0ec08d727594783ae078de47d54136722696ed3b851f93341a908",
    },
    ("u-table", "--chi-max", "30"): {
        "json": "195f1d671a1c4ee826cb2e47520dedd5c45388e7cd5ed088d18c026f62b23859",
    },
    # monomial printing at depth, exponents up to p1^24 (the json form is pinned
    # above; this spelling of the same argv keeps the earlier entries' test ids)
    ("partition", "--order=24"): {
        "text": "623955d2261ccd9c4c8c771ad1cc9484a54aff2d7e44a7df8f9c36c65f34b152",
        "csv": "033fb0c6ce9b6ff6c3438d3c221c4e778fae1b1d7b797c4f101055e0928f31f9",
    },
}


@pytest.mark.parametrize(
    "argv, fmt, digest",
    [
        (argv, fmt, digest)
        for argv, digests in _PINNED_DUMPS.items()
        for fmt, digest in digests.items()
    ],
)
def test_dump_bytes_are_pinned(capsys, argv, fmt, digest):
    # every subcommand in every format, byte for byte
    code, out = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
