import json

import pytest

from bessel_tr.cli import main


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


def test_verify_unknown_target(capsys):
    code = main(["verify", "--targets", "nonsense"])
    assert code == 2


def test_invalid_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["u-table", "--format", "yaml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


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
    ],
)
def test_negative_flag_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-negative" in captured.err


def test_kdv_at_its_floor_passes(capsys):
    code, out = run_cli(capsys, "verify", "--targets", "kdv", "--order", "5")
    assert code == 0
    report = json.loads(out)
    assert report["reliable_order"] == 0
    assert report["status"] == "pass"
