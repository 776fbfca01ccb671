import hashlib
import json
from fractions import Fraction

import pytest

from bessel_tr import operators, verify
from bessel_tr.correlators import CorrelatorTable, odd_partitions
from bessel_tr.operators import evolve, virasoro_apply
from bessel_tr.pseries import (
    PSeries,
    free_energy,
    mono,
    mono_degree,
    mono_json,
    operator_table,
    partition_function,
)
from bessel_tr.verify import (
    TARGETS,
    RunContext,
    _bracket_closes,
    commutator_report,
    empty_window,
    kdv_report,
    oracle_equivalence_report,
    quantum_curve_report,
    run_target,
    sk_identity_report,
    string_dilaton_report,
    virasoro_report,
)


def test_free_energy_matches_cut_and_join_log():
    # closed recursion against the cut-and-join flow: two independent routes
    assert free_energy(CorrelatorTable(), 24) == evolve(24).log()


def test_oracle_equivalence_through_chi_twelve():
    assert oracle_equivalence_report(CorrelatorTable(), 12)["status"] == "pass"


def test_oracle_equivalence_through_chi_sixteen():
    assert oracle_equivalence_report(CorrelatorTable(), 16)["status"] == "pass"


def test_quantum_curve_routes_each_see_a_corrupted_z():
    # both routes read Z, and each must report a wrong coefficient of it
    Z = RunContext(order=8, chi_max=6, m_max=4).Z
    assert quantum_curve_report(Z)["status"] == "pass"
    target = next(m for m, _ in Z.sorted_terms() if mono_degree(m) == 5)
    terms = dict(Z.terms)
    terms[target] *= Fraction(101, 100)
    report = quantum_curve_report(PSeries(terms, 8))
    assert report["status"] == "fail"
    assert {r["route"] for r in report["residual_terms"]} == {"specialised", "agreement"}


def test_every_target_passes_at_order_thirty():
    # every identity at depth, on one shared table, F and Z
    run = RunContext(order=30, chi_max=24, m_max=4)
    reports = [run_target(name, run) for name in TARGETS]
    assert [(r["check"], r["status"]) for r in reports] == [(name, "pass") for name in TARGETS]


@pytest.mark.parametrize("order, m_max", [(30, 4), (24, 6)])
def test_commutator_closes_at_depth(monkeypatch, order, m_max):
    # a pass is decided on the composed tables alone: no pair sweeps the basis
    def sweep(*args):
        raise AssertionError("the basis was swept")

    monkeypatch.setattr(verify, "virasoro_apply", sweep)
    assert commutator_report(order, m_max)["status"] == "pass"


def test_oracle_equivalence_lists_an_engine_entry_off_the_support(monkeypatch):
    real = verify.symmetric_table

    def with_stray(omega):
        got = real(omega)
        return {**got, (3,): Fraction(5)} if (omega.g, omega.n) == (1, 1) else got

    monkeypatch.setattr(verify, "symmetric_table", with_stray)
    report = oracle_equivalence_report(CorrelatorTable(), 1)
    assert json.dumps(report["residual_terms"]) == json.dumps(
        [{"g": 1, "mu": [3], "expected": "0", "got": "5"}]
    )


def test_string_dilaton_through_chi_fourteen():
    assert string_dilaton_report(CorrelatorTable(), 14)["status"] == "pass"


def test_kdv_initial_condition_mismatch():
    # C(1; 1, 1) = 1/8 is the constant term of u; a wrong one breaks u(x, 0)
    table = CorrelatorTable()
    table._entries[(1, (1, 1))] = Fraction(1, 4)
    report = kdv_report(free_energy(table, 7))
    assert report["status"] == "fail"
    initial = [r for r in report["residual_terms"] if r["part"] == "initial"]
    assert {"part": "initial", "mono": {}, "coeff": "1/8"} in initial


def test_run_context_builds_each_series_once():
    run = RunContext(order=8, chi_max=6, m_max=4)
    F = run.F
    assert run.Z is run.Z
    assert run.F is F
    assert run.Z == F.exp()
    assert F == free_energy(run.table, 8)


def test_a_run_builds_only_what_its_targets_read():
    run = RunContext(order=8, chi_max=6, m_max=4)
    for name in ("string-dilaton", "oracle-equivalence"):
        assert run_target(name, run)["status"] == "pass"
    assert "F" not in vars(run) and "Z" not in vars(run)
    assert run_target("kdv", run)["status"] == "pass"
    assert "F" in vars(run) and "Z" not in vars(run)


def test_every_target_has_a_window_at_the_defaults():
    for name in TARGETS:
        assert empty_window(name, order=6, chi_max=6, m_max=4) is None, name


def test_run_target_refuses_an_empty_window():
    with pytest.raises(ValueError, match="checks nothing"):
        run_target("kdv", RunContext(order=4, chi_max=6, m_max=4))
    with pytest.raises(ValueError, match="checks nothing"):
        run_target("commutator", RunContext(order=6, chi_max=6, m_max=-1))
    with pytest.raises(ValueError, match="unknown"):
        run_target("nonsense", RunContext(order=6, chi_max=6, m_max=4))


@pytest.mark.parametrize(
    "report",
    [
        lambda: commutator_report(6, 0),
        lambda: commutator_report(1, 4),
        lambda: virasoro_report(PSeries.one(0), 3),
        lambda: kdv_report(PSeries({}, 1)),
        lambda: string_dilaton_report(CorrelatorTable(), 0),
        lambda: oracle_equivalence_report(CorrelatorTable(), 0),
    ],
    ids=[
        "commutator",
        "commutator-order",
        "virasoro",
        "kdv",
        "string-dilaton",
        "oracle-equivalence",
    ],
)
def test_reports_refuse_an_empty_window(report):
    # called directly, not through run_target, a report must still refuse
    with pytest.raises(ValueError, match="checks nothing"):
        report()


def test_failing_reports_are_pinned(monkeypatch):
    # every operator check must report a corrupted input, row for row: a
    # wrong C(1; 1) = 1/4 under virasoro, kdv and cutjoin, and an L_2 whose
    # d/dp5 coefficient is off by one under commutator; the bytes are pinned
    run = RunContext(order=9, chi_max=6, m_max=3)
    run.table._entries[(1, (1,))] = Fraction(1, 4)
    reports = [run_target(name, run) for name in ("virasoro", "kdv", "cutjoin")]
    original = operators._virasoro_table

    def corrupted(m, top):
        table = original(m, top)
        if m != 2:
            return table
        row = dict(table.get(((5, 1),), {}))
        row[()] = row.get((), 0) + 1
        return {**table, ((5, 1),): row}

    monkeypatch.setattr(operators, "_virasoro_table", corrupted)
    reports.append(commutator_report(8, 3))
    assert [(r["check"], r["status"], len(r["residual_terms"])) for r in reports] == [
        ("virasoro", "fail", 25),
        ("kdv", "fail", 8),
        ("cutjoin", "fail", 32),
        ("commutator", "fail", 7),
    ]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "e24d26cb94d16822d8cff293748acd81d9a0a306b97f3f2361a4a57c38685e49"


def test_failing_table_reports_are_pinned():
    # the table checks must report a corrupted C(2; 3, 1), off by 1%, row for
    # row, and quantum-curve a Z whose first degree-5 coefficient is off by 1%;
    # the bytes are pinned
    t = CorrelatorTable()
    t._entries[(2, (3, 1))] = t.value(2, (3, 1)) * Fraction(101, 100)
    Z = RunContext(order=8, chi_max=6, m_max=4).Z
    target = next(m for m, _ in Z.sorted_terms() if mono_degree(m) == 5)
    terms = dict(Z.terms)
    terms[target] *= Fraction(101, 100)
    reports = [
        string_dilaton_report(t, 6),
        oracle_equivalence_report(t, 6),
        sk_identity_report(t, partition_function(CorrelatorTable(), 6)),
        quantum_curve_report(PSeries(terms, 8)),
    ]
    assert [(r["check"], r["status"], len(r["residual_terms"])) for r in reports] == [
        ("string-dilaton", "fail", 7),
        ("oracle-equivalence", "fail", 6),
        ("sk-identity", "fail", 3),
        ("quantum-curve", "fail", 3),
    ]
    # the table's recursion carries the fault from hbar-power 2g - 2 + n = 4 upward
    assert [r["power"] for r in reports[2]["residual_terms"]] == [4, 5, 6]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "7b99c8514307f096661dbb78e351e0971f30b6a0aba6a5f017f5d5dbfd0c2193"


def sweep_commutator_report(order, m_max):
    """The commutator report as the full monomial sweep: each L_k of every
    basis monomial of degree <= order, both sides of [L_m, L_n] = (m - n) L_{m+n}
    compared on each, (m, n) outer and basis inner."""
    basis = [mono((p, 1) for p in parts) for d in range(order + 1) for parts in odd_partitions(d)]
    images = [
        [virasoro_apply(k, PSeries({x: 1}, mono_degree(x))) for k in range(2 * m_max)]
        for x in basis
    ]
    residuals = []
    for m in range(m_max + 1):
        for n in range(m + 1, m_max + 1):
            for x, image in zip(basis, images):
                lhs = virasoro_apply(m, image[n]) - virasoro_apply(n, image[m])
                if not (lhs - image[m + n] * (m - n)).is_zero():
                    residuals.append({"m": m, "n": n, "mono": mono_json(x)})
    return {
        "check": "commutator",
        "order": order,
        "reliable_order": order,
        "status": "pass" if not residuals else "fail",
        "residual_terms": residuals,
    }


@pytest.mark.parametrize("k", range(8))
def test_each_virasoro_table_can_fail_the_commutator(monkeypatch, k):
    # every L_k the check reads at m_max 4 (k = m + n <= 7), with 1/3 added to
    # its d/dp1, d/dp3, d/dp5 or d/dp7 coefficient in turn, must fail the
    # report, row for row as the full monomial sweep lists it
    original = operators._virasoro_table
    for index in (1, 3, 5, 7):

        def corrupted(m, top, index=index):
            table = original(m, top)
            if m != k:
                return table
            row = dict(table.get(((index, 1),), {}))
            row[()] = row.get((), 0) + Fraction(1, 3)
            return {**table, ((index, 1),): row}

        monkeypatch.setattr(operators, "_virasoro_table", corrupted)
        report = commutator_report(9, 4)
        assert report["status"] == "fail", index
        assert json.dumps(report) == json.dumps(sweep_commutator_report(9, 4)), index


def padded(table):
    """`table` with explicit zeros at p9 d/dp1 and p3 d^2/dp1^2, each row
    made where the table lacks it."""
    table = {b: dict(row) for b, row in table.items()}
    table.setdefault(((1, 1),), {})[((9, 1),)] = Fraction(0)
    table.setdefault(((1, 2),), {})[((3, 1),)] = Fraction(0)
    return table


def cancelling(table):
    """`table` rebuilt by `operator_table` with two pairs of terms that
    cancel, at p1 d/dp5 and p7 d/dp1 d/dp3, each row made where the table
    lacks it."""
    terms = [(c, a, b) for b, row in table.items() for a, c in row.items()]
    terms += [(1, [(1, 1)], [(5, 1)]), (-1, [(1, 1)], [(5, 1)])]
    terms += [(2, [(7, 1)], [(1, 1), (3, 1)]), (-2, [(7, 1)], [(1, 1), (3, 1)])]
    return operator_table(terms)


@pytest.mark.parametrize("rebuild", [padded, cancelling])
def test_zero_entries_do_not_send_a_pair_to_the_sweep(monkeypatch, rebuild):
    # an L table whose zero coefficients are explicit is the same operator:
    # every pair must close on the tables, and a corrupted one still fails
    # row for row as the full monomial sweep lists it
    original = operators._virasoro_table
    monkeypatch.setattr(operators, "_virasoro_table", lambda m, top: rebuild(original(m, top)))
    assert any(0 in row.values() for row in operators._virasoro_table(1, 12).values())
    assert all(_bracket_closes(m, n, 12) for n in range(1, 7) for m in range(n))

    def corrupted(m, top):
        table = rebuild(original(m, top))
        if m == 3:
            table[((7, 1),)][()] += Fraction(1, 3)
        return table

    monkeypatch.setattr(operators, "_virasoro_table", corrupted)
    report = commutator_report(9, 4)
    assert report["status"] == "fail"
    assert json.dumps(report) == json.dumps(sweep_commutator_report(9, 4))
