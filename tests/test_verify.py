import hashlib
import json
from fractions import Fraction

import pytest

from bessel_tr import operators
from bessel_tr.correlators import CorrelatorTable
from bessel_tr.operators import evolve
from bessel_tr.pseries import PSeries, free_energy, mono_degree, partition_function
from bessel_tr.verify import (
    TARGETS,
    RunContext,
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
    Z = RunContext().partition(8)
    assert quantum_curve_report(Z)["status"] == "pass"
    target = next(m for m, _ in Z.sorted_terms() if mono_degree(m) == 5)
    terms = dict(Z.terms)
    terms[target] *= Fraction(101, 100)
    report = quantum_curve_report(PSeries(terms, 8))
    assert report["status"] == "fail"
    assert {r["route"] for r in report["residual_terms"]} == {"specialised", "agreement"}


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
    context = RunContext()
    F = context.free_energy(8)
    assert context.partition(8) is context.partition(8)
    assert context.free_energy(8) is F
    assert context.partition(8) == F.exp()
    assert F == free_energy(context.table, 8)


def test_every_target_has_a_window_at_the_defaults():
    for name in TARGETS:
        assert empty_window(name, order=6, chi_max=6, m_max=4) is None, name


def test_run_target_refuses_an_empty_window():
    with pytest.raises(ValueError, match="checks nothing"):
        run_target("kdv", order=4, chi_max=6, m_max=4)
    with pytest.raises(ValueError, match="checks nothing"):
        run_target("commutator", order=6, chi_max=6, m_max=-1)
    with pytest.raises(ValueError, match="unknown"):
        run_target("nonsense", order=6, chi_max=6, m_max=4)


@pytest.mark.parametrize(
    "report",
    [
        lambda: commutator_report(6, 0),
        lambda: virasoro_report(PSeries.one(0), 3),
        lambda: kdv_report(PSeries({}, 1)),
        lambda: string_dilaton_report(CorrelatorTable(), 0),
        lambda: oracle_equivalence_report(CorrelatorTable(), 0),
    ],
    ids=["commutator", "virasoro", "kdv", "string-dilaton", "oracle-equivalence"],
)
def test_reports_refuse_an_empty_window(report):
    # called directly, not through run_target, a report must still refuse
    with pytest.raises(ValueError, match="checks nothing"):
        report()


def test_failing_reports_are_pinned(monkeypatch):
    # every operator check must report a corrupted input, row for row: a
    # wrong C(1; 1) = 1/4 under virasoro, kdv and cutjoin, and an L_2 whose
    # d/dp5 coefficient is off by one under commutator; the bytes are pinned
    context = RunContext()
    context.table._entries[(1, (1,))] = Fraction(1, 4)
    reports = [
        run_target(name, order=9, chi_max=6, m_max=3, context=context)
        for name in ("virasoro", "kdv", "cutjoin")
    ]
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
    Z = RunContext().partition(8)
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
        ("sk-identity", "fail", 1),
        ("quantum-curve", "fail", 3),
    ]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "94e03aecff7add366ccb51b469b4bc43d6be136392c0a2f6dba12afe5e8b586b"
