import pytest

from bessel_tr.correlators import CorrelatorTable
from bessel_tr.operators import evolve
from bessel_tr.pseries import free_energy
from bessel_tr.verify import (
    TARGETS,
    empty_window,
    oracle_equivalence_report,
    run_target,
    string_dilaton_report,
)


def test_free_energy_matches_cut_and_join_log():
    # closed recursion against the cut-and-join flow: two independent routes
    assert free_energy(CorrelatorTable(), 18) == evolve(18).log()


def test_oracle_equivalence_through_chi_twelve():
    assert oracle_equivalence_report(12)["status"] == "pass"


def test_string_dilaton_through_chi_fourteen():
    assert string_dilaton_report(14)["status"] == "pass"


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
