from fractions import Fraction

import pytest

from bessel_tr.correlators import CorrelatorTable
from bessel_tr.pseries import free_energy, partition_function
from bessel_tr.wave import (
    OneVarSeries,
    principal_specialize,
    quantum_curve_residual,
    sk_identity_check,
    wave_coeff,
    wave_series,
)


def test_specialize_partition_function_order_three():
    psi = principal_specialize(partition_function(CorrelatorTable(), 3))
    assert psi.coeffs == (
        Fraction(1),
        Fraction(1, 8),
        Fraction(9, 128),
        Fraction(75, 1024),
    )


def test_specialize_constant():
    from bessel_tr.pseries import PSeries

    assert principal_specialize(PSeries.one(3)).coeffs == (1, 0, 0, 0)


def test_specialize_free_energy_order_two():
    spec = principal_specialize(free_energy(CorrelatorTable(), 2))
    assert spec.coeffs == (0, Fraction(1, 8), Fraction(1, 16))


def test_specialisation_is_a_ring_homomorphism():
    F = free_energy(CorrelatorTable(), 8)
    assert principal_specialize(F.exp()) == principal_specialize(F).exp()


def test_wave_coeff_values():
    assert wave_coeff(0) == 1
    assert wave_coeff(3) == Fraction(75, 1024)
    # closed form gives 3675/32768 at d = 4 (denominator 32768, not 3268)
    assert wave_coeff(4) == Fraction(3675, 32768)
    with pytest.raises(ValueError):
        wave_coeff(-1)


def test_wave_coeff_recurrence():
    for d in range(31):
        assert wave_coeff(d + 1) == wave_coeff(d) * Fraction((2 * d + 1) ** 2, 8 * (d + 1))


def test_wave_series_matches_specialised_partition_function():
    psi = principal_specialize(partition_function(CorrelatorTable(), 8))
    assert psi == wave_series(8)


def test_quantum_curve_residual_closed_form():
    res = quantum_curve_residual(wave_series(20))
    assert res.order == 19
    assert res.is_zero()


def test_quantum_curve_residual_constant_is_not_a_solution():
    res = quantum_curve_residual(OneVarSeries([1, 0]))
    assert res.coefficient(0) == Fraction(1, 8)


def test_quantum_curve_residual_from_specialisation():
    psi = principal_specialize(partition_function(CorrelatorTable(), 8))
    assert quantum_curve_residual(psi).is_zero()


def test_one_var_series_arithmetic():
    a = OneVarSeries([0, Fraction(1, 2), Fraction(1, 3)])
    e = a.exp()
    assert e.coefficient(0) == 1
    assert e.log() == a
    with pytest.raises(ValueError):
        a.log()
    with pytest.raises(ValueError):
        e.exp()


def test_one_var_series_json():
    psi = wave_series(3)
    assert psi.to_json_dict() == {
        "var": "hbar_over_z",
        "coeffs": ["1", "1/8", "9/128", "75/1024"],
    }


def test_sk_identity():
    t = CorrelatorTable()
    assert sk_identity_check(t, partition_function(t, 3))
    assert sk_identity_check(t, partition_function(t, 6))
    assert sk_identity_check(t, partition_function(t, 8))


def test_sk_identity_first_levels_by_hand():
    # w^1: -1/8 on both sides; w^0: nothing contributes
    t = CorrelatorTable()
    log_psi = principal_specialize(partition_function(t, 3)).log()
    assert log_psi.coefficient(0) == 0
    assert -log_psi.coefficient(1) == -t.value(1, (1,))
