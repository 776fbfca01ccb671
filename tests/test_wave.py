from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from closed_families import double_factorial, wave_coeff
from strategies import PROPERTY

from bessel_tr.correlators import CorrelatorTable
from bessel_tr.pseries import LIMIT, PSeries, free_energy, mono, partition_function
from bessel_tr.verify import sk_identity_report
from bessel_tr.wave import principal_specialize, quantum_curve_residual, wave_series


def W(*coeffs):
    """The series sum_d coeffs[d] w^d in w = p1, of order len(coeffs) - 1."""
    return PSeries({mono([(1, d)]): c for d, c in enumerate(coeffs)}, len(coeffs) - 1)


def test_specialize_partition_function_order_three():
    psi = principal_specialize(partition_function(CorrelatorTable(), 3))
    assert psi == W(
        Fraction(1),
        Fraction(1, 8),
        Fraction(9, 128),
        Fraction(75, 1024),
    )


def test_specialize_constant():
    assert principal_specialize(PSeries.one(3)) == W(1, 0, 0, 0)


def test_specialize_free_energy_order_two():
    spec = principal_specialize(free_energy(CorrelatorTable(), 2))
    assert spec == W(0, Fraction(1, 8), Fraction(1, 16))


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


def test_wave_series_recurrence_matches_closed_form():
    # the recurrence in s = SEED against ((2d-1)!!)^2 / (8^d d!), through every order a key holds
    for order in range(LIMIT + 1):
        assert wave_series(order) == W(*(wave_coeff(d) for d in range(order + 1)))


def test_wave_series_matches_specialised_partition_function():
    psi = principal_specialize(partition_function(CorrelatorTable(), 8))
    assert psi == wave_series(8)


def test_quantum_curve_residual_closed_form():
    res = quantum_curve_residual(wave_series(20))
    assert res.order == 19
    assert res.is_zero()


def test_quantum_curve_residual_constant_is_not_a_solution():
    res = quantum_curve_residual(W(1, 0))
    assert res.coefficient(()) == Fraction(1, 8)


def test_quantum_curve_residual_from_specialisation():
    psi = principal_specialize(partition_function(CorrelatorTable(), 8))
    assert quantum_curve_residual(psi).is_zero()


@st.composite
def w_series(draw):
    """A random series in w = p1 of order 1..12, zero coefficients included."""
    order = draw(st.integers(1, 12))
    coeffs = draw(
        st.lists(
            st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
            min_size=order + 1,
            max_size=order + 1,
        )
    )
    return W(*coeffs)


@PROPERTY
@given(w_series())
def test_quantum_curve_residual_matches_recurrence(psi):
    # the operator form against the coefficient recurrence, its reference
    a = [psi.coefficient([(1, d)]) for d in range(psi.order + 1)]
    expected = W(
        *(
            (Fraction(d * (d + 1), 2) + Fraction(1, 8)) * a[d] - (d + 1) * a[d + 1]
            for d in range(psi.order)
        )
    )
    assert quantum_curve_residual(psi) == expected


def test_sk_identity():
    t = CorrelatorTable()
    assert sk_identity_report(t, partition_function(t, 3))["status"] == "pass"
    assert sk_identity_report(t, partition_function(t, 6))["status"] == "pass"
    assert sk_identity_report(t, partition_function(t, 8))["status"] == "pass"


def test_sk_identity_first_levels_by_hand():
    # w^1: -1/8 on both sides; w^0: nothing contributes
    t = CorrelatorTable()
    log_psi = principal_specialize(partition_function(t, 3)).log()
    assert log_psi.coefficient(()) == 0
    assert -log_psi.coefficient([(1, 1)]) == -t.value(1, (1,))


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105
    assert double_factorial(1) == 1
    assert double_factorial(8) == 384


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_quantum_curve_residual_needs_order_one():
    with pytest.raises(ValueError):
        quantum_curve_residual(W(1))
