from fractions import Fraction

import pytest

from bessel_tr.formal import double_factorial, reciprocal


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105
    assert double_factorial(1) == 1
    assert double_factorial(8) == 384


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_inverse_truncated():
    a = {0: 2, 1: 1, 3: -4}
    inv = reciprocal(a, 6)
    product: dict = {}
    for ka, va in a.items():
        for kb, vb in inv.items():
            product[ka + kb] = product.get(ka + kb, 0) + va * vb
    for k in range(-2, 7):
        assert product.get(k, 0) == (1 if k == 0 else 0)
    assert reciprocal({2: 2}, 0) == {-2: Fraction(1, 2)}


def test_inverse_of_zero_rejected():
    cancelled = {-1: Fraction(5) - 5}
    with pytest.raises(ZeroDivisionError):
        reciprocal(cancelled, 3)
    with pytest.raises(ZeroDivisionError):
        reciprocal({}, 3)
