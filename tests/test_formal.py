import random
from fractions import Fraction

import pytest

from bessel_tr.formal import LaurentPoly, double_factorial


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105
    assert double_factorial(1) == 1
    assert double_factorial(8) == 384


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_reflect_examples():
    z = LaurentPoly({1: 1})
    assert z.reflect() == LaurentPoly({1: -1})
    a = LaurentPoly({-1: 1, 2: 1})
    assert a.reflect() == LaurentPoly({-1: -1, 2: 1})
    assert LaurentPoly({0: 1}).reflect() == LaurentPoly({0: 1})


def _random_poly(rng, span=6, terms=5):
    return LaurentPoly(
        {
            rng.randint(-span, span): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(terms)
        }
    )


def test_reflect_is_an_involution():
    rng = random.Random(7)
    for _ in range(50):
        a = _random_poly(rng)
        assert a.reflect().reflect() == a


def test_inverse_truncated():
    a = LaurentPoly({0: 2, 1: 1, 3: -4})
    inv = a.inverse(6)
    product: dict = {}
    for ka, va in a.coeffs.items():
        for kb, vb in inv.coeffs.items():
            product[ka + kb] = product.get(ka + kb, 0) + va * vb
    for k in range(-2, 7):
        assert product.get(k, 0) == (1 if k == 0 else 0)
    airy_like = LaurentPoly({2: 2})
    assert airy_like.inverse(0) == LaurentPoly({-2: Fraction(1, 2)})


def test_inverse_of_zero_rejected():
    cancelled = LaurentPoly({-1: 5}) + LaurentPoly({-1: -5})
    assert cancelled.is_zero()
    with pytest.raises(ZeroDivisionError):
        cancelled.inverse(3)
