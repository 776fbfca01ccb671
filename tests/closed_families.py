"""The genus <= 4 closed-form families of the correlator coefficients and the
closed form of the wave coefficients: test reference data, compared against
the closed recursion and the wave function's recurrence."""

from fractions import Fraction
from math import factorial

from bessel_tr.correlators import canonical_parts

_CLOSED_FAMILIES: dict[tuple[int, tuple[int, ...]], tuple[Fraction, int]] = {
    (1, ()): (Fraction(1, 2**3), -1),
    (2, (3,)): (Fraction(3, 2**8), 1),
    (3, (5,)): (Fraction(15, 2**13), 3),
    (3, (3, 3)): (Fraction(21, 5 * 2**12), 3),
    (4, (7,)): (Fraction(175, 2**19), 5),
    (4, (5, 3)): (Fraction(575, 7 * 2**19), 5),
    (4, (3, 3, 3)): (Fraction(2407, 105 * 2**18), 5),
}


def closed_form(g: int, shape, n: int) -> Fraction:
    """Tabulated factorial formula for one of the seven genus <= 4 families.

    `shape` lists the parts larger than one; the full index is shape padded
    with ones up to n parts. Untabulated (g, shape) pairs are rejected.
    """
    shape = canonical_parts(shape)
    family = _CLOSED_FAMILIES.get((g, shape))
    if family is None:
        raise ValueError(f"no tabulated family for genus {g} with shape {shape}")
    if n < max(len(shape), 1):
        raise ValueError(f"need at least {max(len(shape), 1)} parts, got n={n}")
    coeff, shift = family
    return coeff * factorial(n + shift)


def family_parts(shape, n: int) -> tuple[int, ...]:
    """The full index of a closed-form family: shape padded with ones."""
    shape = canonical_parts(shape)
    return shape + (1,) * (n - len(shape))


def double_factorial(n: int) -> int:
    """n(n-2)(n-4)... down to 1 or 2, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def wave_coeff(d: int) -> Fraction:
    """Closed form ((2d-1)!!)^2 / (8^d d!) of the wave-function coefficient."""
    if d < 0:
        raise ValueError("coefficient index must be non-negative")
    return Fraction(double_factorial(2 * d - 1) ** 2, 8**d * factorial(d))
