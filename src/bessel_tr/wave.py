"""The wave function and its quantum-curve residual.

The principal specialisation p_i = z^(-i) sends a term of weighted degree d
to (hbar/z)^d. It preserves degree, so it is a ring map from the graded
series ring into its own p1-only part: the wave function is a `PSeries` in p1
alone, standing for w = hbar/z, with w^d keyed as p1^d, `d * P1`.

The wave function psi = Z|_{p_i = z^(-i)} satisfies

    1/2 z^2 psi'' + z^2/hbar psi' + 1/8 psi = 0,

which under z = hbar/w reads 1/2 w^2 psi'' + w psi' + psi/8 - psi' = 0 with
derivatives in w. In coefficients that is (d(d+1)/2 + 1/8) a_d - (d+1) a_{d+1}
= 0, which yields the closed form a_d = ((2d-1)!!)^2 / (8^d d!).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .pseries import MASK, P1, PSeries, _order, operator_table


def principal_specialize(series: PSeries) -> PSeries:
    """Substitute p_i = z^(-i): a term of weighted degree d lands on w^d = p1^d.
    The numerators of each degree are summed over the series' denominator."""
    out: dict = {}
    for k, n in series.nums.items():
        w = (k & MASK) * P1
        out[w] = out.get(w, 0) + n
    return PSeries._of({w: n for w, n in out.items() if n}, series.den, series.order)


def coefficients(psi: PSeries) -> list[Fraction]:
    """a_0, ..., a_order of a series sum_d a_d w^d in w = p1."""
    return [psi.coefficient([(1, d)]) for d in range(psi.order + 1)]


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


def wave_series(order: int) -> PSeries:
    """The closed form of `wave_coeff` through `order`, over 8^order order!."""
    top = _order(order)
    nums = {}
    for d in range(top + 1):  # ((2d-1)!!)^2 / (8^d d!) = ((2d-1)!!)^2 8^(top-d) (top!/d!) / den
        nums[d * P1] = double_factorial(2 * d - 1) ** 2 * 8 ** (top - d) * perm(top, top - d)
    return PSeries._of(nums, 8**top * factorial(top), top)


_QUANTUM_CURVE = operator_table(
    [
        (Fraction(1, 2), [(1, 2)], [(1, 2)]),
        (1, [(1, 1)], [(1, 1)]),
        (Fraction(1, 8), [], []),
        (-1, [], [(1, 1)]),
    ]
)


def quantum_curve_residual(psi: PSeries) -> PSeries:
    """1/2 w^2 psi'' + w psi' + psi/8 - psi' for a series psi in w = p1, that
    is (1/2 z^2 d^2/dz^2 + z^2/hbar d/dz + 1/8) psi. The lone psi' lowers
    every degree by one, so the residual is reliable through psi.order - 1.
    """
    if psi.order < 1:
        raise ValueError("need at least two coefficients to form the residual")
    return psi.apply(_QUANTUM_CURVE).truncated(psi.order - 1)

