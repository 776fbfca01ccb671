"""The wave function and its quantum-curve residual.

The principal specialisation p_i = z^(-i) sends a term of weighted degree d
to (hbar/z)^d. It preserves degree, so it is a ring map from the graded
series ring into its own p1-only part: the wave function is a `PSeries` in p1
alone, standing for w = hbar/z, with w^d keyed as p1^d, `d * P1`.

The wave function psi = Z|_{p_i = z^(-i)} satisfies

    1/2 z^2 psi'' + z^2/hbar psi' + s psi = 0,  s = SEED = 1/8,

which under z = hbar/w reads 1/2 w^2 psi'' + w psi' + s psi - psi' = 0 with
derivatives in w. In coefficients that is (d(d+1)/2 + s) a_d - (d+1) a_{d+1}
= 0 with a_0 = 1, the recurrence `wave_series` runs; at s = 1/8 it solves to
((2d-1)!!)^2 / (8^d d!), since d(d+1)/2 + 1/8 = (2d+1)^2/8.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .correlators import SEED
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


def wave_series(order: int) -> PSeries:
    """a_0, ..., a_order from the recurrence (d + 1) a_{d+1} = (d(d+1)/2 + s) a_d, a_0 = 1,
    for s = SEED = p/q, over (2q)^order order!: a_d (2q)^d d! = prod_{j<d} (q j(j+1) + 2p)."""
    top, (p, q) = _order(order), SEED.as_integer_ratio()
    nums, lead = {}, 1
    for d in range(top + 1):
        nums[d * P1] = lead * (2 * q) ** (top - d) * perm(top, top - d)
        lead *= q * d * (d + 1) + 2 * p
    return PSeries._of(nums, (2 * q) ** top * factorial(top), top)


_QUANTUM_CURVE = operator_table(
    [
        (Fraction(1, 2), [(1, 2)], [(1, 2)]),
        (1, [(1, 1)], [(1, 1)]),
        (SEED, [], []),
        (-1, [], [(1, 1)]),
    ]
)


def quantum_curve_residual(psi: PSeries) -> PSeries:
    """1/2 w^2 psi'' + w psi' + s psi - psi' for a series psi in w = p1, that
    is (1/2 z^2 d^2/dz^2 + z^2/hbar d/dz + s) psi. The lone psi' lowers
    every degree by one, so the residual is reliable through psi.order - 1.
    """
    if psi.order < 1:
        raise ValueError("need at least two coefficients to form the residual")
    return psi.apply(_QUANTUM_CURVE).truncated(psi.order - 1)

