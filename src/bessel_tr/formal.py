"""Exact arithmetic building blocks.

Big rationals (`fractions.Fraction`), double factorials, and the truncated
reciprocal of a one-variable Laurent polynomial given as an
{exponent: coefficient} map. Everything downstream is built on these; no
floating point exists anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction

class ConsistencyError(RuntimeError):
    """An internal invariant was violated (asymmetric tensor, failed
    built-in cross-check). Never raised on valid input."""


def double_factorial(n: int) -> int:
    """n(n-2)(n-4)... down to 1 or 2, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def reciprocal(coeffs: dict, max_exponent: int) -> dict:
    """Truncated reciprocal of sum_k coeffs[k] z^k: the nonzero coefficients
    of its inverse on all exponents <= max_exponent.

    Writes the polynomial as c z^v (1 + t) with t supported on positive
    exponents and expands the geometric series; terminates because every
    extra factor of t raises the minimum exponent.
    """
    coeffs = {k: c for k, c in coeffs.items() if c}
    if not coeffs:
        raise ZeroDivisionError("the zero polynomial has no reciprocal")
    v = min(coeffs)
    lead = Fraction(coeffs[v])
    cap = max_exponent + v
    if cap < 0:
        return {}
    tail = {k - v: c / lead for k, c in coeffs.items() if k != v and k - v <= cap}
    acc = {0: Fraction(1)}
    power = {0: Fraction(1)}
    while power and tail:
        nxt: dict = {}
        for ka, va in power.items():
            for kb, vb in tail.items():
                k = ka + kb
                if k <= cap:
                    nxt[k] = nxt.get(k, Fraction(0)) - va * vb
        power = {k: c for k, c in nxt.items() if c}
        for k, c in power.items():
            acc[k] = acc.get(k, Fraction(0)) + c
    return {k - v: c / lead for k, c in acc.items() if c}
