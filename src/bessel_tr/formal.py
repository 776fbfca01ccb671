"""Exact arithmetic building blocks.

Big rationals (`fractions.Fraction`), double factorials, and one-variable
Laurent polynomials with a truncated reciprocal. Everything downstream is
built on these; no floating point exists anywhere in the package.
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


class LaurentPoly:
    """Finite-support Laurent polynomial in one variable z.

    Stored as a map from integer exponent (possibly negative) to a nonzero
    Fraction. Instances are immutable by convention; all operations return
    new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        cleaned = {}
        for k, v in (coeffs or {}).items():
            v = Fraction(v)
            if v:
                cleaned[int(k)] = v
        self.coeffs = cleaned

    def is_zero(self) -> bool:
        return not self.coeffs

    def reflect(self) -> "LaurentPoly":
        """Substitute z -> -z."""
        return LaurentPoly({k: (v if k % 2 == 0 else -v) for k, v in self.coeffs.items()})

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by z^d."""
        return LaurentPoly({k + d: v for k, v in self.coeffs.items()})

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no valuation")
        return min(self.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def inverse(self, max_exponent: int) -> "LaurentPoly":
        """Truncated reciprocal: agrees with 1/self on all exponents <= max_exponent.

        Writes self = c z^v (1 + t) with t supported on positive exponents and
        expands the geometric series; terminates because every extra factor of
        t raises the minimum exponent.
        """
        if not self.coeffs:
            raise ZeroDivisionError("the zero polynomial has no reciprocal")
        v = self.valuation()
        lead = self.coeffs[v]
        cap = max_exponent + v
        if cap < 0:
            return LaurentPoly({})
        tail = {k - v: c / lead for k, c in self.coeffs.items() if k != v and k - v <= cap}
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
        return LaurentPoly({k - v: c / lead for k, c in acc.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPoly(0)"
        parts = [f"{v}*z^{k}" for k, v in sorted(self.coeffs.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"
