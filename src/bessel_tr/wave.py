"""The wave function and its quantum-curve residuals.

The principal specialisation p_i = z^(-i) collapses the graded series to a
single variable: a term of weighted degree d specialises to (hbar/z)^d, so
everything here lives in truncated power series in w = hbar/z.

The wave function psi = Z|_{p_i = z^(-i)} satisfies

    1/2 z^2 psi'' + z^2/hbar psi' + 1/8 psi = 0,

which in coefficients reads (d(d+1)/2 + 1/8) a_d - (d+1) a_{d+1} = 0 and
yields the closed form a_d = ((2d-1)!!)^2 / (8^d d!).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .correlators import CorrelatorTable, odd_partitions
from .formal import double_factorial
from .pseries import PSeries, exp_slices, log_slices, mono, mono_degree


def _scalar_mul_add(acc: Fraction, q: Fraction, a: Fraction, b: Fraction) -> Fraction:
    return acc + q * a * b


class OneVarSeries:
    """Truncated power series sum a_d w^d with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> Fraction:
        return self.coeffs[d]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __sub__(self, other: "OneVarSeries") -> "OneVarSeries":
        n = min(self.order, other.order)
        return OneVarSeries([self.coeffs[d] - other.coeffs[d] for d in range(n + 1)])

    def exp(self) -> "OneVarSeries":
        """exp by the Euler recursion of `pseries.exp_slices`, one
        coefficient per slice."""
        if self.coeffs[0]:
            raise ValueError("exp needs a zero constant term")
        return OneVarSeries(exp_slices(self.coeffs, Fraction(1), Fraction, _scalar_mul_add))

    def log(self) -> "OneVarSeries":
        """log by the Euler recursion of `pseries.log_slices`."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        return OneVarSeries(log_slices(self.coeffs, Fraction, _scalar_mul_add))

    def to_json_dict(self) -> dict:
        return {"var": "hbar_over_z", "coeffs": [str(c) for c in self.coeffs]}

    def __eq__(self, other) -> bool:
        return isinstance(other, OneVarSeries) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        return f"OneVarSeries({[str(c) for c in self.coeffs]})"


def principal_specialize(series: PSeries) -> OneVarSeries:
    """Substitute p_i = z^(-i): a term of weighted degree d lands on w^d."""
    out = [Fraction(0)] * (series.order + 1)
    for m, c in series.terms.items():
        out[mono_degree(m)] += c
    return OneVarSeries(out)


def wave_coeff(d: int) -> Fraction:
    """Closed form ((2d-1)!!)^2 / (8^d d!) of the wave-function coefficient."""
    if d < 0:
        raise ValueError("coefficient index must be non-negative")
    return Fraction(double_factorial(2 * d - 1) ** 2, 8**d * factorial(d))


def wave_series(order: int) -> OneVarSeries:
    return OneVarSeries([wave_coeff(d) for d in range(order + 1)])


def quantum_curve_residual(psi: OneVarSeries) -> OneVarSeries:
    """Coefficients of (1/2 z^2 d^2/dz^2 + z^2/hbar d/dz + 1/8) psi.

    The derivative-over-hbar term shifts both levels down by one, so the
    w^d coefficient is (d(d+1)/2 + 1/8) a_d - (d+1) a_{d+1}, reliable
    through order psi.order - 1.
    """
    if psi.order < 1:
        raise ValueError("need at least two coefficients to form the residual")
    return OneVarSeries(
        [
            (Fraction(d * (d + 1), 2) + Fraction(1, 8)) * psi.coefficient(d)
            - (d + 1) * psi.coefficient(d + 1)
            for d in range(psi.order)
        ]
    )


def sk_identity_check(table: CorrelatorTable, Z: PSeries) -> bool:
    """log of the specialised partition function Z under hbar -> -hbar
    against the (-1)^n-weighted correlator sums of `table`, one hbar-power
    at a time through Z.order."""
    log_psi = principal_specialize(Z).log()
    for d in range(Z.order + 1):
        lhs = log_psi.coefficient(d) * (-1) ** d
        rhs = Fraction(0)
        for parts in odd_partitions(d):
            n = len(parts)
            g = (d - n) // 2 + 1
            u = table.value(g, parts)
            if not u:
                continue
            orderings = factorial(n) // prod(factorial(c) for _, c in mono((p, 1) for p in parts))
            rhs += Fraction((-1) ** n, factorial(n)) * u * orderings
        if lhs != rhs:
            return False
    return True
