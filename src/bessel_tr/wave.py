"""The wave function and its quantum-curve residuals.

The principal specialisation p_i = z^(-i) collapses the graded series to a
single variable: a term of weighted degree d specialises to (hbar/z)^d, so
everything here lives in truncated power series in w = hbar/z.

The wave function psi = Z|_{p_i = z^(-i)} satisfies

    1/2 z^2 psi'' + z^2/hbar psi' + 1/8 psi = 0,

which in coefficients reads (d(d+1)/2 + 1/8) a_d - (d+1) a_{d+1} = 0 and
yields the closed form a_d = ((2d-1)!!)^2 / (8^d d!). Conjugating by
exp(z/hbar) z^(-1/2) (never represented as a series) turns the equation
into the modified Bessel form; acting on psi the conjugated operator
reduces algebraically to

    hbar^2 z^2 psi'' + 2 hbar z^2 psi' + hbar^2/4 psi,

an overall hbar^2 times a series in w, equal to twice the first residual
term for term.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .correlators import CorrelatorTable, odd_partitions
from .formal import double_factorial
from .pseries import PSeries, mono, mono_degree, partition_function


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

    def truncated(self, order: int) -> "OneVarSeries":
        return OneVarSeries(self.coeffs[: order + 1])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "OneVarSeries") -> "OneVarSeries":
        n = min(self.order, other.order)
        return OneVarSeries([self.coeffs[d] + other.coeffs[d] for d in range(n + 1)])

    def __sub__(self, other: "OneVarSeries") -> "OneVarSeries":
        n = min(self.order, other.order)
        return OneVarSeries([self.coeffs[d] - other.coeffs[d] for d in range(n + 1)])

    def __mul__(self, other):
        if isinstance(other, OneVarSeries):
            n = min(self.order, other.order)
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs[: n + 1]):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    out[i + j] += a * other.coeffs[j]
            return OneVarSeries(out)
        scalar = Fraction(other)
        return OneVarSeries([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def exp(self) -> "OneVarSeries":
        if self.coeffs[0]:
            raise ValueError("exp needs a zero constant term")
        out = [Fraction(1)] + [Fraction(0)] * self.order
        for d in range(1, self.order + 1):
            acc = sum((k * self.coeffs[k] * out[d - k] for k in range(1, d + 1)), Fraction(0))
            out[d] = acc / d
        return OneVarSeries(out)

    def log(self) -> "OneVarSeries":
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        out = [Fraction(0)] * (self.order + 1)
        for d in range(1, self.order + 1):
            acc = sum((k * out[k] * self.coeffs[d - k] for k in range(1, d)), Fraction(0))
            out[d] = self.coeffs[d] - acc / d
        return OneVarSeries(out)

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


def conjugated_residual(psi: OneVarSeries) -> OneVarSeries:
    """The modified-Bessel operator conjugated back onto psi.

    Substituting exp(z/hbar) z^(-1/2) psi into
    hbar^2 z^2 (.)'' + hbar^2 z (.)' - z^2 (.) reduces to
    hbar^2 z^2 psi'' + 2 hbar z^2 psi' + hbar^2/4 psi, i.e. hbar^2 times a
    w-series whose coefficients this returns: twice the plain residual.
    """
    if psi.order < 1:
        raise ValueError("need at least two coefficients to form the residual")
    return OneVarSeries(
        [
            (Fraction(d * (d + 1)) + Fraction(1, 4)) * psi.coefficient(d)
            - 2 * (d + 1) * psi.coefficient(d + 1)
            for d in range(psi.order)
        ]
    )


def sk_identity_check(table: CorrelatorTable, order: int) -> bool:
    """log of the specialised partition function under hbar -> -hbar against
    the (-1)^n-weighted correlator sums, one hbar-power at a time."""
    log_psi = principal_specialize(partition_function(table, order)).log()
    for d in range(order + 1):
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
