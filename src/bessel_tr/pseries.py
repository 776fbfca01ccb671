"""Sparse exact polynomial algebra in the odd variables p1, p3, p5, ...

Terms are graded by weighted degree (sum of variable index times exponent),
and every series carries a truncation order: arithmetic discards terms of
higher weighted degree. The grading doubles as the hbar-exponent of every
term of the free energy and partition function, so hbar is never stored;
even-index variables are unrepresentable by construction.

Monomials are tuples ((index, exponent), ...) sorted by descending index.
The canonical term order is graded, then lexicographic by descending
variable index. exp and log run one Euler recursion over degree slices.

This is the one series type: the specialised wave function of `wave` is a
series in p1 alone, standing for w = hbar/z.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .correlators import CorrelatorTable, support_keys

Mono = tuple


def mono(pairs) -> Mono:
    """Build a monomial key from (index, exponent) pairs."""
    merged: dict[int, int] = {}
    for i, e in pairs:
        i, e = int(i), int(e)
        if e == 0:
            continue
        if i < 1 or i % 2 == 0:
            raise ValueError(f"variable index must be odd and positive, got {i}")
        if e < 0:
            raise ValueError(f"negative exponent for p{i}")
        merged[i] = merged.get(i, 0) + e
    return tuple(sorted(merged.items(), reverse=True))


def mono_mul(a: Mono, b: Mono) -> Mono:
    merged = dict(a)
    for i, e in b:
        merged[i] = merged.get(i, 0) + e
    return tuple(sorted(merged.items(), reverse=True))


def mono_degree(m: Mono) -> int:
    return sum(i * e for i, e in m)


def mono_sort_key(m: Mono):
    return (mono_degree(m), tuple((-i, -e) for i, e in m))


def mono_str(m: Mono) -> str:
    if not m:
        return "1"
    return "*".join(f"p{i}" if e == 1 else f"p{i}^{e}" for i, e in m)


def mono_json(m: Mono) -> dict:
    """JSON form of a monomial: {"index": exponent} by ascending index."""
    return {str(i): e for i, e in sorted(m)}


def _slice_mul_add(acc: dict, q: Fraction, a: dict, b: dict) -> None:
    """acc += q a b for degree slices held as {mono: coeff}; zero sums are
    dropped when the slices become a series."""
    for ma, ca in a.items():
        qa = q * ca
        for mb, cb in b.items():
            key = mono_mul(ma, mb)
            acc[key] = acc.get(key, 0) + qa * cb


class PSeries:
    """Truncated element of Q[p1, p3, p5, ...], graded by weighted degree."""

    __slots__ = ("order", "terms")

    def __init__(self, terms: dict | None = None, order: int = 0):
        self.order = int(order)
        cleaned: dict[Mono, Fraction] = {}
        for m, c in (terms or {}).items():
            c = Fraction(c)
            if c and mono_degree(m) <= self.order:
                cleaned[m] = c
        self.terms = cleaned

    @classmethod
    def one(cls, order: int) -> "PSeries":
        return cls({(): Fraction(1)}, order)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m) -> Fraction:
        if not isinstance(m, tuple) or (m and not isinstance(m[0], tuple)):
            m = mono(m)
        return self.terms.get(m, Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def truncated(self, order: int) -> "PSeries":
        """Drop terms of weighted degree above `order`; negative means empty."""
        if order < 0:
            return PSeries({}, 0)
        return PSeries(self.terms, order)

    def restrict(self, indices) -> "PSeries":
        """Set every variable outside `indices` to zero."""
        keep = set(indices)
        return PSeries(
            {m: c for m, c in self.terms.items() if all(i in keep for i, _ in m)},
            self.order,
        )

    def partial(self, index: int) -> "PSeries":
        """Formal partial derivative by p_index; the truncation order is kept."""
        if index < 1 or index % 2 == 0:
            raise ValueError(f"variable index must be odd and positive, got {index}")
        out: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            md = dict(m)
            e = md.get(index)
            if not e:
                continue
            if e == 1:
                md.pop(index)
            else:
                md[index] = e - 1
            key = tuple(sorted(md.items(), reverse=True))
            out[key] = out.get(key, Fraction(0)) + c * e
        return PSeries(out, self.order)

    def __add__(self, other: "PSeries") -> "PSeries":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return PSeries(out, min(self.order, other.order))

    def __neg__(self) -> "PSeries":
        return PSeries({m: -c for m, c in self.terms.items()}, self.order)

    def __sub__(self, other: "PSeries") -> "PSeries":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PSeries):
            scalar = Fraction(other)
            return PSeries({m: c * scalar for m, c in self.terms.items()}, self.order)
        order = min(self.order, other.order)
        out: dict[Mono, Fraction] = {}
        for ma, ca in self.terms.items():
            da = mono_degree(ma)
            for mb, cb in other.terms.items():
                if da + mono_degree(mb) > order:
                    continue
                key = mono_mul(ma, mb)
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return PSeries(out, order)

    __rmul__ = __mul__

    def slices(self) -> list[dict]:
        """Terms bucketed by weighted degree: slot d holds the degree-d terms."""
        out: list[dict] = [{} for _ in range(max(self.order, 0) + 1)]
        for m, c in self.terms.items():
            out[mono_degree(m)][m] = c
        return out

    @classmethod
    def from_slices(cls, slices: list[dict], order: int) -> "PSeries":
        return cls({m: c for s in slices for m, c in s.items()}, order)

    def exp(self) -> "PSeries":
        """exp by the Euler recursion over degree slices; requires zero
        constant term.

        The Euler operator E = sum_i i p_i d/dp_i multiplies a slice of
        weighted degree d by d and is a derivation, so E exp F = (E F) exp F
        reads

            d Z_d = sum_{k=1}^{d} k F_k Z_{d-k},   Z_0 = 1,

        one slice product per (d, k).
        """
        if self.constant_term():
            raise ValueError("exp needs a zero constant term")
        f = self.slices()
        z = [{(): Fraction(1)}]
        for d in range(1, len(f)):
            acc: dict = {}
            for k in range(1, d + 1):
                if f[k]:
                    _slice_mul_add(acc, Fraction(k, d), f[k], z[d - k])
            z.append(acc)
        return PSeries.from_slices(z, self.order)

    def log(self) -> "PSeries":
        """log by the recursion of `exp` solved for F_d,

            F_d = Z_d - (1/d) sum_{k=1}^{d-1} k F_k Z_{d-k};

        requires constant term exactly 1.
        """
        if self.constant_term() != 1:
            raise ValueError("log needs constant term 1")
        z = self.slices()
        f: list[dict] = [{}]
        for d in range(1, len(z)):
            acc = dict(z[d])
            for k in range(1, d):
                if f[k]:
                    _slice_mul_add(acc, Fraction(-k, d), f[k], z[d - k])
            f.append(acc)
        return PSeries.from_slices(f, self.order)

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: mono_sort_key(kv[0]))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "terms": [
                {"mono": mono_json(m), "coeff": str(c)}
                for m, c in self.sorted_terms()
            ],
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PSeries)
            and self.order == other.order
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return f"PSeries(0; order={self.order})"
        body = " + ".join(f"{c}*{mono_str(m)}" for m, c in self.sorted_terms())
        return f"PSeries({body}; order={self.order})"


def free_energy(table: CorrelatorTable, order: int) -> PSeries:
    """Generating series of the correlator coefficients, truncated at `order`.

    The coefficient of prod p_i^{k_i} is the coefficient value divided by the
    product of the multiplicities' factorials: summing over ordered index
    tuples with 1/n! collapses to that on sorted representatives. The
    weighted degree is 2g - 2 + n, so the support through `order` is exactly
    the terms the truncation keeps.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    terms: dict[Mono, Fraction] = {}
    for g, parts in support_keys(order):
        u = table.value(g, parts)
        if not u:
            continue
        key = mono((p, 1) for p in parts)
        terms[key] = u / prod(factorial(c) for _, c in key)
    return PSeries(terms, order)


def partition_function(table: CorrelatorTable, order: int) -> PSeries:
    """exp of the free energy, truncated at `order`."""
    return free_energy(table, order).exp()
