"""Sparse exact polynomial algebra in the odd variables p1, p3, p5, ...

Terms are graded by weighted degree (sum of variable index times exponent),
and every series carries a truncation order: arithmetic discards terms of
higher weighted degree. The grading doubles as the hbar-exponent of every
term of the free energy and partition function, so hbar is never stored;
even-index variables are unrepresentable by construction.

Monomials are tuples ((index, exponent), ...) sorted by descending index,
so a product of two is one merge. The canonical term order is graded, then
lexicographic by descending variable index. exp and log run one Euler
recursion over degree slices. Products, operator application (one kernel
that visits only the table rows acting on a term), the commutator `bracket`
of two operator tables, exp and log loop over integer numerators on a
common denominator; every coefficient they return is a `Fraction`.

This is the one series type: the specialised wave function of `wave` is a
series in p1 alone, standing for w = hbar/z.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm, perm, prod

from .correlators import CorrelatorTable, multiplicity_weight, support_keys

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
    """The product of two monomials: one merge of their descending pairs."""
    if not (a and b):
        return a or b
    out, x, n = [], 0, len(a)
    for v, e in b:
        while x < n and a[x][0] > v:
            out.append(a[x])
            x += 1
        if x < n and a[x][0] == v:
            e += a[x][1]
            x += 1
        out.append((v, e))
    return (*out, *a[x:])


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


def _over(coeffs: dict) -> tuple[int, dict]:
    """(D, {key: n}) with coeffs[key] = n / D, D the lcm of the denominators."""
    D = lcm(*{c.denominator for c in coeffs.values()})
    return D, {k: c.numerator * (D // c.denominator) for k, c in coeffs.items()}


def _table_over(table: dict) -> tuple[int, dict]:
    """`_over` for an operator table {B: {A: c}}, one D for every row."""
    D = lcm(*{c.denominator for row in table.values() for c in row.values()})
    rows = table.items()
    return D, {b: {a: c.numerator * (D // c.denominator) for a, c in r.items()} for b, r in rows}


def _graded(nums: dict, order: int) -> list[dict]:
    """Terms bucketed by weighted degree: slot d holds the degree-d terms."""
    out: list[dict] = [{} for _ in range(max(order, 0) + 1)]
    for m, n in nums.items():
        out[mono_degree(m)][m] = n
    return out


def _mul_add(acc: dict, q: int, a: dict, b: dict) -> None:
    """acc += q a b for integer slices {mono: numerator}; zero sums stay."""
    for ma, ca in a.items():
        qa = q * ca
        for mb, cb in b.items():
            key = mono_mul(ma, mb)
            acc[key] = acc.get(key, 0) + qa * cb


def _lowered(m: Mono, x: int) -> Mono:
    """m divided by the variable at position x."""
    v, e = m[x]
    return m[:x] + ((v, e - 1),) + m[x + 1 :] if e > 1 else m[:x] + m[x + 1 :]


def _rows(table: dict) -> tuple[int, tuple]:
    """(D, (const, single, pairs)) of a table {B: {A: n / D}}, rows as
    ((A, n), ...): B = 1, d_v and d_v^2 at (v, 1) and (v, 2), d_v d_w at [v][w]."""
    D, nums = _table_over(table)
    const, single, pairs = (), {}, {}
    for b, row in nums.items():
        row = tuple(row.items())
        if len(b) == 2:
            pairs.setdefault(b[0][0], {})[b[1][0]] = row
        elif b:
            single[b[0]] = row
        else:
            const = row
    return D, (const, single, pairs)


def _apply_nums(nums: dict, rows: tuple) -> dict:
    """The operator of `_rows` on {m: n} over both denominators, zero sums
    kept; m is lowered only by the rows d_v, d_v^2, d_v d_w that act on it."""
    const, single, pairs = rows
    out: dict[Mono, int] = {}
    for m, c in nums.items():
        hits = [(m, c, const)]
        for x, (v, e) in enumerate(m):
            if (v, 1) in single:
                hits.append((_lowered(m, x), c * e, single[v, 1]))
            if e > 1 and (v, 2) in single:
                hits.append((_lowered(_lowered(m, x), x), c * e * (e - 1), single[v, 2]))
            by_w = pairs.get(v)
            for y in range(x + 1, len(m)) if by_w else ():
                w, f = m[y]
                if w in by_w:
                    hits.append((_lowered(_lowered(m, y), x), c * e * f, by_w[w]))
        for rest, cf, row in hits:
            for a, q in row:
                key = mono_mul(rest, a)
                out[key] = out.get(key, 0) + cf * q
    return out


def operator_table(terms) -> dict:
    """The operator sum c p^A d^B over `terms` given as (c, A pairs, B pairs),
    as the table {B: {A: c}} that `PSeries.apply` reads. Keys are normalised
    by `mono`, so d_i d_j and d_j d_i meet on one B, i = j gives d_i^2, and
    the coefficients of equal (A, B) add up."""
    table: dict = {}
    for c, a, b in terms:
        b, a = mono(b), mono(a)
        if sum(e for _, e in b) > 2:
            raise ValueError(f"derivative order above 2: {mono_str(b)}")
        row = table.setdefault(b, {})
        row[a] = row.get(a, 0) + Fraction(c)
    return table


def _contractions(a: Mono, b: Mono):
    """(k, a / C, b / C) for every common divisor C != 1 of a and b: the terms
    of d^b p^a = sum_C k p^(a / C) d^(b / C) other than p^a d^b itself."""
    da = dict(a)
    common = [i for i, _ in b if i in da]
    if not common:
        return
    db = dict(b)
    for cs in product(*(range(min(da[i], db[i]) + 1) for i in common)):
        if not any(cs):
            continue
        k = prod(comb(db[i], c) * perm(da[i], c) for i, c in zip(common, cs))
        lowered = dict(zip(common, cs))
        yield (
            k,
            mono((i, e - lowered.get(i, 0)) for i, e in a),
            mono((i, e - lowered.get(i, 0)) for i, e in b),
        )


def bracket(x: dict, y: dict, top: int) -> dict:
    """The commutator x o y - y o x of two tables {B: {A: c}}, normal
    ordered, as the table {B: {A: c}} of its terms whose derivative monomial
    has degree <= top, with no zero coefficient and no empty row. The sums
    run over integer numerators on one denominator.

    Moving the outer factor's d^B1 past the inner factor's p^A2 by the
    Leibniz rule,

        d^B1 p^A2 = sum_C prod_i binom(B1_i, C_i) (A2_i)_{C_i} p^(A2 - C) d^(B1 - C),

    over C <= B1, A2 componentwise. The C = 1 terms of x o y and y o x are
    both c1 c2 p^(A1 + A2) d^(B1 + B2) and cancel, so only the contractions
    C != 1 are summed. The result reaches derivative order 4, which
    `PSeries.apply` does not look up; it is only compared, never applied."""
    d_x, x = _table_over(x)
    d_y, y = _table_over(y)
    out: dict = {}
    for sign, outer, inner in ((1, x, y), (-1, y, x)):
        for b1, row1 in outer.items():
            for b2, row2 in inner.items():
                for a2, c2 in row2.items():
                    for k, a, b in _contractions(a2, b1):
                        b = mono_mul(b, b2)
                        if mono_degree(b) > top:
                            continue
                        row = out.setdefault(b, {})
                        kc = sign * k * c2
                        for a1, c1 in row1.items():
                            key = mono_mul(a1, a)
                            row[key] = row.get(key, 0) + kc * c1
    den = d_x * d_y
    rows = ((b, {a: Fraction(n, den) for a, n in row.items() if n}) for b, row in out.items())
    return {b: row for b, row in rows if row}


class PSeries:
    """Truncated element of Q[p1, p3, p5, ...], graded by weighted degree."""

    __slots__ = ("order", "terms")

    def __init__(self, terms: dict | None = None, order: int = 0):
        self.order = int(order)
        cleaned: dict[Mono, Fraction] = {}
        for m, c in (terms or {}).items():
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c and mono_degree(m) <= self.order:
                cleaned[m] = c
        self.terms = cleaned

    @classmethod
    def one(cls, order: int) -> "PSeries":
        return cls({(): Fraction(1)}, order)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m) -> Fraction:
        """Coefficient of the monomial given as (index, exponent) pairs."""
        return self.terms.get(mono(m), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def truncated(self, order: int) -> "PSeries":
        """Drop terms of degree above `order`, never raising the order; negative means empty."""
        if order < 0:
            return PSeries({}, 0)
        return PSeries(self.terms, min(order, self.order))

    def restrict(self, indices) -> "PSeries":
        """Set every variable outside `indices` to zero."""
        keep = set(indices)
        return PSeries(
            {m: c for m, c in self.terms.items() if all(i in keep for i, _ in m)},
            self.order,
        )

    def partial(self, index: int) -> "PSeries":
        """Formal partial derivative by p_index; the truncation order is kept."""
        mono([(index, 1)])  # rejects an index that is even or not positive
        out = {}
        for m, c in self.terms.items():
            for x, (v, e) in enumerate(m):
                if v == index:
                    out[_lowered(m, x)] = c * e
                    break
        return PSeries(out, self.order)

    def apply(self, table: dict) -> "PSeries":
        """Apply the normal-ordered operator sum_B (sum_A c p^A) d^B, derivatives
        first, given as the table {B: {A: c}} of `operator_table`, through the
        kernel `_apply_nums`: a term's cost grows with the rows that act on
        it, not with the table size. The truncation order is kept."""
        d_self, nums = _over(self.terms)
        d_table, rows = _rows(table)
        out = _apply_nums(nums, rows)
        return PSeries({m: Fraction(n, d_self * d_table) for m, n in out.items() if n}, self.order)

    def __add__(self, other: "PSeries") -> "PSeries":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return PSeries(out, min(self.order, other.order))

    def __sub__(self, other: "PSeries") -> "PSeries":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] - c if m in out else -c
        return PSeries(out, min(self.order, other.order))

    def __mul__(self, other):
        if not isinstance(other, PSeries):
            scalar = Fraction(other)
            return PSeries({m: c * scalar for m, c in self.terms.items()}, self.order)
        order = min(self.order, other.order)
        d_a, a = _over(self.terms)
        d_b, b = _over(other.terms)
        a, b = _graded(a, self.order), _graded(b, other.order)
        out: dict[Mono, int] = {}
        for da in range(order + 1):
            for db in range(order + 1 - da):
                _mul_add(out, 1, a[da], b[db])
        return PSeries({m: Fraction(n, d_a * d_b) for m, n in out.items() if n}, order)

    __rmul__ = __mul__

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
        return self._euler(log=False)

    def log(self) -> "PSeries":
        """log by the recursion of `exp` solved for F_d,

            F_d = Z_d - (1/d) sum_{k=1}^{d-1} k F_k Z_{d-k};

        requires constant term exactly 1.
        """
        if self.constant_term() != 1:
            raise ValueError("log needs constant term 1")
        return self._euler(log=True)

    def _euler(self, log: bool) -> "PSeries":
        """o_d = [log] s_d + (1/d) sum_{k=1}^{d} w_k s_k o_{d-k} on the slices
        s of this series, for exp (w_k = k, o_0 = 1) and log (w_k = k - d,
        o_0 = 0). Slice o_d is held as integers over d D L, D the denominator
        of s and L the lcm of the slices it reads, reduced by their gcd."""
        D, nums = _over(self.terms)
        s = _graded(nums, self.order)
        o = [(1, {} if log else {(): 1})]
        for d in range(1, len(s)):
            reads = [k for k in range(1, d + 1) if s[k] and o[d - k][1]]
            L = lcm(*(o[d - k][0] for k in reads))
            acc = {m: n * d * L for m, n in s[d].items()} if log else {}
            for k in reads:
                den, prev = o[d - k]
                _mul_add(acc, (k - d if log else k) * (L // den), s[k], prev)
            den = d * D * L
            g = gcd(den, *acc.values())
            o.append((den // g, {m: n // g for m, n in acc.items() if n}))
        terms = {m: Fraction(n, den) for den, slice_ in o for m, n in slice_.items()}
        return PSeries(terms, self.order)

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
        terms[mono((p, 1) for p in parts)] = table.value(g, parts) / multiplicity_weight(parts)
    return PSeries(terms, order)


def partition_function(table: CorrelatorTable, order: int) -> PSeries:
    """exp of the free energy, truncated at `order`."""
    return free_energy(table, order).exp()
