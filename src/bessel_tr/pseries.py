"""Sparse exact polynomial algebra in the odd variables p1, p3, p5, ...

Terms are graded by weighted degree (sum of variable index times exponent),
and every series carries a truncation order: arithmetic discards terms of
higher weighted degree. The grading doubles as the hbar-exponent of every
term of the free energy and partition function, so hbar is never stored;
even-index variables are unrepresentable by construction.

A series is integer numerators over one denominator, keyed by the int
`pack(mu)`: the low W-bit field holds the degree sum(mu) and field j >= 1 the
exponent of p_{2j-1}, so a product of monomials is a sum of keys, `k & MASK`
is the degree, and d/dp_v subtracts `pack((v,))`; orders stop at LIMIT, so no
such sum carries into the next field. Every kernel (sums, products, `apply`,
one Euler recursion over degree slices for exp and log) reads and returns
that form. An operator is packed once, by `operator_table`, into the same
keys and one denominator, and `apply` and `bracket` read it as built.
`Fraction`s and the correlator table's sorted parts tuple (p1^2 p3 is (3, 1,
1)) appear only at the edges: `mono`, the public constructor, `coefficient`,
the `terms` of a series or an operator, the printed terms, the coefficients
`operator_table` takes and the terms `bracket` returns.

This is the one series type: the specialised wave function of `wave` is a
series in p1 alone, standing for w = hbar/z.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm, perm

from .correlators import CorrelatorTable, canonical_parts, multiplicity_weight, support_keys

Mono = tuple
W = 8  # bits per field of a packed key
MASK = (1 << W) - 1
LIMIT = MASK >> 1  # the highest order: keys of degree <= LIMIT add without a carry
P1 = 1 + (1 << W)  # the key of p1; p1^d is d * P1


def pack(parts) -> int:
    """The key of the monomial with these odd parts, of degree <= MASK."""
    return sum(parts) + sum(1 << W * (i + 1) // 2 for i in parts)


def unpack(k: int) -> Mono:
    """The sorted parts tuple of a packed key, read from its highest field down."""
    parts, x = [], k >> W
    while x:
        j = (x.bit_length() - 1) // W  # field j + 1 holds the exponent of p_{2j+1}
        parts += [2 * j + 1] * (x >> W * j & MASK)
        x &= (1 << W * j) - 1
    return tuple(parts)


def _order(order) -> int:
    order = operator.index(order)
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > LIMIT:
        raise ValueError(f"order {order} is above {LIMIT}, the most a packed key holds")
    return order


def mono(pairs) -> Mono:
    """Build a monomial key, the sorted parts tuple, from (index, exponent)
    pairs of integers: [(1, 2), (3, 1)] gives (3, 1, 1)."""
    parts: list[int] = []
    for i, e in pairs:
        i, e = operator.index(i), operator.index(e)
        if e == 0:
            continue
        if i < 1 or i % 2 == 0:
            raise ValueError(f"variable index must be odd and positive, got {i}")
        if e < 0:
            raise ValueError(f"negative exponent for p{i}")
        parts += [i] * e
    return canonical_parts(parts)


def mono_degree(m: Mono) -> int:
    return sum(m)


def mono_str(m: Mono) -> str:
    if not m:
        return "1"
    return "*".join(f"p{i}" if e == 1 else f"p{i}^{e}" for i, e in Counter(m).items())


def mono_json(m: Mono) -> dict:
    """JSON form of a monomial: {"index": exponent} by ascending index."""
    return {str(i): e for i, e in sorted(Counter(m).items())}


def _over(coeffs: dict) -> tuple[int, dict]:
    """(D, {key: n}) with coeffs[key] = n / D, D the lcm of the denominators."""
    D = lcm(*{c.denominator for c in coeffs.values()})
    return D, {k: c.numerator * (D // c.denominator) for k, c in coeffs.items()}


def _graded(nums: dict, order: int) -> list[dict]:
    """Terms bucketed by weighted degree: slot d holds the degree-d terms."""
    out: list[dict] = [{} for _ in range(order + 1)]
    for k, n in nums.items():
        out[k & MASK][k] = n
    return out


def _mul_add(acc: dict, q: int, a: dict, b: dict) -> None:
    """acc += q a b for integer slices {key: numerator}; zero sums stay."""
    for ka, ca in a.items():
        qa = q * ca
        for kb, cb in b.items():
            key = ka + kb
            acc[key] = acc.get(key, 0) + qa * cb


class Operator:
    """A normal-ordered operator sum c p^A d^B, derivatives first, of derivative
    order <= 2, as integer numerators over one denominator `den`, none of them
    0, in rows [(pack(A), n), ...] filed by B: `const` is the row of B = (),
    `single[v]` and `square[v]` those of d_v and d_v^2, `pairs[v][w]` that of
    d_v d_w with v > w. Built by `operator_table` only."""

    __slots__ = ("den", "const", "single", "square", "pairs")

    def _filed(self):
        """(B as its parts tuple, row) for every row."""
        yield (), self.const
        yield from (((v,), row) for v, row in self.single.items())
        yield from (((v, v), row) for v, row in self.square.items())
        yield from (((v, w), row) for v, by_w in self.pairs.items() for w, row in by_w.items())

    @property
    def terms(self) -> dict:
        """{(pack(B), pack(A)): Fraction}, a new dict on every read."""
        return {(pack(b), a): Fraction(n, self.den) for b, row in self._filed() for a, n in row}


def operator_table(terms) -> Operator:
    """The operator sum c p^A d^B over `terms` (c, A pairs, B pairs), c an int
    or a Fraction, packed once into the `Operator` that `PSeries.apply` and
    `bracket` read. Keys are normalised by `mono`, so d_i d_j and d_j d_i meet
    on one B, i = j gives d_i^2, the coefficients of equal (A, B) add up and a
    zero sum is dropped. A third derivative is refused, and so is an A or B of
    degree above LIMIT: below it, no sum of two keys carries into the next field."""
    packed = []
    for c, a, b in terms:
        a, b = mono(a), mono(b)
        if len(b) > 2:
            raise ValueError(f"derivative order above 2: {mono_str(b)}")
        if max(sum(a), sum(b)) > LIMIT:
            raise ValueError(f"degree above {LIMIT} in p^A d^B, A {mono_str(a)}, B {mono_str(b)}")
        packed.append((c.numerator, c.denominator, b, pack(a)))
    den, acc, op = lcm(*(d for _, d, _, _ in packed)), {}, Operator()
    for n, d, b, a in packed:
        acc[b, a] = acc.get((b, a), 0) + n * (den // d)
    op.den, op.const, op.single, op.square, op.pairs = den, [], {}, {}, {}
    for (b, a), n in acc.items():
        if not n:
            continue
        if len(b) == 2 and b[0] != b[1]:
            op.pairs.setdefault(b[0], {}).setdefault(b[1], []).append((a, n))
        elif b:
            (op.square if len(b) == 2 else op.single).setdefault(b[0], []).append((a, n))
        else:
            op.const.append((a, n))
    return op


def _contractions(a: int, b: Mono) -> list:
    """(k, pack(C)) for each C != 1 dividing the packed p^a and d^b, b a parts
    tuple: the terms k p^(a - C) d^(b - C) of d^b p^a other than p^a d^b."""
    cuts = [(1, 0)]
    for v in set(b):
        f, e, u = b.count(v), a >> W * (v + 1) // 2 & MASK, pack((v,))
        cs = range(min(e, f) + 1)
        cuts = [(k * comb(f, c) * perm(e, c), at + c * u) for k, at in cuts for c in cs]
    return cuts[1:]


def bracket(x: Operator, y: Operator, top: int) -> dict:
    """The commutator x o y - y o x of two operators, normal ordered, as its
    terms {(pack(B), pack(A)): c} with B of degree <= top, none of them 0,
    summed as integers over one denominator; a contraction subtracts a key.

    Moving the outer factor's d^B1 past the inner factor's p^A2 by the
    Leibniz rule,

        d^B1 p^A2 = sum_C prod_i binom(B1_i, C_i) (A2_i)_{C_i} p^(A2 - C) d^(B1 - C),

    over C <= B1, A2 componentwise. The C = 1 terms of x o y and y o x are
    both c1 c2 p^(A1 + A2) d^(B1 + B2) and cancel, so only the contractions
    C != 1 are summed. The result reaches derivative order 3, so it is no
    `Operator` and `PSeries.apply` refuses it; it is only compared."""
    out: dict = {}
    for sign, outer, inner in ((1, x, y), (-1, y, x)):
        by_var: dict = {}  # v -> {pack(B1): (B1, row)} for each outer B1 holding v
        for b1, row1 in outer._filed():
            for v in b1:
                by_var.setdefault(v, {})[pack(b1)] = b1, row1
        for b2, row2 in inner._filed():
            b2 = pack(b2)
            for a2, c2 in row2:
                hits: dict = {}  # only an outer B sharing a variable with A2 contracts with it
                for v in set(unpack(a2)):
                    hits.update(by_var.get(v, ()))
                for key1, (b1, row1) in hits.items():
                    for k, cut in _contractions(a2, b1):
                        b, rest, kc = key1 - cut + b2, a2 - cut, sign * k * c2
                        if b & MASK <= top:
                            for a1, c1 in row1:
                                out[b, a1 + rest] = out.get((b, a1 + rest), 0) + kc * c1
    den = x.den * y.den
    return {key: Fraction(n, den) for key, n in out.items() if n}


class PSeries:
    """Truncated element of Q[p1, p3, p5, ...], graded by weighted degree, held
    as integer numerators `nums` {packed key: n} over one denominator `den`,
    reduced: den > 0, gcd(den, *nums) = 1 and no n is 0, so == is value equality."""

    __slots__ = ("order", "den", "nums")

    def __init__(self, terms: dict | None = None, order: int = 0):
        """{parts tuple: c} at `order`; parts are checked as by `mono`, equal monomials add."""
        self.order = _order(order)
        packed: Counter = Counter()
        for m, c in (terms or {}).items():
            m = mono((i, 1) for i in m)
            if sum(m) <= self.order:
                packed[pack(m)] += Fraction(c)
        self.den = lcm(*(c.denominator for c in packed.values()))  # then gcd(den, *nums) is 1
        self.nums = {k: c.numerator * (self.den // c.denominator) for k, c in packed.items() if c}

    @classmethod
    def _of(cls, nums: dict, den: int, order: int) -> "PSeries":
        """A series on nonzero numerators of degree <= order over den > 0, reduced here."""
        g = gcd(den, *nums.values())
        series = cls.__new__(cls)
        series.order, series.den = order, den // g
        series.nums = {k: n // g for k, n in nums.items()} if g > 1 else nums
        return series

    @classmethod
    def _joined(cls, slices, order: int) -> "PSeries":
        """Integer slices (den, {key: n}) with disjoint keys, joined over the lcm of the dens."""
        den = lcm(*(d for d, _ in slices))
        return cls._of({k: n * (den // d) for d, s in slices for k, n in s.items()}, den, order)

    @classmethod
    def one(cls, order: int) -> "PSeries":
        return cls({(): 1}, order)

    @property
    def terms(self) -> dict:
        """{packed key: Fraction}, a new dict on every read."""
        return {k: Fraction(n, self.den) for k, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, m) -> Fraction:
        """Coefficient of the monomial given as (index, exponent) pairs."""
        m = mono(m)
        return Fraction(self.nums.get(pack(m), 0) if sum(m) <= self.order else 0, self.den)

    def truncated(self, order: int) -> "PSeries":
        """Drop terms of degree above `order`, never raising the order; negative means empty."""
        if order < 0:
            return PSeries({}, 0)
        order = min(operator.index(order), self.order)
        kept = {k: n for k, n in self.nums.items() if k & MASK <= order}
        return PSeries._of(kept, self.den, order)

    def restrict(self, indices) -> "PSeries":
        """Set every variable outside `indices` to zero."""
        fields = {MASK << W * (i + 1) // 2 for i in indices if 0 < i <= self.order and i % 2}
        drop = ~sum(fields, MASK)  # every field but the degree and the kept indices
        kept = {k: n for k, n in self.nums.items() if not k & drop}
        return PSeries._of(kept, self.den, self.order)

    def partial(self, index: int) -> "PSeries":
        """Formal partial derivative by p_index; the truncation order is kept."""
        mono([(index, 1)])  # rejects an index that is even or not positive
        shift, out = W * (index + 1) // 2, {}
        for k, n in self.nums.items():
            e = k >> shift & MASK
            if e:  # lower k by pack((index,))
                out[k - index - (1 << shift)] = n * e
        return PSeries._of(out, self.den, self.order)

    def apply(self, op: Operator) -> "PSeries":
        """Apply an `Operator` of `operator_table`, derivatives first; the
        truncation order is kept. A term is lowered only by the rows d_v, d_v^2,
        d_v d_w that act on it, found in one walk over its fields, lowest index
        first, so its cost grows with those rows, not with the table size."""
        if not isinstance(op, Operator):
            raise TypeError(f"apply takes an Operator, not a {type(op).__name__}")
        const, single, square, pairs, order = op.const, op.single, op.square, op.pairs, self.order
        out: dict[int, int] = {}
        for k, c in self.nums.items():
            hits, seen = [(k, c, const)], []
            x, v, bit = k >> W, 1, 1 << W
            while x:
                e = x & MASK
                if e:  # p_v^e: d_v lowers k by u = pack((v,))
                    u = v + bit
                    if v in single:
                        hits.append((k - u, c * e, single[v]))
                    if e > 1 and v in square:
                        hits.append((k - 2 * u, c * e * (e - 1), square[v]))
                    by_w = pairs.get(v)
                    for w, f, uw in seen if by_w else ():
                        if w in by_w:
                            hits.append((k - u - uw, c * e * f, by_w[w]))
                    seen.append((v, e, u))
                x, v, bit = x >> W, v + 2, bit << W
            for rest, cf, row in hits:
                for a, q in row:
                    key = rest + a
                    out[key] = out.get(key, 0) + cf * q
        out = {k: n for k, n in out.items() if n and k & MASK <= order}
        return PSeries._of(out, self.den * op.den, order)

    def __add__(self, other: "PSeries", sign: int = 1) -> "PSeries":
        """self + sign * other, over the lcm of the two denominators."""
        if not isinstance(other, PSeries):
            return NotImplemented
        den, order = lcm(self.den, other.den), min(self.order, other.order)
        p, q = den // self.den, sign * (den // other.den)
        out = {k: n * p for k, n in self.nums.items()} if p > 1 else dict(self.nums)
        for k, n in other.nums.items():
            out[k] = out.get(k, 0) + q * n
        return PSeries._of({k: n for k, n in out.items() if n and k & MASK <= order}, den, order)

    def __sub__(self, other: "PSeries") -> "PSeries":
        return self.__add__(other, -1)

    def __mul__(self, other):
        if not isinstance(other, PSeries):
            x = Fraction(other)
            nums = {k: n * x.numerator for k, n in self.nums.items()} if x else {}
            return PSeries._of(nums, self.den * x.denominator, self.order)
        order = min(self.order, other.order)
        a, b = _graded(self.nums, self.order), _graded(other.nums, other.order)
        out: dict[int, int] = {}
        for da in range(order + 1):
            for db in range(order + 1 - da):
                _mul_add(out, 1, a[da], b[db])
        return PSeries._of({k: n for k, n in out.items() if n}, self.den * other.den, order)

    def exp(self) -> "PSeries":
        """exp by d Z_d = sum_{k=1}^{d} k F_k Z_{d-k}, Z_0 = 1, one slice product
        per (d, k): E exp F = (E F) exp F for the Euler operator E = sum_i i p_i
        d/dp_i, a derivation that multiplies slice d by d. Needs constant term 0."""
        if 0 in self.nums:
            raise ValueError("exp needs a zero constant term")
        return self._euler(log=False)

    def log(self) -> "PSeries":
        """log by the recursion of `exp` solved for F_d, F_d = Z_d - (1/d)
        sum_{k=1}^{d-1} k F_k Z_{d-k}; requires constant term exactly 1."""
        if self.nums.get(0) != self.den:
            raise ValueError("log needs constant term 1")
        return self._euler(log=True)

    def _euler(self, log: bool) -> "PSeries":
        """o_d = [log] s_d + (1/d) sum_{k=1}^{d} w_k s_k o_{d-k} on the slices
        s of this series, for exp (w_k = k, o_0 = 1) and log (w_k = k - d,
        o_0 = 0). Slice o_d is held as integers over d D L, D the denominator
        of s and L the lcm of the slices it reads, reduced by their gcd; the
        result is the slices over their lcm."""
        D, s = self.den, _graded(self.nums, self.order)
        o = [(1, {} if log else {0: 1})]
        for d in range(1, len(s)):
            reads = [k for k in range(1, d + 1) if s[k] and o[d - k][1]]
            L = lcm(*(o[d - k][0] for k in reads))
            acc = {k: n * d * L for k, n in s[d].items()} if log else {}
            for k in reads:
                den, prev = o[d - k]
                _mul_add(acc, (k - d if log else k) * (L // den), s[k], prev)
            den = d * D * L
            g = gcd(den, *acc.values())
            o.append((den // g, {k: n // g for k, n in acc.items() if n}))
        return PSeries._joined(o, self.order)

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        # graded, then by the exponents from the highest index down, descending
        keys = sorted(self.nums, key=lambda k: (k & MASK, -(k >> W)))
        return [(unpack(k), Fraction(self.nums[k], self.den)) for k in keys]

    def rows(self, **tags) -> list[dict]:
        """The term rows {**tags, "mono": ..., "coeff": "p/q"}, in `sorted_terms` order."""
        return [{**tags, "mono": mono_json(m), "coeff": str(c)} for m, c in self.sorted_terms()]

    def to_json_dict(self) -> dict:
        return {"order": self.order, "terms": self.rows()}

    def __eq__(self, other) -> bool:
        mine = (self.order, self.den, self.nums)
        return isinstance(other, PSeries) and mine == (other.order, other.den, other.nums)

    def __repr__(self) -> str:
        if not self.nums:
            return f"PSeries(0; order={self.order})"
        body = " + ".join(f"{c}*{mono_str(m)}" for m, c in self.sorted_terms())
        return f"PSeries({body}; order={self.order})"


def free_energy(table: CorrelatorTable, order: int) -> PSeries:
    """Generating series of the correlator coefficients, truncated at `order`:
    p^mu has coefficient C(g; mu) / W(mu) (ordered index tuples with 1/n!
    collapse to that on sorted ones), and degree 2g - 2 + n, so the support
    through `order` is exactly the terms the truncation keeps."""
    acc: dict[int, dict] = {}  # C / W(parts), by its denominator
    for g, parts in support_keys(_order(order)):  # each value is positive
        c = table.value(g, parts)
        acc.setdefault(c.denominator * multiplicity_weight(parts), {})[pack(parts)] = c.numerator
    return PSeries._joined(acc.items(), order)


def partition_function(table: CorrelatorTable, order: int) -> PSeries:
    """exp of the free energy, truncated at `order`."""
    return free_energy(table, order).exp()
