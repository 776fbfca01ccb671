"""Correlation-differential coefficients by residue calculus.

Handles rational spectral curves of the shape x = z^2/2 with the single
branch point z = 0 and local involution z -> -z; the function y is supplied
as a Laurent germ, an {exponent: coefficient} map with integer exponents
(any other key raises TypeError). The two curves of interest are y = 1/z
(Bessel, a simple pole of y at the branch point) and y = z (Airy, y analytic
there); `bessel_curve` and `airy_curve` return their germs.
`CorrelationEngine(y_germ)` maps a germ to its correlation differentials,
and `omega(g, n)` returns one of them as a plain dict of coefficients.

A correlation differential with 2g - 2 + n > 0 has poles only at the branch
point, so it is a finite coefficient tensor of the expansion

    omega_{g,n}(z_1, ..., z_n) = sum_mu U[mu] * prod_i mu_i dz_i / z_i^(mu_i + 1),

symmetric in mu. It is stored as entries keyed (b,) + E: b is the index of
the live slot z_1 that the residue produces, and E holds the external
indices sorted descending. A multiset with d distinct parts therefore has d
entries, one per distinct live index, each read from a different bracket;
`symmetric_table` checks that they agree, which is the tripwire on the
recursion. The unstable differentials are never stored: omega_{0,1} is
excluded from the recursion bracket, and omega_{0,2} enters only through
its two closed forms. With one live variable z near the branch point and a
formal second variable w,

    omega_{0,2}(z, w)  = sum_{m >= 1} z^(m-1) dz * [m dw / w^(m+1)]
    omega_{0,2}(z, -z) = -dz (x) dz / (4 z^2).

The recursion residue is evaluated per sorted external tuple E: the bracket
collapses to a one-variable Laurent density in z (the dz^2 is stripped;
evaluating a slot at -z contributes the sign (-1)^index), the kernel
contributes the geometric expansion of -1/D(z) * 1/(z_1 - z) with
D(z) = [y(z) - y(-z)] z, and reading the z^(-1) coefficient leaves a
polynomial in 1/z_1 whose coefficients are the entries (b; E). Each of them
is one dot product of the density with the truncated series of 1/D
(`reciprocal`, built once per engine and truncation). D is twice the odd
part of y, times z, so the even part of y never enters. Every exponent of
1/D is at least -v, v the valuation of D, so only the polar part of the
density, its terms z^e with e <= v - 1, can reach a residue, and only that
part is formed: omega_{0,2} is expanded only as far as its partner factor
lets it reach, and no index is capped a priori. The pole-order law (order
<= 2g at a simple pole of y, <= 6g - 4 + 2n where y is analytic) is thus a
tested property of the output, not a truncation. The densities and dot
products are sums of Python integers over one denominator per tensor, and
each entry is one `Fraction`.

The bracket is even in z, so each factor is expanded once, at z (at -z its
term of z-exponent e takes the sign (-1)^(e + 1)), and each unordered pair
of factors is summed once: twice where e1 + e2 is even, not where it is odd.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index

from .correlators import multiplicity_weight
from .pseries import _over


class ConsistencyError(RuntimeError):
    """An internal invariant was violated (asymmetric tensor, failed
    built-in cross-check). Never raised on valid input."""


def reciprocal(coeffs: dict, max_exponent: int) -> dict:
    """Truncated reciprocal of sum_k coeffs[k] z^k: the nonzero coefficients
    of its inverse on all exponents <= max_exponent.

    With the polynomial written c z^v plus higher terms, the inverse is
    z^(-v) sum_k r_k z^k, where r_k = ([k = 0] - sum_{j > v} coeffs[j]
    r_{k+v-j}) / c is the power-series inversion recurrence.
    """
    coeffs = {k: Fraction(c) for k, c in coeffs.items() if c}
    if not coeffs:
        raise ZeroDivisionError("the zero polynomial has no reciprocal")
    v = min(coeffs)
    lead = coeffs.pop(v)
    r: list = []
    for k in range(max_exponent + v + 1):
        acc = int(k == 0)
        for j, c in coeffs.items():
            if j - v <= k:
                acc -= c * r[k + v - j]
        # skip dividing zeros: for a monomial D, as on both shipped curves,
        # every r_k with k > 0 is zero
        r.append(acc / lead if acc else 0)
    return {k - v: c for k, c in enumerate(r) if c}


def bessel_curve() -> dict:
    return {-1: 1}


def airy_curve() -> dict:
    return {1: 1}


class CorrelationEngine:
    """Residue-recursion evaluator with a shared memo of lower tensors.

    Tensors are computed in increasing 2g - 2 + n, each once: a tensor only
    requests tensors of lower 2g - 2 + n, so none is requested while it is
    being computed.
    """

    def __init__(self, y_germ: dict):
        # D(z) = [y(z) - y(-z)] z, twice the odd part of y times z; its
        # valuation, 0 (y has a simple pole) or 2 (y analytic, dy nonzero),
        # classifies the branch point, and any other D raises ValueError
        keys = map(index, y_germ)
        den = {k + 1: 2 * Fraction(c) for k, c in zip(keys, y_germ.values()) if k % 2 and c}
        if not den:
            raise ValueError("y(z) - y(-z) vanishes identically")
        if min(den) not in (0, 2):
            raise ValueError(f"unsupported branch behaviour (valuation {min(den)})")
        self.kernel_denominator = den
        self._tensors: dict[tuple[int, int], dict] = {}
        # (g_i, k, reach for omega_{0,2} else None) -> `_factor_terms`
        self._factors: dict[tuple, tuple] = {}
        # max exponent -> (D_inv, [(t, -n), ...]) of the truncated 1/D; E -> W(E)
        self._inverses: dict[int, tuple] = {}
        self._weights: dict[tuple[int, ...], int] = {}

    def omega(self, g: int, n: int) -> dict[tuple[int, ...], Fraction]:
        """Coefficient tensor of omega_{g,n}, keyed (live index,) + externals
        sorted descending; see `symmetric_table`."""
        if g < 0 or n < 1 or 2 * g - 2 + n <= 0:
            raise ValueError(f"(g, n) = ({g}, {n}) is not produced by the recursion")
        key = (g, n)
        if key not in self._tensors:
            self._tensors[key] = self._compute(g, n)
        return self._tensors[key]

    def _compute(self, g: int, n: int) -> dict[tuple[int, ...], Fraction]:
        ext = n - 1
        # quadratic sum over factor pairs A = (g1, k) and B = (g2, ext - k),
        # each unordered pair once: the swap maps the exclusion of
        # omega_{0,1} to itself (its excluded partner is omega_{g,n} itself).
        # Only the polar part, e <= e_max = v - 1, can reach a residue, so A
        # is expanded only as far as B's least exponent lets it reach; B is
        # omega_{0,2} only beside itself (omega_{0,3}), where the reach is e_max
        e_max, pairs = min(self.kernel_denominator) - 1, []
        for g1 in range(g + 1):
            g2 = g - g1
            for k in range(ext + 1):
                if (g1 == 0 and k == 0) or (g2 == 0 and k == ext) or (g1, k) > (g2, ext - k):
                    continue
                den2, f2 = self._factor_terms(g2, ext - k, e_max)
                if not f2:
                    continue
                den1, f1 = self._factor_terms(g1, k, e_max - f2[0][0])
                if f1:
                    pairs.append((den1 * den2, f1, f2))
        # omega_{g-1, n+1}(z, -z, E) over its own denominator, 4 for omega_{0,2}
        den_top, top = 1, {}
        if (g, n) == (1, 1):
            den_top = 4
        elif g >= 1:
            den_top, top = _over(self.omega(g - 1, n + 1))
        L = lcm(den_top, *(den for den, _, _ in pairs))
        # sorted external indices -> L times the z-density of the bracket
        bracket: dict[tuple[int, ...], dict[int, int]] = {}
        if (g, n) == (1, 1):
            bracket[()] = {-2: -(L // 4)}
        # an entry (nu1; R) of omega_{g-1, n+1} supplies every nu2 once per
        # distinct value in R, with E = R less one copy of nu2
        for idx, u in top.items():
            nu1 = idx[0]
            for i in range(1, n + 1):
                nu2 = idx[i]
                if i > 1 and idx[i - 1] == nu2:
                    continue
                coeff = u * (L // den_top) * nu1 * nu2
                slot = bracket.setdefault(idx[1:i] + idx[i + 1 :], {})
                e = -(nu1 + nu2 + 2)
                slot[e] = slot.get(e, 0) + (-coeff if nu2 % 2 else coeff)

        # a pair lands on E = merge(I, J), times L / den, once for every way
        # of placing I among the slots of E: W(E) / (W(I) W(J)). J is read at
        # -z. Distinct factors stand for both orders, which agree where
        # e1 + e2 is even (e1 and e2 then give one sign) and cancel where odd
        # only the polar part is formed; the factors ascend in least exponent,
        # so the right loop stops at the first that cannot reach it, and a pair
        # with no term left gets no key, slot or weight
        weights = self._weights
        for den, f1, f2 in pairs:
            twin = f1 is not f2
            scale = L // den * (2 if twin else 1)
            for low1, left, w1, t1 in f1:
                for low2, right, w2, t2 in f2:
                    if low1 + low2 > e_max:
                        break
                    terms = [(e, c1 * c2 if e2 % 2 else -c1 * c2) for e1, c1 in t1 for e2, c2 in t2
                             if (e := e1 + e2) <= e_max and not (twin and e % 2)]
                    if not terms:
                        continue
                    key = tuple(sorted(left + right, reverse=True))
                    slot = bracket.get(key)
                    if slot is None:
                        slot = bracket[key] = {}
                    w = weights.get(key) or weights.setdefault(key, multiplicity_weight(key))
                    weight = scale * w // (w1 * w2)
                    for e, c in terms:
                        slot[e] = slot[e] + c * weight if e in slot else c * weight

        # entry (b - 1; E) is -[z^(-b)] density(z) / D(z) divided by b - 1:
        # a dot product of the density with the truncated 1/D, built once per
        # engine and truncation over its own denominator; every b > 0 is kept
        coeffs: dict[tuple[int, ...], Fraction] = {}
        nonempty = [d for d in bracket.values() if any(d.values())]
        if nonempty:
            e_min = min(min(d) for d in nonempty)
            top_t = max(-1 - e_min, -min(self.kernel_denominator))
            if top_t not in self._inverses:
                den_inv, inv = _over(reciprocal(self.kernel_denominator, top_t))
                self._inverses[top_t] = den_inv, [(t, -d) for t, d in inv.items()]
            den_inv, neg_inv = self._inverses[top_t]
            for key, density in bracket.items():
                residues: dict[int, int] = {}
                for e, c in density.items():
                    for t, d in neg_inv:
                        b = -(e + t)
                        if b > 0:
                            residues[b] = residues[b] + c * d if b in residues else c * d
                for b, r in residues.items():
                    if not r:
                        continue
                    if b == 1:
                        raise ConsistencyError(
                            f"({g},{n}): residue left a simple pole in the live slot"
                        )
                    coeffs[(b - 1,) + key] = Fraction(r, L * den_inv * (b - 1))
        return coeffs

    def _factor_terms(self, g_i: int, k: int, reach: int):
        """Expansion terms (D, [(low, I, W(I), ((z-exponent, n), ...)), ...]) of
        one product factor at z, each n / D, ascending in the least exponent low.

        I holds the factor's k external indices, sorted descending, and W(I)
        is its `multiplicity_weight`. The caller has already excluded
        omega_{0,1} factors. Read at -z, the term of exponent e takes the sign
        (-1)^(e + 1), which the caller applies. Each factor is built once per
        engine, omega_{0,2} once per `reach`, through its term z^reach;
        callers must not mutate the result.
        """
        omega02 = g_i == 0 and k == 1
        key = (g_i, k, reach if omega02 else None)
        out = self._factors.get(key)
        if out is None:
            if omega02:
                out = 1, [(m - 1, (m,), 1, ((m - 1, 1),)) for m in range(1, reach + 2)]
            else:
                den, nums = _over(self.omega(g_i, k + 1))
                terms: dict = {}
                for idx, u in nums.items():
                    terms.setdefault(idx[1:], []).append((-(idx[0] + 1), u * idx[0]))
                out = den, sorted(
                    (min(t)[0], I, multiplicity_weight(I), tuple(t)) for I, t in terms.items()
                )
            self._factors[key] = out
        return out


def compute_omega(y_germ: dict, g: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """The tensor of omega_{g,n} on the curve of `y_germ`, from a transient engine."""
    return CorrelationEngine(y_germ).omega(g, n)


def stable_pairs(chi_max: int):
    """All (g, n) with 0 < 2g - 2 + n <= chi_max, in increasing complexity."""
    for chi in range(1, chi_max + 1):
        for g in range((chi + 1) // 2 + 1):
            yield g, chi + 2 - 2 * g


def symmetric_table(coeffs: dict, n: int) -> dict[tuple[int, ...], Fraction]:
    """Canonicalise a tensor to sorted-descending keys.

    A multiset with d distinct parts is stored d times, once per distinct
    live index, and each of those entries is read from a different bracket,
    so their agreement is a theorem rather than a construction. This is the
    internal-consistency tripwire of the residue recursion: it fails loudly
    on a key of the wrong arity or with unsorted externals, on two live
    slots that disagree, and on a multiset missing any of its live slots.
    """
    out: dict[tuple[int, ...], Fraction] = {}
    found: dict[tuple[int, ...], int] = {}
    for key, value in coeffs.items():
        if len(key) != n:
            raise ConsistencyError(f"key {key} has wrong arity for n={n}")
        if list(key[1:]) != sorted(key[1:], reverse=True):
            raise ConsistencyError(f"key {key} has unsorted externals")
        canon = tuple(sorted(key, reverse=True))
        seen = out.get(canon)
        if seen is None:
            out[canon] = value
            found[canon] = 1
        elif seen != value:
            raise ConsistencyError(f"asymmetric tensor at {canon}: {seen} vs {value}")
        else:
            found[canon] += 1
    for canon, count in found.items():
        slots = len(set(canon))
        if count != slots:
            raise ConsistencyError(
                f"asymmetric tensor: {canon} has {count} of its {slots} live slots"
            )
    return out


def omega_records(g: int, n: int, coeffs: dict) -> list[dict]:
    """Record-stream form of the tensor of omega_{g,n}: {"g", "n", "mu",
    "value"} with mu sorted descending."""
    table = symmetric_table(coeffs, n)
    return [{"g": g, "n": n, "mu": list(mu), "value": str(table[mu])} for mu in sorted(table)]
