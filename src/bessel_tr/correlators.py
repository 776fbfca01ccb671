"""Closed recursion for the Bessel-curve correlator coefficients.

The coefficients are indexed by a genus g and a tuple of positive odd
integers; they vanish unless the parts sum to 2g - 2 + n, so the parts fix
the genus (`genus`, the one statement of this support law). A memoised
table evaluates the recursion

    mu1 * C(g; mu1, rest) = sum_k (mu1 + mu_k - 1) * C(g; mu1 + mu_k - 1, rest \\ mu_k)
        + 1/2 * sum_{a + b = mu1 - 1, a, b odd} a*b * [ C(g-1; a, b, rest)
            + sum_{left + right = rest} C(g1; a, left) * C(g2; b, right) ]

seeded by C(1; 1) = 1/8; genus zero is empty, as n parts cannot sum to n - 2.
The quadratic sum runs over sub-multisets `left` of `rest`, not subsets: a
split taking k of the c parts equal to v stands for comb(c, k) subsets and
is weighted by the product of those binomials, W(rest) / (W(left) W(right))
with W the `multiplicity_weight`. The genus never enters the recursion:
the memo is keyed by the sorted parts alone, each term's genus is the one
its parts fix (g1 and g2 are at least 1 because every part is), and no
genus is summed over. So C(a, left) over the splits of `rest` is a vector
fixed by (a, rest) alone, cached and shared by every step that meets it,
and the split sum is a dot product of the a side with the reversed b side.
Each step sums integers and builds one `Fraction`, the memo entry. Only keys with no part 1
take a step; `_lookup`, the one writer of the memo, walks the others down their trailing 1s
and back up by the dilaton equation C(g; mu, 1) = (2g - 2 + n) C(g; mu) = (sum mu) C(g; mu),
which `string-dilaton` checks against a fresh step (for Airy, a 1 is the string equation).

Also houses the support predicate and the enumeration of the support.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from math import lcm
from operator import index


def canonical_parts(parts) -> tuple[int, ...]:
    """Sorted-descending tuple; the canonical memo key."""
    return tuple(sorted(parts, reverse=True))


def multiplicity_weight(parts: tuple[int, ...]) -> int:
    """W = prod mult! of a sorted parts tuple, which has len(parts)! / W orderings."""
    weight = run = 1
    for a, b in zip(parts, parts[1:]):
        run = run + 1 if a == b else 1
        weight *= run
    return weight


def genus(parts) -> int:
    """The support law: the genus g at which the parts sum to 2g - 2 + n."""
    return (sum(parts) - len(parts)) // 2 + 1


def in_support(g: int, parts) -> bool:
    """True iff there are parts, all positive odd ints, and g is their `genus`."""
    parts = tuple(parts)
    odd = all(isinstance(p, int) and p > 0 and p % 2 == 1 for p in parts)
    return bool(parts) and odd and genus(parts) == g


def odd_partitions(total: int):
    """Partitions of `total` into odd parts, descending, reverse-lexicographic."""
    if total == 0:
        yield ()
        return
    cap = total - 1 + total % 2  # the largest odd part allowed
    parts, rest = [], total
    while cap > 0:
        q, r = divmod(rest, cap)  # fill `rest` greedily with odd parts <= cap
        parts += [cap] * q + ([r] if r % 2 else [r - 1, 1] if r else [])
        yield tuple(parts)  # then lower the last part above 1 by 2, and refill
        ones = parts.count(1)
        del parts[len(parts) - ones :]
        last = parts.pop() if parts else 1  # a 1 ends the walk
        cap, rest = last - 2, last + ones


def support_keys(chi_max: int):
    """All (g, parts) on the support with 2g - 2 + n <= chi_max.

    Ordered by (2g - 2 + n, n, parts), which is the canonical dump order.
    """
    for chi in range(1, chi_max + 1):
        # n odd parts sum to chi only if n = chi mod 2, so every n is on the
        # support; a stable sort keeps odd_partitions' order within each n
        for parts in sorted(odd_partitions(chi), key=len):
            yield genus(parts), parts


class CorrelatorTable:
    """Memoised evaluator for the correlator coefficients."""

    def __init__(self):
        # sorted parts -> coefficient; the parts fix the genus
        self._entries: dict[tuple[int, ...], Fraction] = {(1,): Fraction(1, 8)}
        self._split_memo: dict[tuple[int, ...], tuple] = {}
        # (a, rest) -> `_split_vector`, a cache over `_entries`
        self._vectors: dict[tuple[int, tuple[int, ...]], tuple] = {}

    def value(self, g: int, parts) -> Fraction:
        """Coefficient for genus g and the given integer parts (any order).

        Inputs off the support (even or non-positive parts, wrong total)
        return 0 without recursing.
        """
        parts = canonical_parts(map(index, parts))
        return self._lookup(parts) if in_support(g, parts) else Fraction(0)

    def _lookup(self, parts: tuple[int, ...]) -> Fraction:
        """The entry of the canonical support key `parts`, and the one writer of the memo: a
        miss walks down the trailing 1s to a stored key or a step on a key with no part 1 (1s
        keep the genus), then back up by the dilaton equation, storing every key on the way."""
        got = self._entries.get(parts)
        if got is None:
            n = len(parts)
            while (got := self._entries.get(parts[:n])) is None and parts[n - 1] == 1:
                n -= 1
            if got is None:
                got = self._entries[parts[:n]] = self.recursion_step(genus(parts), parts[:n], 0)
            for m in range(n + 1, len(parts) + 1):
                got = self._entries[parts[:m]] = (sum(parts[:m]) - 1) * got
        return got

    def _splits(self, rest: tuple[int, ...]) -> tuple:
        """(weights, lefts) over the sub-multisets `left` of the sorted `rest`,
        in `product` order, so the complement `right` of split s is split
        -1 - s. Each left is sorted and its weight is W(rest) / (W(left)
        W(right)); built once per `rest`."""
        splits = self._split_memo.get(rest)
        if splits is None:
            groups = sorted(Counter(rest).items(), reverse=True)
            taken = product(*(range(c + 1) for _, c in groups))
            lefts = [tuple(v for (v, _), k in zip(groups, t) for _ in range(k)) for t in taken]
            w, w_rest = [multiplicity_weight(left) for left in lefts], multiplicity_weight(rest)
            weights = [w_rest // (a * b) for a, b in zip(w, reversed(w))]
            splits = self._split_memo[rest] = weights, lefts
        return splits

    def _split_vector(self, a: int, rest: tuple[int, ...]) -> tuple:
        """(numerators, denominators) of C(a, left) over the splits of `rest`,
        read through the memo; built once per (a, rest)."""
        vec = self._vectors.get((a, rest))
        if vec is None:
            cs = [self._lookup(canonical_parts(left + (a,))) for left in self._splits(rest)[1]]
            vec = tuple(c.numerator for c in cs), tuple(c.denominator for c in cs)
            self._vectors[(a, rest)] = vec
        return vec

    def recursion_step(self, g: int, parts, pivot: int) -> Fraction:
        """One unfolding of the recursion with parts[pivot] distinguished.

        `value` pivots on the largest part of a key with no part 1 and fills
        the others; other pivots and keys are exposed so the recursion's
        well-definedness and the fill can be checked directly. The index must
        be on the support, in any order. Each sub-multiset split of the other
        parts is taken once, weighted by its binomial count, with the genera
        the support law forces (see the module docstring).
        """
        parts = tuple(map(index, parts))
        if not in_support(g, parts):
            raise ValueError(f"index off the support: genus {g}, parts {parts}")
        pivot = range(len(parts))[pivot]
        first = parts[pivot]
        rest = canonical_parts(parts[:pivot] + parts[pivot + 1 :])
        lookup = self._lookup
        weights = self._splits(rest)[0]
        # 2 * first * C as integer sums keyed by denominator, put over their
        # lcm once: a product a * b adds a.numerator * b.numerator under the
        # key a.denominator * b.denominator
        acc: dict[int, int] = defaultdict(int)
        for k in range(len(rest)):
            merged = first + rest[k] - 1
            c = lookup(canonical_parts((merged,) + rest[:k] + rest[k + 1 :]))
            acc[c.denominator] += 2 * merged * c.numerator
        # the terms of alpha and of beta agree, with left and right swapped:
        # take alpha <= beta and count alpha < beta twice
        for alpha in range(1, (first - 1) // 2 + 1, 2):
            beta = first - 1 - alpha
            ab = alpha * beta * (1 if alpha == beta else 2)
            c = lookup(canonical_parts((alpha, beta) + rest))
            acc[c.denominator] += ab * c.numerator
            # split s pairs the alpha side of left_s with the beta side of its
            # complement, split -1 - s
            a_nums, a_dens = self._split_vector(alpha, rest)
            b_nums, b_dens = map(reversed, self._split_vector(beta, rest))
            for w, an, ad, bn, bd in zip(weights, a_nums, a_dens, b_nums, b_dens):
                acc[ad * bd] += ab * w * an * bn
        den = lcm(*acc)
        return Fraction(sum(n * (den // d) for d, n in acc.items()), 2 * first * den)
