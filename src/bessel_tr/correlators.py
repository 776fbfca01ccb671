"""Closed recursion for the Bessel-curve correlator coefficients.

The coefficients are indexed by a genus g and a tuple of positive odd
integers; they vanish unless the parts sum to 2g - 2 + n. A memoised table
evaluates the recursion

    mu1 * C(g; mu1, rest) = sum_k (mu1 + mu_k - 1) * C(g; mu1 + mu_k - 1, rest \\ mu_k)
        + 1/2 * sum_{a + b = mu1 - 1, a, b odd} a*b * [ C(g-1; a, b, rest)
            + sum_{left + right = rest} C(g1; a, left) * C(g2; b, right) ]

seeded by C(1; 1) = 1/8; genus zero is empty, as n parts cannot sum to n - 2.
The quadratic sum runs over sub-multisets `left` of `rest`, not subsets: a
split taking k of the c parts equal to v stands for comb(c, k) subsets and
is weighted by the product of those binomials, W(rest) / (W(left) W(right))
with W the `multiplicity_weight`. The support law forces both
genera, 2*g1 = a + sum(left) + 1 - |left| and g2 = g - g1, and each is at
least 1 because every part is; no genus is summed over. Each step sums
integers and builds one `Fraction`, the memo entry.

Also houses the support predicate and the enumeration of the support.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from math import lcm
from operator import neg


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


def _insert(v: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    """v inserted into the sorted-descending tuple `parts`."""
    i = bisect_left(parts, -v, key=neg)
    return parts[:i] + (v,) + parts[i:]


def in_support(g: int, parts) -> bool:
    """True iff all parts are positive odd and sum to 2g - 2 + n."""
    parts = tuple(parts)
    n = len(parts)
    if g < 0 or n < 1:
        return False
    if any(p < 1 or p % 2 == 0 for p in parts):
        return False
    return sum(parts) == 2 * g - 2 + n


def odd_partitions(total: int, max_part: int | None = None):
    """Partitions of `total` into positive odd parts, as descending tuples."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    start = min(total, max_part)
    if start % 2 == 0:
        start -= 1
    for first in range(start, 0, -2):
        for rest in odd_partitions(total - first, first):
            yield (first,) + rest


def support_keys(chi_max: int):
    """All (g, parts) on the support with 2g - 2 + n <= chi_max.

    Ordered by (2g - 2 + n, n, parts), which is the canonical dump order.
    """
    for chi in range(1, chi_max + 1):
        # n odd parts sum to chi only if n = chi mod 2, so every n is on the
        # support; a stable sort keeps odd_partitions' order within each n
        for parts in sorted(odd_partitions(chi), key=len):
            yield (chi - len(parts)) // 2 + 1, parts


class CorrelatorTable:
    """Memoised evaluator for the correlator coefficients."""

    def __init__(self):
        self._entries: dict[tuple[int, tuple[int, ...]], Fraction] = {
            (1, (1,)): Fraction(1, 8)
        }
        self._split_memo: dict[tuple[int, ...], list] = {}

    def value(self, g: int, parts) -> Fraction:
        """Coefficient for genus g and the given parts (any order).

        Inputs off the support (even or non-positive parts, wrong total)
        return 0 without recursing.
        """
        parts = canonical_parts(parts)
        if not in_support(g, parts):
            return Fraction(0)
        key = (g, parts)
        got = self._entries.get(key)
        if got is None:
            got = self.recursion_step(g, parts, 0)
            self._entries[key] = got
        return got

    def _lookup(self, g: int, parts: tuple[int, ...]) -> Fraction:
        # canonical key on the support: a memo hit skips value's input checks
        got = self._entries.get((g, parts))
        return self.value(g, parts) if got is None else got

    def _splits(self, rest: tuple[int, ...]) -> list:
        """(weight, left, right, 2*g1 - alpha) for every sub-multiset `left` of
        the sorted `rest` and its complement `right`, both sorted; built once
        per `rest`."""
        splits = self._split_memo.get(rest)
        if splits is None:
            groups = sorted(Counter(rest).items(), reverse=True)
            w_rest = multiplicity_weight(rest)
            splits = []
            for taken in product(*(range(c + 1) for _, c in groups)):
                left = tuple(v for (v, _), k in zip(groups, taken) for _ in range(k))
                right = tuple(v for (v, c), k in zip(groups, taken) for _ in range(c - k))
                weight = w_rest // (multiplicity_weight(left) * multiplicity_weight(right))
                splits.append((weight, left, right, sum(left) + 1 - len(left)))
            self._split_memo[rest] = splits
        return splits

    def recursion_step(self, g: int, parts, pivot: int) -> Fraction:
        """One unfolding of the recursion with parts[pivot] distinguished.

        `value` always pivots on the largest part; other pivots are exposed so
        the well-definedness of the recursion can be checked directly. The
        index must be on the support, in any order. Each sub-multiset split of
        the other parts is taken once, weighted by its binomial count, with
        the genera the support law forces (see the module docstring).
        """
        parts = tuple(parts)
        if not in_support(g, parts):
            raise ValueError(f"index off the support: genus {g}, parts {parts}")
        first = parts[pivot]
        rest = canonical_parts(parts[:pivot] + parts[pivot + 1 :])
        lookup = self._lookup
        splits = self._splits(rest)
        # 2 * first * C as integer sums keyed by denominator, put over their
        # lcm once: a product a * b adds a.numerator * b.numerator under the
        # key a.denominator * b.denominator
        acc: dict[int, int] = defaultdict(int)
        for k in range(len(rest)):
            merged = first + rest[k] - 1
            c = lookup(g, canonical_parts((merged,) + rest[:k] + rest[k + 1 :]))
            acc[c.denominator] += 2 * merged * c.numerator
        # the terms of alpha and of beta agree, with left and right swapped:
        # take alpha <= beta and count alpha < beta twice
        for alpha in range(1, (first - 1) // 2 + 1, 2):
            beta = first - 1 - alpha
            ab = alpha * beta * (1 if alpha == beta else 2)
            c = lookup(g - 1, canonical_parts((alpha, beta) + rest))
            acc[c.denominator] += ab * c.numerator
            for weight, left, right, shift in splits:
                g1 = (alpha + shift) // 2
                a = lookup(g1, _insert(alpha, left))
                b = lookup(g - g1, _insert(beta, right))
                acc[a.denominator * b.denominator] += ab * weight * a.numerator * b.numerator
        den = lcm(*acc)
        return Fraction(sum(n * (den // d) for d, n in acc.items()), 2 * first * den)
