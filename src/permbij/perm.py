"""
Permutations of {1, ..., n} in one-line notation.

A permutation is a sequence of the integers 1..n containing each value
exactly once.  Functions accept any such sequence and return plain tuples.
Positions and values are both 1-based throughout, so ``perm[i - 1]`` is the
value at position ``i``.

The module covers the word symmetries (reverse, complement, inverse and
their composites), detection of 321- and 132-patterns, the fixed-point and
excedance statistics, and direct generation of the avoidance classes
S_n(321) and S_n(132), which the rest of the package uses as its exhaustive
test bed.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

Perm = tuple[int, ...]

#: patterns understood by avoids() and enumerate_avoiders()
PATTERNS = ("321", "132")

#: largest n that enumerate_avoiders() and the verifier accept
ENUMERATION_CAP = 12


def is_permutation(word: Sequence[int]) -> bool:
    """
    Check that ``word`` is nonempty, holds ints (not bools, whose type is
    a subclass of int) and contains each of 1..len(word) exactly once.

    >>> [is_permutation(w) for w in [(1,), (2, 1), (), (1, 3), (1, 1, 2), (2.0, 1), (True, 2)]]
    [True, True, False, False, False, False, False]
    """
    n = len(word)
    return n > 0 and list(map(type, word)).count(int) == n and sorted(word) == list(range(1, n + 1))


def require_permutation(word: Sequence[int]) -> None:
    """
    Raise ValueError unless ``word`` is a permutation of 1..n for some
    n >= 1.

    >>> require_permutation((1, 1))
    Traceback (most recent call last):
    ...
    ValueError: not a permutation of 1..n (n=2)
    """
    if not is_permutation(word):
        raise ValueError(f"not a permutation of 1..n (n={len(word)})")


def require_321_avoider(word: Sequence[int]) -> None:
    """
    The input contract of every map route and corner builder: raise
    ValueError unless ``word`` is a permutation (require_permutation) that
    avoids 321.

    >>> require_321_avoider((3, 2, 1))
    Traceback (most recent call last):
    ...
    ValueError: permutation contains a 321-pattern
    """
    require_permutation(word)
    if not avoids(word, "321"):
        raise ValueError("permutation contains a 321-pattern")


def parse_permutation(text: str) -> Perm:
    """
    Parse whitespace- or comma-separated values written in ASCII digits
    alone, or a contiguous digit string such as "14237586" (accepted only
    while every value is a single digit, i.e. n <= 9).

    >>> parse_permutation("1 4 2 3 7 5 8 6")
    (1, 4, 2, 3, 7, 5, 8, 6)
    >>> parse_permutation("14237586")
    (1, 4, 2, 3, 7, 5, 8, 6)
    >>> parse_permutation("3, 1, 2")
    (3, 1, 2)
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty permutation text")
    # int() alone would also take "+2", "1_0" and non-ASCII digits; one
    # check in C over all tokens keeps long inputs from paying per token
    digits = "".join(tokens)
    if not (digits.isascii() and digits.isdigit()):
        bad = next(tok for tok in tokens if not (tok.isascii() and tok.isdigit()))
        raise ValueError(f"invalid token {bad!r}")
    if len(tokens) == 1 and len(tokens[0]) > 1:
        if len(tokens[0]) > 9:
            raise ValueError(
                f"digit string {tokens[0]!r} has more than 9 entries; "
                "use separators for n >= 10"
            )
        tokens = list(tokens[0])
    values = list(map(int, tokens))
    n = len(values)
    seen = set()
    for v in values:
        if not 1 <= v <= n:
            raise ValueError(f"value {v} out of range 1..{n}")
        if v in seen:
            raise ValueError(f"duplicate value {v}")
        seen.add(v)
    return tuple(values)


def format_permutation(perm: Sequence[int], compact: bool = False) -> str:
    """
    Canonical text form: space-separated values.  ``compact=True`` gives
    the digit-string form, which only exists for n <= 9.

    >>> format_permutation((1, 4, 2, 3, 7, 5, 8, 6))
    '1 4 2 3 7 5 8 6'
    >>> format_permutation((1, 4, 2, 3, 7, 5, 8, 6), compact=True)
    '14237586'
    """
    if compact:
        if len(perm) > 9:
            raise ValueError(f"compact form needs n <= 9, got n={len(perm)}")
        return "".join(str(v) for v in perm)
    return " ".join(str(v) for v in perm)


def identity(n: int) -> Perm:
    """The increasing word 1 2 ... n."""
    return tuple(range(1, n + 1))


def bar(value: int, n: int) -> int:
    """
    The reflection v -> n + 1 - v, an involution on 1..n.

    >>> [bar(v, 8) for v in (1, 4, 8)]
    [8, 5, 1]
    """
    return n + 1 - value


def inverse(perm: Sequence[int]) -> Perm:
    """
    The inverse permutation: position of each value.

    >>> inverse((1, 4, 2, 3, 7, 5, 8, 6))
    (1, 3, 4, 2, 6, 8, 5, 7)
    """
    inv = [0] * len(perm)
    for pos, value in enumerate(perm, start=1):
        inv[value - 1] = pos
    return tuple(inv)


def reverse(perm: Sequence[int]) -> Perm:
    """Read the word right to left."""
    return tuple(reversed(perm))


def complement(perm: Sequence[int]) -> Perm:
    """Replace every value v by n + 1 - v."""
    n = len(perm)
    return tuple(n + 1 - v for v in perm)


def reverse_complement(perm: Sequence[int]) -> Perm:
    """
    Reverse and complement combined.  Reverse acts on positions and
    complement on values, so the two commute and this is an involution.

    >>> reverse_complement((1, 4, 2, 3, 7, 5, 8, 6))
    (3, 1, 4, 2, 6, 7, 5, 8)
    """
    m = len(perm) + 1
    return tuple([m - v for v in reversed(perm)])


def inverse_reverse_complement(perm: Sequence[int]) -> Perm:
    """The inverse of the reverse-complement."""
    return inverse(reverse_complement(perm))


def avoids(perm: Sequence[int], pattern: str) -> bool:
    """
    True iff no position triple i < j < k is order-isomorphic to the
    pattern: "321" means perm[i] > perm[j] > perm[k], "132" means
    perm[j] > perm[k] > perm[i].

    >>> avoids((1, 4, 2, 3, 7, 5, 8, 6), "321")
    True
    >>> avoids((3, 2, 1), "321")
    False
    """
    if pattern == "321":
        return not _contains_321(perm)
    if pattern == "132":
        return _least_132_start(perm, 0) < 0
    raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")


def _contains_321(word: Sequence[int]) -> bool:
    # A 321 exists iff the entries that lie below some earlier entry (the
    # ones that are not left-to-right maxima) fail to increase: the first
    # of a decreasing pair of them is the 2 of a 321.  One pass, O(n).
    top = low = -math.inf
    for v in word:
        if v > top:
            top = v
        elif v < top:
            if v < low:
                return True
            low = v
    return False


def _least_132_start(perm: Sequence[int], lo: int) -> int:
    """The least 0-based position >= lo that starts a 132-pattern, or -1."""
    # Right to left, ``two`` is the largest value seen so far with a larger
    # value between it and the current position (popped off the stack of
    # values not yet so covered); a value below ``two`` starts a 132, and
    # the pass keeps the last (leftmost) start.  A start is not pushed: its
    # value lies below ``two``, so it can neither raise ``two`` as a 2 nor
    # as a 3, and every stacked value stays >= two.  Both depend only on
    # the positions right of the current one, so the pass can stop at lo.
    stack: list[int] = []
    two = -math.inf
    i = -1
    for pos in range(len(perm) - 1, lo - 1, -1):
        v = perm[pos]
        if v < two:
            i = pos
            continue
        while stack and stack[-1] < v:
            two = stack.pop()
        stack.append(v)
    return i


def fixed_points(perm: Sequence[int]) -> int:
    """Number of positions with perm[i] == i."""
    return sum(1 for pos, v in enumerate(perm, start=1) if v == pos)


def excedances(perm: Sequence[int]) -> int:
    """Number of positions with perm[i] > i."""
    return sum(1 for pos, v in enumerate(perm, start=1) if v > pos)


def catalan(n: int) -> int:
    """
    The n-th Catalan number (2n choose n) / (n + 1), the common size of
    S_n(321) and S_n(132).

    >>> [catalan(n) for n in range(1, 6)]
    [1, 2, 5, 14, 42]
    """
    return math.comb(2 * n, n) // (n + 1)


def _avoiders_321(n: int) -> list[Perm]:
    # A word avoids 321 iff its entries that are not left-to-right maxima
    # increase, i.e. iff each entry is a new maximum or the smallest value
    # not yet placed.  Trying the candidates in increasing order yields the
    # class in lexicographic order, and every branch completes.
    words: list[Perm] = []

    def extend(prefix: Perm, top: int, free: Perm) -> None:
        # free holds the unplaced values, increasing; free[low:] exceed top
        if not free:
            words.append(prefix)
            return
        low = len(free) - (n - top)
        if low:
            extend(prefix + free[:1], top, free[1:])
        for i in range(low, len(free)):
            extend(prefix + free[i : i + 1], free[i], free[:i] + free[i + 1 :])

    extend((), 0, identity(n))
    return words


@functools.lru_cache(maxsize=None)
def _avoider_list(n: int, pattern: str) -> tuple[Perm, ...]:
    if pattern == "321":
        return tuple(_avoiders_321(n))
    if n == 0:
        return ((),)
    # A 132-avoider is alpha n beta with every entry of alpha above every
    # entry of beta, and both 132-avoiding.
    words = [
        tuple(a + n - 1 - k for a in alpha) + (n,) + beta
        for k in range(n)
        for alpha in _avoider_list(k, "132")
        for beta in _avoider_list(n - 1 - k, "132")
    ]
    return tuple(sorted(words))


def enumerate_avoiders(n: int, pattern: str) -> Iterator[Perm]:
    """
    An iterator over S_n(pattern) in lexicographic order, for
    1 <= n <= ENUMERATION_CAP.  The arguments are checked at the call, not
    at the first next().  The class is generated directly, in time about
    catalan(n) times n, instead of by filtering the n! words of S_n:
    321-avoiders by choosing each entry as a new maximum or the smallest
    unplaced value, 132-avoiders by the decomposition alpha n beta.

    >>> [format_permutation(p, compact=True) for p in enumerate_avoiders(3, "321")]
    ['123', '132', '213', '231', '312']
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"n={n} outside 1..{ENUMERATION_CAP}")
    return iter(_avoider_list(n, pattern))
