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
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from contextvars import ContextVar
from itertools import groupby
from operator import eq, gt, itemgetter

Perm = tuple[int, ...]

#: patterns understood by avoids() and enumerate_avoiders()
PATTERNS = ("321", "132")

#: largest n that enumerate_avoiders() and the verifier accept
ENUMERATION_CAP = 12

#: the class verify.run_suite vouches for, whose members the validators pass
#: (_vouched_rank): None outside run_suite; inside it, [] until its first
#: check has validated the packed S_n(321) (_avoiders), then those very
#: records, or () if a member failed
_VOUCHED: ContextVar[_Avoiders | list | tuple | None] = ContextVar("vouched", default=None)
#: set and reset with _VOUCHED: [member, rank] of the vouched member that a
#: sweep of the class is at (_publish), [None, -1] between sweeps
_SWEPT: ContextVar[list | None] = ContextVar("swept", default=None)


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
    if _vouched_rank(word) < 0 and not is_permutation(word):
        raise ValueError(f"not a permutation of 1..n (n={len(word)})")


def require_321_avoider(word: Sequence[int]) -> None:
    """
    The input contract of every map route and corner builder: raise
    ValueError unless ``word`` is a permutation (require_permutation) that
    avoids 321.  Both validators pass a member of the class that
    verify.run_suite has vouched for (_VOUCHED) at once, by _vouched_rank;
    any other word, a list included, is checked in full.

    >>> require_321_avoider((3, 2, 1))
    Traceback (most recent call last):
    ...
    ValueError: permutation contains a 321-pattern
    """
    if _vouched_rank(word) < 0:
        require_permutation(word)
        if _contains_321(word):
            raise ValueError("permutation contains a 321-pattern")


def _vouched_rank(word) -> int:
    """
    The vouching rule: word's rank in the class that verify.run_suite
    vouches for (_VOUCHED), or -1, and -1 when none is.  The member
    being swept (_SWEPT) is ranked at once when word is that very object;
    any other word is ranked by _rank.
    """
    swept = _SWEPT.get()
    if swept is not None and swept[0] is word:
        return swept[1]
    return _rank(word, _VOUCHED.get())


def _publish(enumerate_fn, n: int) -> Iterator[Perm]:
    """
    The sweep of S_n(321) for verify._class_321: enumerate_fn(n, "321"),
    unless enumerate_fn is enumerate_avoiders and run_suite vouches for the
    class; then each member is cut from the records and yielded while
    _SWEPT holds it with its rank, until the sweep ends or is dropped.
    """
    swept, members = _SWEPT.get(), _VOUCHED.get()
    if swept is None or not members or members.n != n or enumerate_fn is not enumerate_avoiders:
        return enumerate_fn(n, "321")
    return _published(members, swept)


def _published(members, swept):
    try:
        for rank, member in enumerate(members):
            swept[0], swept[1] = member, rank
            yield member
    finally:
        swept[0], swept[1] = None, -1


def _rank(word, members: _Avoiders | None) -> int:
    """
    The class rank of word in the records members (_avoiders), or -1, at
    once for no records, such as None: the member last cut by index when
    word is that very tuple, else by bisecting the keys for word's key.
    word matches a tuple of exact ints whose bytes are the member's
    record, so (3.0, 2.0, 1.0), (True, 2), lists and strs never do.  It
    backs _vouched_rank and ranks images in S_n(132) for verify.
    """
    if type(members) is not _Avoiders:
        return -1
    cut, rank = members.cut
    if cut is word:
        return rank
    if type(word) is not tuple or len(word) != members.n:
        return -1
    try:
        record = bytes(word)
    except (TypeError, ValueError):  # entries that are no ints in 0..255
        return -1
    n, keys = len(record), members.keys
    # an entry above 15 loses its high digit here, but not in the record
    i = bisect_left(keys, int(record.hex()[1::2], 16))
    if (i < len(keys) and members.flat[i * n : i * n + n] == record
            and list(map(type, word)).count(int) == n):
        return i
    return -1


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
    _require_pattern(pattern)
    return _least_132_start(perm, 0) < 0


def _require_pattern(pattern: str) -> None:
    if pattern not in PATTERNS:
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
    return sum(map(eq, perm, range(1, len(perm) + 1)))


def excedances(perm: Sequence[int]) -> int:
    """Number of positions with perm[i] > i."""
    return sum(map(gt, perm, range(1, len(perm) + 1)))


def catalan(n: int) -> int:
    """
    The n-th Catalan number (2n choose n) / (n + 1), the common size of
    S_n(321) and S_n(132).

    >>> [catalan(n) for n in range(1, 6)]
    [1, 2, 5, 14, 42]
    """
    return math.comb(2 * n, n) // (n + 1)


#: the least pad byte of _avoider_records' records, above every entry
_PAD = 128


def _require_class(n: int, pattern: str) -> None:
    _require_pattern(pattern)
    if type(n) is not int or not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"n={n!r} outside 1..{ENUMERATION_CAP}")


def _avoider_records(n: int, pattern: str) -> list[bytes]:
    # West's generating tree, read through a symmetry that maps the class
    # onto itself, grows a word by a new first entry: a parent s in
    # S_{m-1}(pattern) has the children v, s+ in S_m(pattern), where s+ is s
    # with its entries >= v raised by one.  For 321 the symmetry is irc,
    # under which inserting m at site k of x (k entries before it)
    # prepends m - k to irc(x); for 132 it is the inverse, under which
    # prepending is inserting the minimum.  Prepending v makes a 321 iff
    # the larger entry of some inversion of s lies below v, and a 132 iff
    # the smaller entry of one lies at or above v.  So the v that s takes
    # form a range lo..hi, and a child's range follows from v and s's:
    #   321: 1..v for v >= 2, since v, before the 1, is now the least
    #        larger entry of an inversion; 1..hi + 1 for v = 1;
    #   132: v..m + 1, since v - 1 follows v and every smaller entry of an
    #        inversion of s lies below v.
    # Raising is increasing, so the children taken by v, then by parent,
    # are in lexicographic order when the parents are, and nothing is
    # sorted.  A level is a list of blocks ((lo, hi), records) of words
    # that share a range, in order.  A block is one bytes object of n-byte
    # records, each word of length m right-aligned behind the pads _PAD,
    # _PAD + 1, ..., _PAD + n - m - 1; one bytes.translate of a block turns
    # the pad left of every word into v and raises the entries >= v, so a
    # level makes a few calls in C per block and runs no bytecode per
    # word.  The last level's children, S_n(pattern) in order, are returned
    # unjoined and uncached; _avoiders caches them packed.
    _require_class(n, pattern)
    pads = bytes(range(_PAD, _PAD + n))
    grown = [((1, 1), pads)]
    # only entries and pads occur, so only they need a place in the table
    table = bytearray(256)
    table[_PAD : _PAD + n] = pads
    for m in range(1, n + 1):
        blocks = [(k, b"".join([c for _, c in run])) for k, run in groupby(grown, itemgetter(0))]
        pad = _PAD + n - m
        table[1:m] = range(2, m + 1)
        grown = []
        for v in range(1, m + 1):
            # table raises v..m - 1 and writes v for the pad; the next v
            # leaves v itself in place
            table[pad] = v
            # every child v makes has one range, but for 321 the range of a
            # v = 1 child grows from its parent's (key None: read per block)
            key = (v, m + 1) if pattern == "132" else (1, v) if v > 1 else None
            grown += [
                (key or (1, hi + 1), records.translate(table))
                for (lo, hi), records in blocks
                if lo <= v <= hi
            ]
            table[v] = v
    return [children for _, children in grown]


class _Avoiders:
    """
    S_n(pattern) in class order as flat, the n-byte records joined, and
    keys, an array('Q') of one int per member whose hex digits are its
    entries (at most ENUMERATION_CAP < 16).  A member is cut as a tuple
    only when read, by index or by iteration.
    """

    __slots__ = ("n", "flat", "keys", "cut")

    def __init__(self, n: int, records: list[bytes]) -> None:
        from array import array  # here, so that importing permbij does not load array
        self.n, self.flat, self.cut = n, b"".join(records), (None, -1)
        # the low hex digit of each byte is its entry
        digits = self.flat.hex()[1::2]
        self.keys = array("Q", (int(digits[i : i + n], 16) for i in range(0, len(digits), n)))

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i: int) -> Perm:
        if not 0 <= i < len(self.keys):
            raise IndexError(i)
        member = tuple(self.flat[i * self.n : (i + 1) * self.n])
        self.cut = member, i  # for _rank
        return member

    def __iter__(self) -> Iterator[Perm]:
        # n references to one iterator: zip reads n bytes per tuple
        return zip(*[iter(self.flat)] * self.n)


# keeps the two classes of one n, as verify.run_suite sweeps them
@functools.lru_cache(maxsize=2)
def _avoiders(n: int, pattern: str) -> _Avoiders:
    return _Avoiders(n, _avoider_records(n, pattern))


def enumerate_avoiders(n: int, pattern: str) -> Iterator[Perm]:
    """
    An iterator over S_n(pattern) in lexicographic order, for int n with
    1 <= n <= ENUMERATION_CAP.  The arguments are checked at the call, not
    at the first next().  The class is grown directly by a generating tree
    (see _avoider_records), in time about catalan(n) times n and already in
    order, in place of filtering the n! words of S_n.

    >>> [format_permutation(p, compact=True) for p in enumerate_avoiders(3, "321")]
    ['123', '132', '213', '231', '312']
    """
    _require_class(n, pattern)
    return iter(_avoiders(n, pattern))


class _Record:
    """
    A frozen record of the fields its class names in __slots__, in the
    order of its constructor's parameters.  Records compare, and hash, by
    the tuple of their fields, and only with records of their own class;
    repr names every field; assigning or deleting a field raises
    AttributeError; copy and pickle rebuild a record through its public
    constructor.  A subclass's constructor checks its arguments and then
    hands the fields to _Record.__init__, or, where construction is hot,
    sets them through the slot descriptors' own __set__.

    One JSON contract serves every record: json_line writes _json(), the
    fields by name unless a subclass overrides it, with sorted keys and
    each record or tuple inside made JSON by _jsonable; from_json_line
    rebuilds the record through its class's _from_json hook, and so its
    public constructor, and raises ValueError naming the class for a line
    that does not parse, does not rebuild (as none does for a class with no
    hook), or that the record would not write back byte for byte once the
    line's keys are sorted.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        # raises TypeError when a field is unhashable, such as a dict
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._fields())

    def _json(self) -> dict:
        return dict(zip(self.__slots__, self._fields()))

    @classmethod
    def _from_json(cls, value):
        raise TypeError(f"{cls.__name__} has no JSON reader")

    def json_line(self) -> str:
        import json  # here, so that importing permbij does not import json
        return json.dumps(_jsonable(self), sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str):
        import json
        try:
            value = json.loads(line)
            record = cls._from_json(value)
            if record.json_line() != json.dumps(value, sort_keys=True):
                raise ValueError("the record read does not write the line back")
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"not a {cls.__name__} line: {exc!r}") from exc
        return record


def _jsonable(value):
    """value as JSON data: a record as the dict of its _json(), a tuple or list as a list."""
    if isinstance(value, _Record):
        return {key: _jsonable(field) for key, field in value._json().items()}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value
