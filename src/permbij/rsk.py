"""
Two-row insertion and recording tableaux, the balanced up-down word they
define, and the staircase region that word cuts out of the square grid.

Only the two-row case is implemented: a bumped entry always lands at the
end of the second row, never deeper.  Words whose insertion would need a
third row (exactly those containing a 321-pattern) are rejected.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from operator import lt, neg

from .grid import Template
from .perm import Perm, _Record, require_permutation

UP = "u"
DOWN = "d"

_SWAP_STEPS = str.maketrans({UP: DOWN, DOWN: UP})


class TwoRowTableau(_Record):
    """
    A standard Young tableau of at most two rows on {1, ..., n} with int entries,
    checked by the constructor, which stores the rows as tuples; rsk_tableaux
    builds standard rows, so it calls _trusted.
    """

    __slots__ = ("row1", "row2")

    def __init__(self, row1: Sequence[int], row2: Sequence[int] = ()) -> None:
        try:
            r1, r2 = tuple(row1), tuple(row2)
        except TypeError:
            raise ValueError("tableau rows must be sequences of ints") from None
        if not {*map(type, r1 + r2)} <= {int}:
            raise ValueError("tableau entries must be ints")
        if len(r1) < len(r2):
            raise ValueError("first row is shorter than the second")
        for row in (r1, r2):
            if not all(map(lt, row, row[1:])):
                raise ValueError(f"row {row} is not strictly increasing")
        if sorted(r1 + r2) != list(range(1, len(r1) + len(r2) + 1)):
            raise ValueError("rows must partition 1..n")
        # map stops at the end of r2, which is no longer than r1
        if not all(map(lt, r1, r2)):
            raise ValueError("columns must increase downward")
        _SET_ROW1(self, r1)
        _SET_ROW2(self, r2)

    @classmethod
    def _trusted(cls, row1: tuple[int, ...], row2: tuple[int, ...]):
        tableau = object.__new__(cls)
        _SET_ROW1(tableau, row1)
        _SET_ROW2(tableau, row2)
        return tableau

    @property
    def size(self) -> int:
        return len(self.row1) + len(self.row2)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row1), len(self.row2))


#: the slot descriptors' setters, with which both constructors fill a
#: tableau, as grid.Template's do
_SET_ROW1, _SET_ROW2 = TwoRowTableau.row1.__set__, TwoRowTableau.row2.__set__


def rsk_tableaux(perm: Sequence[int]) -> tuple[TwoRowTableau, TwoRowTableau]:
    """
    Row insertion, left to right.  A value larger than everything in the
    first row is appended there; otherwise it bumps the leftmost larger
    first-row entry to the end of the second row.  The recording tableau
    stores, in the cell each step fills for the first time, the index of
    that step.  Raises ValueError unless the input is a permutation
    (require_permutation), and when a bumped entry would land below the
    current end of the second row, which happens iff the input contains a
    321-pattern.

    >>> ins, rec = rsk_tableaux((1, 4, 2, 3, 7, 5, 8, 6))
    >>> ins.row1, ins.row2
    ((1, 2, 3, 5, 6), (4, 7, 8))
    >>> rec.row1, rec.row2
    ((1, 2, 4, 5, 7), (3, 6, 8))
    """
    require_permutation(perm)
    ins1: list[int] = []
    ins2: list[int] = []
    rec1: list[int] = []
    rec2: list[int] = []
    for step, value in enumerate(perm, start=1):
        if not ins1 or value > ins1[-1]:
            ins1.append(value)
            rec1.append(step)
            continue
        j = bisect_left(ins1, value)
        bumped = ins1[j]
        ins1[j] = value
        if ins2 and bumped < ins2[-1]:
            raise ValueError("permutation contains a 321-pattern")
        ins2.append(bumped)
        rec2.append(step)
    # two-row insertion of a 321-free permutation yields standard tableaux
    return (
        TwoRowTableau._trusted(tuple(ins1), tuple(ins2)),
        TwoRowTableau._trusted(tuple(rec1), tuple(rec2)),
    )


def _tableaux_of(perm: Perm) -> tuple[TwoRowTableau, TwoRowTableau]:
    # rsk_tableaux(perm), kept for the last tuple by identity: lemma1's two sides read one
    global _last
    last = _last  # read once and rebound whole, so another thread's tableaux are never returned
    if last[0] is not perm or last[1] is not rsk_tableaux or type(perm) is not tuple:
        last = _last = perm, rsk_tableaux, rsk_tableaux(perm)
    return last[2]


_last = None, None, None  # the tuple, the rsk_tableaux called and its tableaux


def _half_word(tableau: TwoRowTableau) -> str:
    steps = [DOWN] * tableau.size
    for i in tableau.row1:
        steps[i - 1] = UP
    return "".join(steps)


def dyck_from_tableaux(ins: TwoRowTableau, rec: TwoRowTableau) -> str:
    """
    First half: scan the values 1..n, writing 'u' for each value in the
    insertion tableau's first row and 'd' for each in its second.  Second
    half: build the same word from the recording tableau, reverse it, and
    interchange 'u' with 'd'.  The concatenation is always a balanced
    up-down word.

    >>> dyck_from_tableaux(*rsk_tableaux((1, 4, 2, 3, 7, 5, 8, 6)))
    'uuuduuddududdudd'
    """
    if ins.shape != rec.shape:
        raise ValueError(f"tableau shapes differ: {ins.shape} vs {rec.shape}")
    first = _half_word(ins)
    second = _half_word(rec)[::-1].translate(_SWAP_STEPS)
    return first + second


def validate_dyck(word: str) -> bool:
    """
    True iff the word is over {u, d} with equal step counts and no prefix
    holding more d's than u's.

    >>> validate_dyck("uuuduuddududdudd"), validate_dyck("duud"), validate_dyck("uu")
    (True, False, False)
    """
    return _downs_before_ups(word) is not None


def _downs_before_ups(word: str) -> list[int] | None:
    # One walk of the word: the number of d's before each u, or None when
    # the word is not balanced, that is when it holds a step other than u
    # and d, a prefix with more d's than u's, or unequal step counts.
    downs_before_up: list[int] = []
    downs = 0
    for step in word:
        if step == UP:
            downs_before_up.append(downs)
        elif step == DOWN:
            downs += 1
            if downs > len(downs_before_up):
                return None
        else:
            return None
    return downs_before_up if downs == len(downs_before_up) else None


def template_from_dyck(word: str, n: int) -> Template:
    """
    Walk the word as a lattice path from the grid's lower-left corner, one
    edge up per 'u' and one edge right per 'd', and shade every square
    strictly left of the path.  Row i from the top is one row run from
    column 1, as wide as the number of d's before the (n - i + 1)-th u.

    >>> sorted(template_from_dyck("udud", 2).shaded)
    [(1, 1)]
    """
    if type(n) is not int or n < 1:
        Template(n)  # raises the public constructor's ValueError for this size
    downs_before_up = _downs_before_ups(word) if len(word) == 2 * n else None
    if downs_before_up is None:
        raise ValueError(f"not a balanced up-down word of length {2 * n}: {word!r}")
    # a balanced word of length 2n gives n rows, each at most n wide
    return _staircase(n, reversed(downs_before_up))


def _staircase(n: int, widths: Iterable[int]) -> Template:
    """The template whose row i is one run from column 1, widths[i - 1] wide."""
    return Template._trusted(n, tuple([(i, 1, w) for i, w in enumerate(widths, start=1) if w]))


def _widths(template: Template, n: int) -> list[int] | None:
    # the row widths, non-rising, of the staircase that template shades, else None
    if type(template) is Template:
        widths = sorted([last for _, _, last in template.row_runs] + [0] * n, reverse=True)[:n]
        if template == _staircase(n, widths):
            return widths
    return None


def _hooks(widths: Sequence[int]) -> Template:
    # _staircase of non-rising widths w as diagonal hooks, apart from grid._diagonal_runs:
    # while w_i >= i, row i from column i to w_i, column i down to the last row >= i wide
    row_runs = tuple([(i, i, w) for i, w in enumerate(widths, 1) if w >= i])
    col_runs = tuple([(i, i, bisect_right(widths, -i, key=neg)) for i, _, _ in row_runs])
    return Template._trusted(len(widths), row_runs, col_runs)
