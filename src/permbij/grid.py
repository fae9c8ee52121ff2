"""
Shaded-square templates on an n-by-n grid.

Squares are (row, column) pairs with rows counted from the top and columns
from the left, both 1-based.  A template stores its shading as runs: a row
run (row, first column, last column) shades a segment of one row, and a
column run (column, first row, last row) a segment of one column.  An
inverted L is one run of each kind and a staircase row is one row run, so
every builder here costs O(n) in all and never lists squares.  Templates
compare by a bitmask of shaded columns per row, from one sweep in which the
sorted column runs toggle bits, so equality never lists squares either; the
square set (Template.shaded) is built on each access, and in this library
only render_ascii reads it.
The public Template constructor validates every run.  Library builders,
whose runs lie in the grid by construction, call Template._trusted, which
does not: a verifier sweep to n = 9 builds about 10^5 templates.

A template determines a permutation through greedy dot placement:
realize() fills rows top to bottom, putting a dot in the leftmost unshaded
square of each row whose column is still dot-free; rc_realize() is the
half-turned rule, filling rows bottom to top with the rightmost unshaded
square whose column holds no dot below.  Both work on the runs directly:
after sorting the runs, the free columns are the 1 bytes of a bytearray,
and each search for the least free column at or right of a point is one
bytearray.find (a memchr in C); all told they scan Theta(n^2) bytes at worst.

The builders consume the corner data of a 321-avoiding permutation:

* l_corners() lists the corners of nested reversed L's reaching the top
  and left borders; nested_template() draws them, and realizing that
  template returns the original word.
* rcl_corners() is the same corner data read through the half-turn
  v -> n + 1 - v, by a sweep of its own; rc_template() draws inverted L's
  reaching the bottom and right borders, and rc_realize() on the result
  returns the original word.
* diagonal_ls() packs inverted L's along the main diagonal, the shape that
  every 132-avoider's diagram takes.
"""
from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, chain
from operator import itemgetter, xor

from .perm import Perm, _Record, require_321_avoider, require_permutation, reverse_complement

Square = tuple[int, int]

#: (line, first, last): a row run shades columns first..last of one row,
#: a column run rows first..last of one column
Run = tuple[int, int, int]

_FIRST = itemgetter(1)
_LAST = itemgetter(2)


class Template(_Record):
    """
    The shaded squares of an n-by-n grid, as row runs and column runs that
    may overlap.  Equality and hashing go by the square set, so two run
    decompositions of one shading are equal.  The constructor stores runs
    as tuples and rejects runs that are not sequences of triples, a size or
    entry whose type is not int (so no bool), and a run that is empty or
    leaves the grid; library builders call _trusted, which skips these
    checks for runs valid by construction.
    """

    __slots__ = ("n", "row_runs", "col_runs")

    def __init__(self, n: int, row_runs: Sequence[Run] = (), col_runs: Sequence[Run] = ()) -> None:
        triples = "runs must be sequences of (line, first, last) triples"
        # a list first: tuple() of an unsized iterator over-allocates
        try:
            row_runs = tuple(list(map(tuple, row_runs)))
            col_runs = tuple(list(map(tuple, col_runs)))
        except TypeError:
            raise ValueError(triples) from None
        if {*map(len, row_runs), *map(len, col_runs)} - {3}:
            raise ValueError(triples)
        if {type(n), *map(type, chain(*row_runs, *col_runs))} != {int}:
            raise ValueError("grid size and run entries must be ints")
        if n < 1:
            raise ValueError(f"grid size must be positive, got {n}")
        for kind, runs in (("row", row_runs), ("column", col_runs)):
            for line, first, last in runs:
                if not (1 <= line <= n and 1 <= first <= last <= n):
                    raise ValueError(
                        f"{kind} run {(line, first, last)} is empty or lies "
                        f"outside the {n}x{n} grid"
                    )
        _SET_N(self, n)
        _SET_ROW_RUNS(self, row_runs)
        _SET_COL_RUNS(self, col_runs)

    @classmethod
    def _trusted(cls, n: int, row_runs: tuple[Run, ...], col_runs: tuple[Run, ...] = ()):
        template = object.__new__(cls)
        _SET_N(template, n)
        _SET_ROW_RUNS(template, row_runs)
        _SET_COL_RUNS(template, col_runs)
        return template

    @property
    def shaded(self) -> frozenset[Square]:
        """The shaded squares, materialized from the runs on each access."""
        across = [(r, c) for r, a, b in self.row_runs for c in range(a, b + 1)]
        down = [(r, c) for c, a, b in self.col_runs for r in range(a, b + 1)]
        return frozenset(across + down)

    def _row_masks(self) -> list[int]:
        # bit c of entry r is set iff square (r, c) is shaded.  The sorted
        # column runs, each cut past the rows its column already reaches,
        # toggle bit c at their first row and after their last row.
        toggles = [0] * (self.n + 2)
        column = reach = 0
        for c, a, b in sorted(self.col_runs):
            if c != column:
                column, reach = c, 0
            if b > reach:
                toggles[a if a > reach else reach + 1] ^= 1 << c
                toggles[b + 1] ^= 1 << c
                reach = b
        rows = list(accumulate(toggles, xor)) if self.col_runs else toggles
        for r, a, b in self.row_runs:
            rows[r] |= (2 << b) - (1 << a)
        return rows

    def __eq__(self, other):
        if not isinstance(other, Template):
            return NotImplemented
        if self.row_runs == other.row_runs and self.col_runs == other.col_runs:
            return self.n == other.n  # identical runs shade identical squares
        return self.n == other.n and self._row_masks() == other._row_masks()

    def __hash__(self):
        return hash((self.n, *self._row_masks()))


#: the slot descriptors' setters: both constructors fill a template with
#: three C calls, which cost less than a __dict__ update or a Python-level
#: _Record.__init__, and _trusted runs no Python-level frame but its own
_SET_N, _SET_ROW_RUNS, _SET_COL_RUNS = (
    Template.n.__set__, Template.row_runs.__set__, Template.col_runs.__set__
)


def realize(template: Template) -> Perm:
    """
    Place dots row by row from the top, each in the leftmost unshaded
    square whose column holds no dot yet, and read the permutation off the
    dot columns.  Raises when some row has no admissible square, i.e. when
    the shading is not a template for any permutation.
    """
    dots = _leftmost_dots(template.n, template.row_runs, template.col_runs)
    if len(dots) < template.n:
        raise ValueError(f"no admissible square in row {len(dots) + 1}")
    return tuple(dots)


def rc_realize(template: Template) -> Perm:
    """
    The half-turned placement rule: rows bottom to top, each dot in the
    rightmost unshaded square whose column holds no dot in the rows below.
    Computed as bar-reflecting the template, realizing, and
    reverse-complementing the result.
    """
    n = template.n
    dots = _leftmost_dots(n, *_half_turn(template))
    if len(dots) < n:
        raise ValueError(f"no admissible square in row {n - len(dots)}")
    return reverse_complement(dots)


def _leftmost_dots(n: int, row_runs: Sequence[Run], col_runs: Sequence[Run]) -> list[int]:
    """
    realize()'s dot columns for the shading of these runs, row by row,
    stopping before the first row that has no admissible square.

    ``cover`` counts, per column, the column runs over the current row,
    plus one for good once the column holds a dot; a column is free while
    its count is 0.  Byte c of ``free`` is 1 iff column c is free, and
    byte 0, for the missing column 0, stays 0, so the least free column at
    or right of x is free.find(1, x), and -1 when there is none.  A row's
    dot is that search from column 1, repeated past the end of every row
    run of the row that the candidate lands in.
    """
    free = bytearray(b"\0" + b"\1" * n)
    cover = [0] * (n + 1)
    # each list ends in a sentinel that stops its scan
    opening = sorted(col_runs, key=_FIRST)
    opening.append((0, n + 1, n + 1))
    closing = sorted(col_runs, key=_LAST)
    closing.append((0, n + 1, n + 1))
    row_runs = sorted(row_runs)
    row_runs.append((n + 1, 0, 0))
    o = c = k = 0
    dots = []
    for row in range(1, n + 1):
        while opening[o][1] == row:
            col = opening[o][0]
            o += 1
            cover[col] += 1
            free[col] = 0
        while closing[c][2] < row:
            col = closing[c][0]
            c += 1
            cover[col] -= 1
            if not cover[col]:
                free[col] = 1
        while row_runs[k][0] < row:
            k += 1
        x = 1
        while True:
            col = free.find(1, x)
            if col < 0:
                return dots
            while row_runs[k][0] == row and row_runs[k][1] <= col:
                if row_runs[k][2] >= x:
                    x = row_runs[k][2] + 1
                k += 1
            if x <= col:
                break
        cover[col] += 1
        free[col] = 0
        dots.append(col)
    return dots


def bar_reflect(template: Template) -> Template:
    """Rotate the shading by a half turn: (i, j) -> (n+1-i, n+1-j)."""
    # the half turn maps the grid onto itself, so valid runs stay valid
    return Template._trusted(template.n, *_half_turn(template))


def _half_turn(template: Template) -> tuple[tuple[Run, ...], tuple[Run, ...]]:
    # the row runs and column runs of the half-turned shading
    m = template.n + 1
    return (
        tuple([(m - r, m - b, m - a) for r, a, b in template.row_runs]),
        tuple([(m - c, m - b, m - a) for c, a, b in template.col_runs]),
    )


def l_corners(perm: Sequence[int]) -> list[tuple[int, int]]:
    """
    The (position, value) corner pairs of a 321-avoider, in generation
    order.  The first corner pairs the position of the largest "2" (left
    member of a 21-pattern) with the value of the largest "1" (right
    member); each later corner repeats the rule on the 21-patterns whose
    members are strictly smaller than the previous corner's two values.
    Positions and values both strictly decrease along the list, which is
    empty iff the word is increasing.

    In a 321-avoider the 2s and the 1s both increase left to right, so one
    right-to-left sweep finds every corner, in O(n) all told: the next
    corner's 2 is the rightmost position x, left of the last one, with a
    later value below both perm[x] and the last corner's 1.  Every later
    value below perm[x] is a 1, so the corner's 1 is the rightmost of them
    left of the last corner's 1, and it lies right of x.

    >>> l_corners((1, 4, 2, 3, 7, 5, 8, 6))
    [(7, 6), (5, 5), (2, 3)]
    """
    require_321_avoider(perm)
    return _corner_sweep(perm)


def _corner_sweep(perm: Sequence[int]) -> list[tuple[int, int]]:
    # l_corners without the input check, for callers that have made it
    n = len(perm)
    # after[x] is the least value right of position x
    after = list(accumulate(reversed(perm), min, initial=n + 1))[-2::-1]
    corners: list[tuple[int, int]] = []
    one_cap = n + 1
    x = y = n
    while True:
        x -= 1
        while x >= 0 and (after[x] >= perm[x] or after[x] >= one_cap):
            x -= 1
        if x < 0:
            return corners
        y -= 1
        while y > x and perm[y] >= perm[x]:
            y -= 1
        if y == x:
            raise RuntimeError("l_corners lost the 1 of a corner; this is a bug")
        corners.append((x + 1, perm[y]))
        one_cap = perm[y]


def nested_template(perm: Sequence[int]) -> Template:
    """
    The union of reversed L's, one per corner (p, v): all of row p out to
    the left border plus all of column v up to the top border.  The
    smallest L may degenerate to a segment; realizing the union returns
    the original permutation.
    """
    corners = l_corners(perm)
    # each corner (p, v) is a square, so both runs of its L lie in the grid
    return Template._trusted(
        len(perm), tuple([(p, 1, v) for p, v in corners]), tuple([(v, 1, p) for p, v in corners])
    )


def diagonal_ls(n: int, legs: Sequence[tuple[int, int]]) -> Template:
    """
    Inverted L's packed along the main diagonal: the i-th (1-based) has its
    corner at (i, i), a vertical leg of legs[i-1][0] squares running down,
    and a horizontal leg of legs[i-1][1] squares running right, with the
    corner counted in both legs.  Zero-length legs contribute nothing.
    """
    return Template(n, *_diagonal_runs(legs))


def _diagonal_runs(legs: Sequence[tuple[int, int]]) -> tuple[tuple[Run, ...], ...]:
    row_runs = []
    col_runs = []
    for i, (vert, horiz) in enumerate(legs, start=1):
        if vert:
            col_runs.append((i, i, i + vert - 1))
        if horiz:
            row_runs.append((i, i, i + horiz - 1))
    return tuple(row_runs), tuple(col_runs)


def diagonal_template(perm: Sequence[int]) -> Template:
    """
    The nested template redrawn along the diagonal: corner (p, v) becomes
    an inverted L at (i, i) with vertical leg p and horizontal leg v.
    Realizing it yields the image of the 132-rewriting map.
    """
    # both corner coordinates fall strictly from n down, so the i-th L stays in the grid
    return Template._trusted(len(perm), *_diagonal_runs(l_corners(perm)))


def rcl_corners(perm: Sequence[int]) -> list[tuple[int, int]]:
    """
    The (value, position) corner pairs of the half-turn: the corners of
    the reverse-complement, both coordinates pulled back through
    v -> n + 1 - v.  Returned in increasing order (both coordinates grow
    together).  Intrinsically, the first pair is (smallest 2-value,
    position of the smallest 1-value) and each later pair repeats that
    rule on the 21-patterns whose members are strictly larger than the
    previous pair's two values.

    The half-turn defines the pairs; one left-to-right sweep of perm by the
    intrinsic rule finds them, in O(n).  A 321-avoider's 2s and 1s both
    increase, so the next 1 is the leftmost x, right of the last, with an
    earlier value above perm[x] and the last 2; every earlier value above
    perm[x] is a 2, and the pair's is the leftmost right of the last 2.

    >>> rcl_corners((1, 4, 2, 3, 7, 5, 8, 6))
    [(4, 3), (7, 6), (8, 8)]
    """
    require_321_avoider(perm)
    # before[x] is the greatest value left of position x
    before = list(accumulate(perm, max, initial=0))
    corners: list[tuple[int, int]] = []
    two_floor = y = 0
    for x, v in enumerate(perm):
        if before[x] > v and before[x] > two_floor:
            while y < x and perm[y] <= v:
                y += 1
            if y == x:
                raise RuntimeError("rcl_corners lost the 2 of a corner; this is a bug")
            two_floor = perm[y]
            corners.append((two_floor, x + 1))
            y += 1
    return corners


def rc_template(perm: Sequence[int]) -> Template:
    """
    Inverted L's anchored at square (p, v) for each corner pair (v, p) of
    rcl_corners(), extending to the right and bottom borders; the i-th row
    run and the i-th column run are the legs of the i-th L.  rc_realize() on
    the result returns the original permutation, and the square set equals
    the bar-reflection of the reverse-complement's nested template.
    """
    n = len(perm)
    corners = rcl_corners(perm)
    # each corner (p, v) is a square, so both runs of its L lie in the grid
    return Template._trusted(
        n, tuple([(p, v, n) for v, p in corners]), tuple([(v, p, n) for v, p in corners])
    )


def render_ascii(template: Template, dots: Perm | None = None) -> str:
    """
    One text row per grid row, no trailing spaces: '#' shaded, '.'
    unshaded, 'o' a dot on an unshaded square, '@' a dot on a shaded square
    (a diagnostic state that no valid realization produces).  Raises
    ValueError unless dots, when given, is a permutation of 1..n.
    """
    n = template.n
    if dots is not None:
        if len(dots) != n:
            raise ValueError(f"dots have length {len(dots)}, grid has n={n}")
        require_permutation(dots)
    shading = template.shaded
    lines = []
    for row in range(1, n + 1):
        dot_col = dots[row - 1] if dots is not None else 0
        glyphs = []
        for col in range(1, n + 1):
            shaded = (row, col) in shading
            if col == dot_col:
                glyphs.append("@" if shaded else "o")
            else:
                glyphs.append("#" if shaded else ".")
        lines.append("".join(glyphs))
    return "\n".join(lines)
