"""
Shaded-square templates on an n-by-n grid.

Squares are (row, column) pairs with rows counted from the top and columns
from the left, both 1-based.  A template determines a permutation through
greedy dot placement: realize() fills rows top to bottom, putting a dot in
the leftmost unshaded square of each row whose column is still dot-free;
rc_realize() is the half-turned rule, filling rows bottom to top with the
rightmost unshaded square whose column holds no dot below.

The builders consume the corner data of a 321-avoiding permutation:

* l_corners() lists the corners of nested reversed L's reaching the top
  and left borders; nested_template() draws them, and realizing that
  template returns the original word.
* rcl_corners() is the same corner data read through the half-turn
  v -> n + 1 - v; rc_template() draws inverted L's reaching the bottom and
  right borders, and rc_realize() on the result returns the original word.
* diagonal_ls() packs inverted L's along the main diagonal, the shape that
  every 132-avoider's diagram takes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perm import Perm, bar, require_321_avoider, reverse_complement

Square = tuple[int, int]


@dataclass(frozen=True)
class Template:
    """A set of shaded squares inside an n-by-n grid."""

    n: int
    shaded: frozenset[Square] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "shaded", frozenset(self.shaded))
        if self.n < 1:
            raise ValueError(f"grid size must be positive, got {self.n}")
        for row, col in self.shaded:
            if not (1 <= row <= self.n and 1 <= col <= self.n):
                raise ValueError(
                    f"square ({row}, {col}) lies outside the {self.n}x{self.n} grid"
                )

    def row(self, i: int) -> frozenset[int]:
        """The shaded columns of row i."""
        return frozenset(c for r, c in self.shaded if r == i)


def realize(template: Template) -> Perm:
    """
    Place dots row by row from the top, each in the leftmost unshaded
    square whose column holds no dot yet, and read the permutation off the
    dot columns.  Raises when some row has no admissible square, i.e. when
    the shading is not a template for any permutation.
    """
    n = template.n
    shaded = template.shaded
    used_cols = set()
    word = []
    for row in range(1, n + 1):
        for col in range(1, n + 1):
            if col not in used_cols and (row, col) not in shaded:
                used_cols.add(col)
                word.append(col)
                break
        else:
            raise ValueError(f"no admissible square in row {row}")
    return tuple(word)


def rc_realize(template: Template) -> Perm:
    """
    The half-turned placement rule: rows bottom to top, each dot in the
    rightmost unshaded square whose column holds no dot in the rows below.
    Equivalent to bar-reflecting the template, realizing, and
    reverse-complementing the result.
    """
    n = template.n
    shaded = template.shaded
    used_cols = set()
    word = [0] * n
    for row in range(n, 0, -1):
        for col in range(n, 0, -1):
            if col not in used_cols and (row, col) not in shaded:
                used_cols.add(col)
                word[row - 1] = col
                break
        else:
            raise ValueError(f"no admissible square in row {row}")
    return tuple(word)


def bar_reflect(template: Template) -> Template:
    """Rotate the shading by a half turn: (i, j) -> (n+1-i, n+1-j)."""
    n = template.n
    return Template(n, frozenset((bar(r, n), bar(c, n)) for r, c in template.shaded))


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
    after = [0] * n
    least = n + 1
    for x in range(n - 1, -1, -1):
        after[x] = least
        least = min(least, perm[x])
    corners: list[tuple[int, int]] = []
    one_cap = n + 1
    x = y = n
    while True:
        x -= 1
        while x >= 0 and after[x] >= min(perm[x], one_cap):
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
    n = len(perm)
    squares = set()
    for p, v in l_corners(perm):
        squares.update((p, j) for j in range(1, v + 1))
        squares.update((i, v) for i in range(1, p + 1))
    return Template(n, frozenset(squares))


def diagonal_ls(n: int, legs: Sequence[tuple[int, int]]) -> Template:
    """
    Inverted L's packed along the main diagonal: the i-th (1-based) has its
    corner at (i, i), a vertical leg of legs[i-1][0] squares running down,
    and a horizontal leg of legs[i-1][1] squares running right, with the
    corner counted in both legs.  Zero-length legs contribute nothing.
    """
    squares = set()
    for i, (vert, horiz) in enumerate(legs, start=1):
        if i + vert - 1 > n or i + horiz - 1 > n:
            raise ValueError(
                f"inverted L at ({i}, {i}) with legs ({vert}, {horiz}) leaves the grid"
            )
        squares.update((r, i) for r in range(i, i + vert))
        squares.update((i, c) for c in range(i, i + horiz))
    return Template(n, frozenset(squares))


def diagonal_template(perm: Sequence[int]) -> Template:
    """
    The nested template redrawn along the diagonal: corner (p, v) becomes
    an inverted L at (i, i) with vertical leg p and horizontal leg v.
    Realizing it yields the image of the 132-rewriting map.
    """
    return diagonal_ls(len(perm), l_corners(perm))


def rcl_corners(perm: Sequence[int]) -> list[tuple[int, int]]:
    """
    The (value, position) corner pairs obtained by taking the corners of
    the reverse-complement and pulling both coordinates back through
    v -> n + 1 - v.  Returned in increasing order (both coordinates grow
    together).  Intrinsically, the first pair is (smallest 2-value,
    position of the smallest 1-value) and each later pair repeats that
    rule on the 21-patterns whose members are strictly larger than the
    previous pair's two values.

    >>> rcl_corners((1, 4, 2, 3, 7, 5, 8, 6))
    [(4, 3), (7, 6), (8, 8)]
    """
    require_321_avoider(perm)
    n = len(perm)
    flipped = _corner_sweep(reverse_complement(perm))
    return sorted((bar(b, n), bar(a, n)) for a, b in flipped)


def rc_template(perm: Sequence[int]) -> Template:
    """
    Inverted L's anchored at square (p, v) for each corner pair (v, p) of
    rcl_corners(), extending to the right and bottom borders.  rc_realize()
    on the result returns the original permutation, and the square set
    equals the bar-reflection of the reverse-complement's nested template.
    """
    n = len(perm)
    squares = set()
    for v, p in rcl_corners(perm):
        squares.update((p, j) for j in range(v, n + 1))
        squares.update((i, v) for i in range(p, n + 1))
    return Template(n, frozenset(squares))


def render_ascii(template: Template, dots: Perm | None = None) -> str:
    """
    One text row per grid row, no trailing spaces: '#' shaded, '.'
    unshaded, 'o' a dot on an unshaded square, '@' a dot on a shaded square
    (a diagnostic state that no valid realization produces).
    """
    n = template.n
    if dots is not None and len(dots) != n:
        raise ValueError(f"dots have length {len(dots)}, grid has n={n}")
    lines = []
    for row in range(1, n + 1):
        dot_col = dots[row - 1] if dots is not None else 0
        glyphs = []
        for col in range(1, n + 1):
            shaded = (row, col) in template.shaded
            if col == dot_col:
                glyphs.append("@" if shaded else "o")
            else:
                glyphs.append("#" if shaded else ".")
        lines.append("".join(glyphs))
    return "\n".join(lines)
