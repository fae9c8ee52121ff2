"""
Two bijections from the 321-avoiders onto the 132-avoiders, each computed
by several independent routes.

The rewriting map is available as the literal iteration (gamma_iterative)
and as a one-shot template realization (gamma_template).  The tableau map
is available through four routes: the full tableau/lattice-path pipeline
(theta_rsk), the corner template (theta_corners), a slide-and-flip of the
rc-template's runs (theta_slide_flip), and transport of the rewriting map
through the half-turn (theta_via_gamma).  All routes agree point for point;
the verification suite holds them against each other exhaustively.  All six
reject a word that is not a 321-avoiding permutation with the same
ValueError, and each call checks its input once (at once for a member of
the class that verify.run_suite vouches for, by perm._vouched_rank): the
template routes through the corner layer (grid.l_corners,
grid.rcl_corners), theta_rsk through rsk.rsk_tableaux, the other two at
entry.

The literal iteration rotates the least 132 (i, j, k), values a < c < b at
positions i < j < k, to b, c, a, and two facts spare it a whole-word search
per rewrite:

(a) The start i never decreases.  Take h < i, with x at h.  Before the
    rotation h started no 132: the values above x right of h rose from
    left to right, and c < x, as (h, j, k) was no 132.  So the rotation
    moves no value above x but b, from j left to i, and a 132 from h after
    it would need some v in (x, b) between positions i and j; then
    (i, pos(v), k), with a < c < v, was a 132 with its middle before j.
(b) At one start i, j strictly increases.  Every value between positions
    i and j lies below b, or it would have been an earlier middle for i.
    The rotation puts b at i and values below b at j and k, so the next
    middle lies right of j, and right of j every value above the new
    entry at i stands where it stood when i became the start.

So each start is one phase (_least_132_rewrites), run in three steps:

1. A phase at i rotates iff i starts a 132, as no earlier position does.
   So a phase that rewrote is followed by one at i + 1, and the stack pass
   perm._least_132_start runs only after a phase that rewrote nothing.
2. A position rewritten in the phase drops below the start value a, which
   only rises, so the values above a stand where the phase found them.
   The phase reads the values right of i as it found them, sorted
   (``above``), and never changes them; a cursor s, from
   bisect_right(above, a), keeps above[s:] equal to the values above a
   right of j.  A middle candidate b > a that is above[s] is the least of
   them, so j is the middle of no 132 and s steps past b.  Any other b has
   values in (a, b) right of j, exactly above[s:t] for
   t = bisect_left(above, b, s), and after the rotation s = t + 1 steps
   past b, the new value at i.
   Only a phase after a jump sorts ``above``.  Each rotation moves its b
   out of the values right of i and its a into them, and each a but the
   first is the b before it, so a phase that rewrote leaves those values
   as ``above`` plus its first start value, less the value it left at i.
   The phase at i + 1 takes that list less the value at i + 1: one insort
   and two deletions in place of a sort of the suffix.
3. k is the leftmost position of those values, read from a value-to-
   position list that three stores per rotation keep exact.  There are
   about two at any n, and in about half of all rotations only one.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator, Sequence

from . import grid, rsk
from .perm import (
    Perm,
    _least_132_start,
    inverse_reverse_complement,
    require_321_avoider,
)


def _least_132_rewrites(word: list[int]) -> Iterator[tuple[int, int, int]]:
    """
    Rotate the values of the least 132-pattern of ``word`` in place until
    none is left, yielding each pattern's 1-based triple after its rewrite;
    one phase per start, by facts (a) and (b) and steps 1-3 above.
    """
    n = len(word)
    pos = [0] * (n + 1)
    for p, v in enumerate(word):
        pos[v] = p
    i = _least_132_start(word, 0)
    while i >= 0:
        above = sorted(word[i + 1 :])
        while True:
            a = first = word[i]
            s = bisect_right(above, a)
            for j in range(i + 1, n):
                b = word[j]
                if b < a:
                    continue
                if above[s] == b:
                    s += 1
                    continue
                t = bisect_left(above, b, s)
                k = pos[above[s]] if t - s == 1 else min(map(pos.__getitem__, above[s:t]))
                c = word[k]
                word[i], word[j], word[k] = b, c, a
                pos[b], pos[c], pos[a] = i, j, k
                yield (i + 1, j + 1, k + 1)
                a, s = b, t + 1
            if a == first:
                break
            insort(above, first)
            del above[bisect_left(above, a)]
            i += 1
            del above[bisect_left(above, word[i])]
        i = _least_132_start(word, i + 1)


def _rewrite_until_132_free(perm: Sequence[int]) -> Perm:
    """The rewriting map's loop, on a word its caller has already checked."""
    word = list(perm)
    for _ in _least_132_rewrites(word):
        pass
    if _least_132_start(word, 0) >= 0:
        raise RuntimeError("132-rewriting stopped short of a 132-free word; this is a bug")
    return tuple(word)


def gamma_iterative(perm: Sequence[int]) -> Perm:
    """
    Repeatedly rewrite the lexicographically first 132-pattern, rotating
    its three values so the smallest moves to the back, until no
    132-pattern remains.  Intermediate words may contain 321-patterns; only
    the input is required to avoid them.

    >>> gamma_iterative((1, 4, 2, 3, 7, 5, 8, 6))
    (7, 8, 6, 4, 3, 5, 2, 1)
    """
    require_321_avoider(perm)
    return _rewrite_until_132_free(perm)


def gamma_template(perm: Sequence[int]) -> Perm:
    """One-shot route: realize the diagonal redrawing of the nested template."""
    return grid.realize(grid.diagonal_template(perm))


#: the rewriting map's default route: the one-shot template realization
gamma = gamma_template


def theta_template(perm: Sequence[int]) -> grid.Template:
    """
    Template for the tableau map's image: the i-th corner pair (v, p) of
    rcl_corners() contributes an inverted L at (i, i) with vertical leg
    n + 1 - v and horizontal leg n + 1 - p.
    """
    m = len(perm) + 1
    legs = [(m - v, m - p) for v, p in grid.rcl_corners(perm)]
    # both corner coordinates rise strictly from 1 up, so the i-th L stays in the grid
    return grid.Template._trusted(m - 1, *grid._diagonal_runs(legs))


def theta_corners(perm: Sequence[int]) -> Perm:
    """Corner route: realize the rcl-corner template."""
    return grid.realize(theta_template(perm))


#: the tableau map's default route: the corner template realization
#: (Python 3.11, 2 vCPUs, alternating passes): over S_9(321) it takes 72-73
#: ms to theta_rsk's 80-81, and at n = 400 and 10^4 the two are within 3 %,
#: 0.455 ms to 0.443 and 13.2-13.5 ms to 13.0-13.1
theta = theta_corners


def slide_flip_template(perm: Sequence[int]) -> grid.Template:
    """
    The same template reached geometrically: slide the i-th inverted L of
    rc_template() so its corner lands on (i, i), which takes each leg
    (line, first, last) to (i, i, i + last - first), then flip the shading
    across the main diagonal, which swaps the row runs with the column runs.
    """
    rc = grid.rc_template(perm)
    # the i-th runs of rc are the i-th L's legs; a slid leg ends by n, as corner i is >= (i, i)
    row_runs, col_runs = (
        tuple([(i, i, i + last - first) for i, (_, first, last) in enumerate(legs, 1)])
        for legs in (rc.col_runs, rc.row_runs)
    )
    return grid.Template._trusted(rc.n, row_runs, col_runs)


def theta_slide_flip(perm: Sequence[int]) -> Perm:
    """Slide-and-flip route: realize the slid and flipped rc-template."""
    return grid.realize(slide_flip_template(perm))


def theta_rsk(perm: Sequence[int]) -> Perm:
    """
    Tableau route: insertion and recording tableaux, their up-down word,
    the region left of the walked path, then dot placement.

    >>> theta_rsk((1, 4, 2, 3, 7, 5, 8, 6))
    (7, 5, 4, 2, 3, 1, 6, 8)
    """
    insertion, recording = rsk.rsk_tableaux(perm)
    word = rsk.dyck_from_tableaux(insertion, recording)
    return grid.realize(rsk.template_from_dyck(word, len(perm)))


def theta_via_gamma(perm: Sequence[int]) -> Perm:
    """
    Transport route: the rewriting map after inverse-reverse-complement.
    The input is checked once, before the transport, which keeps a
    321-avoiding permutation 321-avoiding.
    """
    require_321_avoider(perm)
    return _rewrite_until_132_free(inverse_reverse_complement(perm))
