"""Brute-force oracles the tests hold the library against.

Everything here recomputes results from first principles (literal triple
scans, polygon membership, recursive generation) so that a library bug
cannot hide behind shared code.  The uniform sampler of S_n(321) at the
end feeds the large-n checks, and likewise uses nothing from the library.
The exceptions are public_rebuild_problems, which holds the library's
builders to its own public constructors, and half_turned_l_corners, which
reads rcl_corners' data through l_corners' sweep; ROUTE_CALLS is no
oracle but a declared ledger of the library functions each map route
calls, LARGEST_N the one table of the sizes that the large-n checks and
bench/layers.py stop the costly paths at, and run_python runs a new
interpreter on the library.
"""
import bisect
import itertools


def identity(n):
    """The increasing word 1 2 ... n."""
    return tuple(range(1, n + 1))


def all_words(n):
    """Every word of S_n, lexicographic."""
    return itertools.permutations(range(1, n + 1))


def avoiders_by_filter(n, pattern):
    """S_n(pattern) in lexicographic order, by filtering all n! words."""
    return [w for w in all_words(n) if not contains_by_triples(w, pattern)]


def contains_by_triples(word, pattern):
    """Literal scan of all position triples."""
    for i, j, k in itertools.combinations(range(len(word)), 3):
        a, b, c = word[i], word[j], word[k]
        if pattern == "321" and a > b > c:
            return True
        if pattern == "132" and b > c > a:
            return True
    return False


def contains_132_by_pairs(word):
    """
    Every pair j < k with word[j] > word[k], held against the least value
    left of j: quadratic, for words too long for the triple scan.
    """
    least = float("inf")
    for j, b in enumerate(word):
        if least < b:
            for c in word[j + 1 :]:
                if least < c < b:
                    return True
        least = min(least, b)
    return False


def contains_321_by_excedances(word):
    """
    A permutation avoids 321 iff its excedance values (entries above their
    position) increase and so do its other values: two list passes, for
    classes too large for the triple scan.
    """
    above = [v for i, v in enumerate(word, start=1) if v > i]
    rest = [v for i, v in enumerate(word, start=1) if v <= i]
    return above != sorted(above) or rest != sorted(rest)


def fixed_points_by_loop(word):
    """Positions i with word[i] == i (1-based), counted one by one."""
    count = 0
    for i, v in enumerate(word, start=1):
        if v == i:
            count += 1
    return count


def excedances_by_loop(word):
    """Positions i with word[i] > i (1-based), counted one by one."""
    count = 0
    for i, v in enumerate(word, start=1):
        if v > i:
            count += 1
    return count


def smallest_132_by_triples(word):
    """Minimum over every 132 triple, computed without early exit."""
    hits = [
        (i + 1, j + 1, k + 1)
        for i, j, k in itertools.combinations(range(len(word)), 3)
        if word[j] > word[k] > word[i]
    ]
    return min(hits) if hits else None


def smallest_132_by_passes(word):
    """
    The least 132 triple (1-based), or None, in three linear passes: the
    least i, then the least j for that i, then the least k for both.  Linear,
    for words too long for the pair scan.
    """
    n = len(word)
    # i: right to left, every value waits on a stack until the first larger
    # value left of it pops it; ``two``, the largest value popped so far, is
    # the largest value right of the current position with a larger value
    # between them, so any value below it starts a 132
    stack = []
    two = float("-inf")
    i = None
    for pos in range(n - 1, -1, -1):
        v = word[pos]
        if v < two:
            i = pos
        while stack and stack[-1] < v:
            two = max(two, stack.pop())
        stack.append(v)
    if i is None:
        return None
    # j: the least position whose value exceeds some smaller value above
    # word[i] to its right, i.e. exceeds the least such value
    a = word[i]
    low = float("inf")
    j = None
    for pos in range(n - 1, i, -1):
        v = word[pos]
        if v > a:
            if v > low:
                j = pos
            else:
                low = v
    b = word[j]
    k = next(k for k in range(j + 1, n) if a < word[k] < b)
    return (i + 1, j + 1, k + 1)


def least_132_rewrites(word, search):
    """
    The rewriting map, literally: rotate the values of the 132 triple that
    ``search`` returns (1-based, None once there is none) until there is
    none.  Returns the triples in order and the final word.
    """
    word = list(word)
    triples = []
    while (triple := search(word)) is not None:
        i, j, k = (t - 1 for t in triple)
        word[i], word[j], word[k] = word[j], word[k], word[i]
        triples.append(triple)
    return triples, tuple(word)


def dyck_words(n):
    """All balanced up-down words of length 2n, by recursive extension."""

    def extend(word, ups, downs):
        if ups == downs == n:
            yield "".join(word)
            return
        if ups < n:
            word.append("u")
            yield from extend(word, ups + 1, downs)
            word.pop()
        if downs < ups:
            word.append("d")
            yield from extend(word, ups, downs + 1)
            word.pop()

    yield from extend([], 0, 0)


def left_of_path_by_polygon(word, n):
    """
    Squares left of the lattice path, decided by even-odd ray casting
    against the closed polygon path + top border + left border.  Grid
    coordinates: x right along columns, y up along rows, origin at the
    grid's lower-left corner.
    """
    points = [(0, 0)]
    x = y = 0
    for step in word:
        if step == "u":
            y += 1
        else:
            x += 1
        points.append((x, y))
    points.append((0, n))  # close along the top border, then down the left

    squares = set()
    for row in range(1, n + 1):
        for col in range(1, n + 1):
            px, py = col - 0.5, n - row + 0.5
            inside = False
            for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
                if (y1 > py) != (y2 > py):
                    x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                    if px < x_cross:
                        inside = not inside
            if inside:
                squares.add((row, col))
    return squares


def rcl_corners_by_smallest_rule(perm):
    """
    Corner pairs (value, position) grown from below: start from the
    smallest 2-value and the smallest 1-value, then repeat on 21-patterns
    whose members exceed the previous pair's two values.
    """
    n = len(perm)
    corners = []
    two_floor = one_floor = 0
    while True:
        pairs = [
            (x, y)
            for x in range(n)
            for y in range(x + 1, n)
            if perm[x] > perm[y] and perm[x] > two_floor and perm[y] > one_floor
        ]
        if not pairs:
            return corners
        two_val = min(perm[x] for x, _ in pairs)
        one_val = min(perm[y] for _, y in pairs)
        corners.append((two_val, perm.index(one_val) + 1))
        two_floor, one_floor = two_val, one_val


def half_turned_l_corners(perm):
    """
    rcl_corners' definition through the library's other sweep: the
    l_corners of the reverse-complement, both coordinates pulled back
    through v -> n + 1 - v.  Linear, for words too long for the oracles.
    """
    from permbij.grid import l_corners
    from permbij.perm import reverse_complement

    m = len(perm) + 1
    return [(m - v, m - p) for p, v in l_corners(reverse_complement(perm))]


def l_corners_by_pair_scan(perm):
    """
    Corner pairs (position, value) grown from above, rescanning every
    21-pair for each corner: the largest 2-value and the largest 1-value
    among pairs whose members lie below the previous corner's two values.
    """
    n = len(perm)
    corners = []
    two_cap = one_cap = n + 1
    while True:
        pairs = [
            (x, y)
            for x in range(n)
            for y in range(x + 1, n)
            if perm[y] < perm[x] and perm[x] < two_cap and perm[y] < one_cap
        ]
        if not pairs:
            return corners
        two_val = max(perm[x] for x, _ in pairs)
        one_val = max(perm[y] for _, y in pairs)
        corners.append((perm.index(two_val) + 1, one_val))
        two_cap, one_cap = two_val, one_val


def uniform_321_avoider(n, rng):
    """
    A uniformly random member of S_n(321), drawn with ``rng`` (a
    ``random.Random``) through the RSK correspondence, which pairs S_n(321)
    with the Dyck words of length 2n:

    1. Cycle lemma: exactly one of the 2n + 1 rotations of a shuffle of n
       up-steps and n + 1 down-steps is a Dyck word followed by a
       down-step; it starts just after the first lowest point of the walk.
    2. The Dyck word's first half, as a ballot sequence (value t in the top
       row iff step t rises), is the insertion tableau; its second half,
       reversed with the steps swapped, is the recording tableau.  Both
       have the same two-row shape.
    3. Two-row insertion is undone from the largest recorded value down.
    """
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    heights = list(itertools.accumulate(steps))
    cut = heights.index(min(heights)) + 1
    dyck = (steps[cut:] + steps[:cut])[:-1]
    first = dyck[:n]
    second = [-s for s in reversed(dyck[n:])]
    top = [t for t, s in enumerate(first, start=1) if s > 0]
    bottom = [t for t, s in enumerate(first, start=1) if s < 0]
    recorded_below = {t for t, s in enumerate(second, start=1) if s < 0}
    word = [0] * n
    for t in range(n, 0, -1):
        if t in recorded_below:
            x = bottom.pop()
            # x was bumped out of the top row by the value it now replaces:
            # the largest top-row entry below x (the top row increases)
            spot = bisect.bisect_left(top, x) - 1
            word[t - 1], top[spot] = top[spot], x
        else:
            word[t - 1] = top.pop()
    return tuple(word)


#: the largest n at which a check of verify.CHECKS or a layer of
#: bench/layers.py runs on a seeded input, by name; a name not here runs at
#: every size.  gamma_iterative and theta_via_gamma make about n^2.1
#: rewrites; the four template-equality checks compare about n^2 bits,
#: some 2.5 GB at n = 10^5.
LARGEST_N = {
    **dict.fromkeys(("theorem3", "fact3-route-agreement", "maps.gamma_iterative",
                     "maps.theta_via_gamma", "cli.map.gamma-iterative",
                     "cli.map.theta-via-gamma"), 2000),
    **dict.fromkeys(("lemma1", "theorem1-route", "theorem2-route", "bar-reflection"), 30_000),
}


def run_python(*args, stdin=None):
    """
    What ``python *args`` prints, run in a new process on this checkout's
    src/ with stdin as its input.  A nonzero exit raises AssertionError
    with the tail of the output and the error output.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    if result.returncode:
        raise AssertionError(f"python {' '.join(args)[:200]} exited {result.returncode}:\n"
                             f"{result.stdout[-2000:]}{result.stderr}")
    return result.stdout


# ------------------------------------------------- builders, rebuilt in public

def _ints_in_tuples(value):
    """True iff value is an int (not a bool), or a tuple of such values."""
    return type(value) is int or (type(value) is tuple and all(map(_ints_in_tuples, value)))


def public_rebuild_problems(sigma):
    """
    Every template a library builder draws for sigma and both tableaux of
    rsk_tableaux, rebuilt through the public constructors, which run the
    checks that the builders' private constructors skip.  Returns one line
    per output that the rebuild rejects or changes: its fields must be
    equal and be ints or tuples of them on both sides, and the two must
    compare equal and hash alike; a pickled and unpickled copy must keep
    the fields too.
    """
    import pickle

    from permbij import grid, maps, rsk

    ins, rec = rsk.rsk_tableaux(sigma)
    rc = grid.rc_template(sigma)
    outputs = {
        "nested_template": grid.nested_template(sigma),
        "diagonal_template": grid.diagonal_template(sigma),
        "rc_template": rc,
        "bar_reflect": grid.bar_reflect(rc),
        "theta_template": maps.theta_template(sigma),
        "slide_flip_template": maps.slide_flip_template(sigma),
        "template_from_dyck": rsk.template_from_dyck(
            rsk.dyck_from_tableaux(ins, rec), len(sigma)
        ),
        "insertion tableau": ins,
        "recording tableau": rec,
    }
    problems = []
    for name, built in outputs.items():
        fields = _record_fields(built)
        try:
            rebuilt = type(built)(*fields)
        except ValueError as exc:
            problems.append(f"{name}: the public constructor rejects it: {exc}")
            continue
        if _record_fields(rebuilt) != fields:
            problems.append(f"{name}: the public constructor changes its fields")
        elif not (_ints_in_tuples(fields) and _ints_in_tuples(_record_fields(rebuilt))):
            problems.append(f"{name}: a field is not an int or a tuple of ints")
        elif rebuilt != built or hash(rebuilt) != hash(built):
            problems.append(f"{name}: the rebuilt copy compares or hashes differently")
        elif _record_fields(pickle.loads(pickle.dumps(built))) != fields:
            problems.append(f"{name}: a pickled and unpickled copy changes its fields")
    return problems


#: the fields of each builder output's class, in its constructor's order
_FIELDS = {"Template": ("n", "row_runs", "col_runs"), "TwoRowTableau": ("row1", "row2")}


def _record_fields(record):
    """A template's or tableau's fields, read by name."""
    return tuple(getattr(record, name) for name in _FIELDS[type(record).__name__])


# ------------------------------------------------- what each route shares

# The permbij functions each map route enters on a 321-avoider, named
# "module.function" without the package.  Names are code names, as Python
# 3.10 has no qualified ones, so "grid._trusted" is Template._trusted and
# "rsk._trusted" TwoRowTableau._trusted.  tests/test_maps.py records the
# calls of each route and holds them to ROUTE_CALLS, so a route that starts
# or stops sharing a function with another fails until this table changes.
_INPUT_CHECK = {
    "perm.require_permutation", "perm._vouched_rank", "perm._rank", "perm.is_permutation"
}
_NO_321 = {"perm.require_321_avoider", "perm._contains_321"}
_REWRITING = {"maps._rewrite_until_132_free", "maps._least_132_rewrites", "perm._least_132_start"}
#: the unchecked Template constructor and the one realization, shared by
#: all four template routes
_REALIZATION = {"grid._trusted", "grid.realize", "grid._leftmost_dots"}

ROUTE_CALLS = {
    "gamma_iterative": {"maps.gamma_iterative", *_REWRITING, *_INPUT_CHECK, *_NO_321},
    "theta_via_gamma": {
        "maps.theta_via_gamma",
        "perm.inverse_reverse_complement",
        "perm.inverse",
        "perm.reverse_complement",
        *_REWRITING,
        *_INPUT_CHECK,
        *_NO_321,
    },
    "gamma_template": {
        "maps.gamma_template",
        "grid.diagonal_template",
        "grid.l_corners",
        "grid._corner_sweep",
        "grid._diagonal_runs",
        *_REALIZATION,
        *_INPUT_CHECK,
        *_NO_321,
    },
    "theta_corners": {
        "maps.theta_corners",
        "maps.theta_template",
        "grid.rcl_corners",
        "grid._diagonal_runs",
        *_REALIZATION,
        *_INPUT_CHECK,
        *_NO_321,
    },
    "theta_slide_flip": {
        "maps.theta_slide_flip",
        "maps.slide_flip_template",
        "grid.rc_template",
        "grid.rcl_corners",
        *_REALIZATION,
        *_INPUT_CHECK,
        *_NO_321,
    },
    "theta_rsk": {
        "maps.theta_rsk",
        "rsk.rsk_tableaux",
        "rsk._trusted",
        "rsk.dyck_from_tableaux",
        "rsk.shape",
        "rsk._half_word",
        "rsk.size",
        "rsk.template_from_dyck",
        "rsk._downs_before_ups",
        "rsk._staircase",
        *_REALIZATION,
        *_INPUT_CHECK,
    },
}


# ------------------------------------------------- templates, square by square

def shaded_row(template, i):
    """The shaded columns of row i, read off the template's square set."""
    return frozenset(c for r, c in template.shaded if r == i)


def realize_by_squares(n, shaded):
    """
    Literal dot placement: rows top to bottom, each dot in the leftmost
    square outside ``shaded`` whose column holds no dot yet.
    """
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


def rc_realize_by_squares(n, shaded):
    """
    Literal half-turned placement: rows bottom to top, each dot in the
    rightmost square outside ``shaded`` whose column holds no dot below.
    """
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


def reversed_ls_squares(corners):
    """Each corner (p, v): row p from column 1 to v, column v from row 1 to p."""
    squares = set()
    for p, v in corners:
        squares.update((p, j) for j in range(1, v + 1))
        squares.update((i, v) for i in range(1, p + 1))
    return squares


def diagonal_ls_squares(legs):
    """The i-th L: column i from row i down legs[i-1][0] squares, row i right legs[i-1][1]."""
    squares = set()
    for i, (vert, horiz) in enumerate(legs, start=1):
        squares.update((r, i) for r in range(i, i + vert))
        squares.update((i, c) for c in range(i, i + horiz))
    return squares


def rc_ls_squares(n, corners):
    """Each corner pair (v, p): row p from column v to n, column v from row p to n."""
    squares = set()
    for v, p in corners:
        squares.update((p, j) for j in range(v, n + 1))
        squares.update((i, v) for i in range(p, n + 1))
    return squares


def slide_flip_squares(n, corners):
    """
    The i-th rc L, cornered at (p, v) for corner pair (v, p), slid square by
    square so its corner lands on (i, i), then flipped (r, c) -> (c, r).
    """
    squares = set()
    for i, (v, p) in enumerate(corners, start=1):
        ell = [(p, c) for c in range(v, n + 1)] + [(r, v) for r in range(p, n + 1)]
        squares.update((c - v + i, r - p + i) for r, c in ell)
    return squares


def staircase_squares(word, n):
    """Row i from the top: columns 1 .. (d's before the (n - i + 1)-th u)."""
    widths = []
    downs = 0
    for step in word:
        if step == "d":
            downs += 1
        else:
            widths.append(downs)
    return {(i, j) for i in range(1, n + 1) for j in range(1, widths[n - i] + 1)}


def bar_reflect_squares(n, squares):
    """Every square (i, j) sent to (n + 1 - i, n + 1 - j)."""
    return {(n + 1 - i, n + 1 - j) for i, j in squares}

