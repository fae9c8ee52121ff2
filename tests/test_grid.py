import itertools
import random
import re

import pytest

from permbij.grid import (
    Template,
    bar_reflect,
    diagonal_ls,
    diagonal_template,
    l_corners,
    nested_template,
    rc_realize,
    rc_template,
    rcl_corners,
    realize,
    render_ascii,
)
from permbij.maps import (
    gamma_template,
    slide_flip_template,
    theta_corners,
    theta_rsk,
    theta_slide_flip,
    theta_template,
)
from permbij.perm import bar, enumerate_avoiders, reverse_complement
from permbij.rsk import dyck_from_tableaux, rsk_tableaux, template_from_dyck

import helpers
from helpers import identity

GOLDEN = (1, 4, 2, 3, 7, 5, 8, 6)


def rows_to_squares(rows):
    return frozenset((r, c) for r, cols in rows.items() for c in cols)


def squares_template(n, squares):
    """A template with one single-square row run per square."""
    return Template(n, [(r, c, c) for r, c in squares])


# shaded columns per row of the three worked-example figures
NESTED_ROWS = {
    1: {3, 5, 6},
    2: {1, 2, 3, 5, 6},
    3: {5, 6},
    4: {5, 6},
    5: {1, 2, 3, 4, 5, 6},
    6: {6},
    7: {1, 2, 3, 4, 5, 6},
}
DIAGONAL_ROWS = {
    1: set(range(1, 7)),
    2: set(range(1, 7)),
    3: set(range(1, 6)),
    4: {1, 2, 3},
    5: {1, 2},
    6: {1, 2},
    7: {1},
}
RC_ROWS = {
    3: {4, 5, 6, 7, 8},
    4: {4},
    5: {4},
    6: {4, 7, 8},
    7: {4, 7},
    8: {4, 7, 8},
}


# ----------------------------------------------------------------- Template

def test_template_rejects_out_of_grid_squares():
    with pytest.raises(ValueError, match="outside"):
        Template(2, [(3, 1, 1)])
    with pytest.raises(ValueError, match="outside"):
        Template(2, [], [(1, 2, 3)])
    with pytest.raises(ValueError, match="empty"):
        Template(2, [(1, 2, 1)])
    with pytest.raises(ValueError, match="positive"):
        Template(0)


@pytest.mark.parametrize(
    "fields",
    [(3, [(1, 1.0, 2)]), (2.0,), (3, [(1, 1, True)]), (3, [], [(1.0, 1, 2)]), (True,)],
)
def test_template_rejects_fields_that_are_not_ints(fields):
    # a float or bool that got past the constructor would make realize
    # answer where == and render_ascii raise TypeError
    with pytest.raises(ValueError, match="ints"):
        Template(*fields)


@pytest.mark.parametrize("runs", [[5], None, [(1, 1)]])
def test_template_rejects_runs_that_are_not_triples(runs):
    # each used to leak a TypeError, or an unpacking ValueError
    with pytest.raises(ValueError, match="triples"):
        Template(3, runs)


def test_template_coerces_shading_to_frozenset():
    t = Template(2, [[1, 1, 1], (1, 1, 1)])
    assert t.row_runs == ((1, 1, 1), (1, 1, 1))
    assert t.shaded == frozenset({(1, 1)})
    assert helpers.shaded_row(t, 1) == frozenset({1})
    assert helpers.shaded_row(t, 2) == frozenset()


# runs of one column that nest, overlap, touch, repeat or leave a gap, each
# beside a run of another column; and templates with no column runs at all
SAME_COLUMN_RUNS = {
    "nested": Template(5, [], [(2, 1, 5), (2, 2, 3), (4, 2, 2)]),
    "overlapping": Template(5, [(3, 1, 3)], [(2, 2, 5), (2, 1, 3), (3, 4, 5)]),
    "touching": Template(5, [], [(2, 3, 5), (2, 1, 2), (4, 2, 2)]),
    "repeated": Template(5, [], [(3, 2, 4), (3, 2, 4), (1, 5, 5)]),
    "gapped": Template(5, [], [(3, 3, 5), (3, 1, 1), (1, 2, 2)]),
    "no column runs": Template(5, [(2, 1, 5), (4, 3, 3)]),
    "empty, n = 1": Template(1),
}


def test_template_equality_goes_by_squares():
    # an L as one row run and one column run, as three single squares,
    # and as two overlapping runs of the same row: one shading
    ell = Template(3, [(1, 1, 2)], [(1, 1, 2)])
    assert ell == squares_template(3, {(1, 1), (1, 2), (2, 1)})
    assert ell == Template(3, [(1, 1, 1), (1, 1, 2), (2, 1, 1)])
    assert hash(ell) == hash(squares_template(3, ell.shaded))
    assert ell != Template(3, [(1, 1, 2)])
    assert ell != Template(4, [(1, 1, 2)], [(1, 1, 2)])
    # each fixed case against its single squares, as row runs and as column
    # runs, against every one-square change, and against the other cases
    for name, t in SAME_COLUMN_RUNS.items():
        n, squares = t.n, t.shaded
        down = Template(n, [], [(c, r, r) for r, c in squares])
        for copy in (squares_template(n, squares), down):
            assert t == copy and hash(t) == hash(copy), name
        for square in itertools.product(range(1, n + 1), repeat=2):
            assert t != squares_template(n, squares ^ {square}), (name, square)
        for other in SAME_COLUMN_RUNS.values():
            assert (t == other) == (t.n == other.n and squares == other.shaded), name
            if t == other:
                assert hash(t) == hash(other), name
    assert SAME_COLUMN_RUNS["nested"] == SAME_COLUMN_RUNS["touching"]


def random_cover(squares, rng):
    """
    Row runs and column runs whose union is exactly ``squares``: every run
    lies inside the set, and runs may overlap, abut or repeat.
    """
    runs = ([], [])
    left = set(squares)
    while left:
        r, c = rng.choice(sorted(left))
        down = rng.random() < 0.5
        line, first = (c, r) if down else (r, c)

        def square(x):
            return (x, line) if down else (line, x)

        last = first
        while square(first - 1) in squares and rng.random() < 0.8:
            first -= 1
        while square(last + 1) in squares and rng.random() < 0.8:
            last += 1
        runs[down].extend([(line, first, last)] * rng.choice((1, 1, 1, 1, 2)))
        left -= {square(x) for x in range(first, last + 1)}
    return runs


def test_template_equality_is_square_set_equality_on_random_runs():
    rng = random.Random(10)
    for n in range(1, 8):
        for _ in range(400):
            row_runs, col_runs = random_runs(n, rng)
            # inverted L's, whose two runs share the corner, and full lines
            for _ in range(rng.randrange(3)):
                r, c = rng.randint(1, n), rng.randint(1, n)
                row_runs.append((r, c, n))
                col_runs.append((c, r, n))
            if rng.random() < 0.3:
                row_runs.append((rng.randint(1, n), 1, n))
            a = Template(n, row_runs, col_runs)
            squares = a.shaded
            if rng.random() < 0.5:
                squares = squares ^ {(rng.randint(1, n), rng.randint(1, n))}
            b = Template(n, *random_cover(squares, rng))
            assert b.shaded == squares
            assert (a == b) == (a.shaded == b.shaded)
            if a == b:
                assert hash(a) == hash(b)
    # and the fixed cases against random covers of their own squares
    for name, a in SAME_COLUMN_RUNS.items():
        for _ in range(50):
            b = Template(a.n, *random_cover(a.shaded, rng))
            assert a == b and hash(a) == hash(b), name


# ------------------------------------------------------------ realizations

def test_realize_empty_grid_gives_identity():
    # every row's search walks past all the dots placed so far
    for n in (3, 64, 10_000):
        assert realize(Template(n)) == tuple(range(1, n + 1))
    # row r shaded over columns 1..n-r: the anti-staircase realizes to the
    # reversal
    n = 10_000
    assert realize(Template(n, [(r, 1, n - r) for r in range(1, n)])) == tuple(range(n, 0, -1))


def test_realize_golden_figures():
    assert realize(squares_template(8, rows_to_squares(NESTED_ROWS))) == GOLDEN
    assert realize(squares_template(8, rows_to_squares(DIAGONAL_ROWS))) == (7, 8, 6, 4, 3, 5, 2, 1)


def test_realize_raises_when_a_row_is_blocked():
    with pytest.raises(ValueError, match="no admissible square in row 1"):
        realize(Template(1, [(1, 1, 1)]))


def test_a_fully_shaded_row_raises_like_the_literal_placement():
    for n in range(1, 6):
        for row in range(1, n + 1):
            # a full row, once as one run and once as a column run per square
            for t in (
                Template(n, [(row, 1, n)]),
                Template(n, [], [(c, row, row) for c in range(1, n + 1)]),
            ):
                message = f"^no admissible square in row {row}$"
                for placement, oracle in (
                    (realize, helpers.realize_by_squares),
                    (rc_realize, helpers.rc_realize_by_squares),
                ):
                    with pytest.raises(ValueError, match=message):
                        oracle(n, t.shaded)
                    with pytest.raises(ValueError, match=message):
                        placement(t)


def random_runs(n, rng):
    """Up to 2n runs of each kind, anywhere in the grid, free to overlap."""
    runs = []
    for _ in range(2):
        kind = []
        for _ in range(rng.randrange(2 * n + 1)):
            first = rng.randint(1, n)
            kind.append((rng.randint(1, n), first, rng.randint(first, n)))
        runs.append(kind)
    return runs


def outcome(placement, *args):
    try:
        return placement(*args)
    except ValueError as exc:
        return str(exc)


def test_placements_match_the_literal_rules_on_random_runs():
    # overlapping runs, several per line, and blocked rows: shapes that no
    # builder draws; the larger sizes straddle multiples of 64, where a
    # word-based set of columns would split
    rng = random.Random(0)
    sizes = [(n, 300) for n in range(1, 13)] + [(n, 20) for n in (63, 64, 65, 127, 128, 129)]
    for n, draws in sizes:
        for _ in range(draws):
            t = Template(n, *random_runs(n, rng))
            assert outcome(realize, t) == outcome(helpers.realize_by_squares, n, t.shaded)
            assert outcome(rc_realize, t) == outcome(helpers.rc_realize_by_squares, n, t.shaded)


def test_rc_realize_empty_grid_gives_identity():
    assert rc_realize(Template(3)) == (1, 2, 3)


def test_rc_realize_golden_figure():
    assert rc_realize(squares_template(8, rows_to_squares(RC_ROWS))) == GOLDEN


def test_rc_realize_blocked_grid_raises_on_both_routes():
    # {(1,1)} with n=2: the direct rule blocks row 1, and the bar-reflected
    # grid blocks row 2 under realize; the two rules must fail together.
    t = Template(2, [(1, 1, 1)])
    with pytest.raises(ValueError, match="no admissible square"):
        rc_realize(t)
    with pytest.raises(ValueError, match="no admissible square"):
        realize(bar_reflect(t))


def test_rc_realize_matches_bar_reflection_route():
    for n in range(1, 8):
        for p in enumerate_avoiders(n, "321"):
            t = rc_template(p)
            via_reflection = reverse_complement(realize(bar_reflect(t)))
            assert rc_realize(t) == via_reflection


def test_bar_reflect_is_an_involution():
    t = squares_template(8, rows_to_squares(RC_ROWS))
    assert bar_reflect(bar_reflect(t)) == t


# ----------------------------------------------------------------- corners

def test_l_corners_golden():
    assert l_corners(GOLDEN) == [(7, 6), (5, 5), (2, 3)]


def test_l_corners_trivial():
    assert l_corners(identity(5)) == []
    assert l_corners((2, 1)) == [(1, 1)]


def test_l_corners_rejects_321():
    with pytest.raises(ValueError, match="321"):
        l_corners((3, 2, 1))


def test_l_corners_strictly_decrease_in_both_coordinates():
    for n in range(1, 10):
        for p in enumerate_avoiders(n, "321"):
            corners = l_corners(p)
            positions = [q for q, _ in corners]
            values = [v for _, v in corners]
            assert positions == sorted(positions, reverse=True)
            assert values == sorted(values, reverse=True)
            assert len(set(positions)) == len(positions)
            assert len(set(values)) == len(values)


def test_l_corners_match_pair_scan():
    for n in range(1, 10):
        for p in enumerate_avoiders(n, "321"):
            assert l_corners(p) == helpers.l_corners_by_pair_scan(p)


def test_rcl_corners_golden():
    assert rcl_corners(GOLDEN) == [(4, 3), (7, 6), (8, 8)]


def test_rcl_corners_trivial():
    assert rcl_corners(identity(4)) == []
    assert rcl_corners((2, 1)) == [(2, 2)]


def test_rcl_corners_match_smallest_element_rule():
    # independent characterization: iterate smallest 2-/1-values upward
    for n in range(1, 11):
        for p in enumerate_avoiders(n, "321"):
            assert rcl_corners(p) == helpers.rcl_corners_by_smallest_rule(p)


@pytest.mark.parametrize("sizes", [
    pytest.param(range(1, 11), id="n1-10"),
    pytest.param((11, 12), marks=pytest.mark.ci, id="n11-12"),
])
def test_rcl_corners_are_the_half_turned_l_corners(sizes):
    # the definition, through l_corners' sweep, which rcl_corners shares no code with
    for n in sizes:
        for p in enumerate_avoiders(n, "321"):
            assert rcl_corners(p) == helpers.half_turned_l_corners(p), p


# ---------------------------------------------------------------- builders

def test_nested_template_golden_matches_figure():
    assert nested_template(GOLDEN).shaded == rows_to_squares(NESTED_ROWS)


def test_nested_template_trivial():
    assert nested_template(identity(4)).shaded == frozenset()
    assert nested_template((2, 1)).shaded == frozenset({(1, 1)})


def test_diagonal_template_golden_matches_figure():
    assert diagonal_template(GOLDEN).shaded == rows_to_squares(DIAGONAL_ROWS)


def test_diagonal_template_trivial():
    assert diagonal_template(identity(4)).shaded == frozenset()
    assert diagonal_template((2, 1)).shaded == frozenset({(1, 1)})


def test_diagonal_ls_rejects_legs_leaving_the_grid():
    # the public Template constructor rejects the leg's run
    message = "column run (1, 1, 4) is empty or lies outside the 3x3 grid"
    with pytest.raises(ValueError, match=re.escape(message)):
        diagonal_ls(3, [(4, 1)])
    message = "column run (2, 2, 4) is empty or lies outside the 3x3 grid"
    with pytest.raises(ValueError, match=re.escape(message)):
        diagonal_ls(3, [(1, 1), (3, 1)])


def test_diagonal_ls_rejects_negative_legs_with_the_run_message():
    # a negative leg stays inside the grid's bound, so the public Template
    # constructor is what rejects its run
    message = "column run (1, 1, -1) is empty or lies outside the 3x3 grid"
    with pytest.raises(ValueError, match=re.escape(message)):
        diagonal_ls(3, [(-1, 1)])
    message = "row run (1, 1, -1) is empty or lies outside the 3x3 grid"
    with pytest.raises(ValueError, match=re.escape(message)):
        diagonal_ls(3, [(1, -1)])


@pytest.mark.parametrize("sizes", [
    pytest.param(range(1, 9), id="n1-8"),
    pytest.param((9,), marks=pytest.mark.ci, id="n9"),
    pytest.param((10,), marks=pytest.mark.ci, id="n10"),
])
def test_builders_rebuild_through_the_public_constructors(sizes):
    # the builders skip the public constructors' checks; every output of
    # every class member must pass them unchanged
    for n in sizes:
        for p in enumerate_avoiders(n, "321"):
            assert helpers.public_rebuild_problems(p) == [], p


def test_rc_template_golden_matches_figure():
    assert rc_template(GOLDEN).shaded == rows_to_squares(RC_ROWS)


def test_rc_template_trivial():
    assert rc_template(identity(4)).shaded == frozenset()
    assert rc_template((2, 1)).shaded == frozenset({(2, 2)})


def test_rc_template_is_bar_reflected_nested_template():
    for n in range(1, 8):
        for p in enumerate_avoiders(n, "321"):
            reflected = bar_reflect(nested_template(reverse_complement(p)))
            assert rc_template(p) == reflected


def test_realize_round_trips_whole_classes():
    # the builders never produce a blocked grid, and realizations invert them
    for n in range(1, 9):
        for p in enumerate_avoiders(n, "321"):
            assert realize(nested_template(p)) == p
            assert rc_realize(rc_template(p)) == p


def builders_against_square_rules(p):
    """
    Every builder's template for p, each beside the square set that the
    per-square drawing rule gives from the same corner or path data, and
    the image of the route that realizes it (None for the builders no
    route realizes).
    """
    n = len(p)
    corners = l_corners(p)
    rc_corners = rcl_corners(p)
    word = dyck_from_tableaux(*rsk_tableaux(p))
    theta_legs = [(bar(v, n), bar(q, n)) for v, q in rc_corners]
    rc = rc_template(p)
    rc_squares = helpers.rc_ls_squares(n, rc_corners)
    return [
        (nested_template(p), helpers.reversed_ls_squares(corners), None),
        (diagonal_template(p), helpers.diagonal_ls_squares(corners), gamma_template(p)),
        (rc, rc_squares, None),
        (theta_template(p), helpers.diagonal_ls_squares(theta_legs), theta_corners(p)),
        (slide_flip_template(p), helpers.slide_flip_squares(n, rc_corners), theta_slide_flip(p)),
        (template_from_dyck(word, n), helpers.staircase_squares(word, n), theta_rsk(p)),
        (bar_reflect(rc), helpers.bar_reflect_squares(n, rc_squares), None),
    ]


def assert_builders_match_square_rules(p):
    n = len(p)
    for template, squares, image in builders_against_square_rules(p):
        assert template.n == n
        assert template.shaded == squares
        placed = outcome(helpers.realize_by_squares, n, squares)
        assert outcome(realize, template) == placed
        assert image is None or image == placed
        assert outcome(rc_realize, template) == outcome(
            helpers.rc_realize_by_squares, n, squares
        )


def test_builders_match_square_rules_on_whole_classes():
    for n in range(1, 10):
        for p in enumerate_avoiders(n, "321"):
            assert_builders_match_square_rules(p)


def test_builders_match_square_rules_at_n_1000():
    assert_builders_match_square_rules(
        helpers.uniform_321_avoider(1000, random.Random("1:1000"))
    )


# ---------------------------------------------------------------- rendering

def test_render_empty_with_identity_dots():
    assert render_ascii(Template(2), (1, 2)) == "o.\n.o"


def test_render_shading_without_dots():
    assert render_ascii(Template(2, [(1, 1, 1)])) == "#.\n.."


def test_render_diagnostic_glyph_for_dot_on_shading():
    assert render_ascii(Template(2, [(1, 1, 1)]), (1, 2)) == "@.\n.o"


def test_render_rejects_mismatched_dots():
    with pytest.raises(ValueError, match="length"):
        render_ascii(Template(3), (1, 2))
    # dots of the grid's length that are not a permutation of 1..n
    for dots in [(0, 7), (1.0, 2)]:
        with pytest.raises(ValueError, match=re.escape("not a permutation of 1..n (n=2)")):
            render_ascii(Template(2), dots)


def test_render_golden_nested_template():
    expected = "\n".join(
        [
            "o.#.##..",
            "###o##..",
            ".o..##..",
            "..o.##..",
            "######o.",
            "....o#..",
            "######.o",
            ".....o..",
        ]
    )
    assert render_ascii(nested_template(GOLDEN), GOLDEN) == expected


def test_render_has_no_trailing_spaces_and_square_shape():
    text = render_ascii(rc_template(GOLDEN), GOLDEN)
    lines = text.split("\n")
    assert len(lines) == 8
    assert all(len(line) == 8 for line in lines)
    assert all(line == line.rstrip() for line in lines)
