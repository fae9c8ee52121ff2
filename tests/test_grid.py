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
from permbij.perm import enumerate_avoiders, identity, reverse_complement

import helpers

GOLDEN = (1, 4, 2, 3, 7, 5, 8, 6)


def rows_to_squares(rows):
    return frozenset((r, c) for r, cols in rows.items() for c in cols)


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
        Template(2, {(3, 1)})
    with pytest.raises(ValueError, match="positive"):
        Template(0, set())


def test_template_coerces_shading_to_frozenset():
    t = Template(2, [(1, 1), (1, 1)])
    assert t.shaded == frozenset({(1, 1)})
    assert t.row(1) == frozenset({1})
    assert t.row(2) == frozenset()


# ------------------------------------------------------------ realizations

def test_realize_empty_grid_gives_identity():
    assert realize(Template(3)) == (1, 2, 3)


def test_realize_golden_figures():
    assert realize(Template(8, rows_to_squares(NESTED_ROWS))) == GOLDEN
    assert realize(Template(8, rows_to_squares(DIAGONAL_ROWS))) == (7, 8, 6, 4, 3, 5, 2, 1)


def test_realize_raises_when_a_row_is_blocked():
    with pytest.raises(ValueError, match="no admissible square in row 1"):
        realize(Template(1, {(1, 1)}))


def test_rc_realize_empty_grid_gives_identity():
    assert rc_realize(Template(3)) == (1, 2, 3)


def test_rc_realize_golden_figure():
    assert rc_realize(Template(8, rows_to_squares(RC_ROWS))) == GOLDEN


def test_rc_realize_blocked_grid_raises_on_both_routes():
    # {(1,1)} with n=2: the direct rule blocks row 1, and the bar-reflected
    # grid blocks row 2 under realize; the two rules must fail together.
    t = Template(2, {(1, 1)})
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
    t = Template(8, rows_to_squares(RC_ROWS))
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
    for n in range(1, 10):
        for p in enumerate_avoiders(n, "321"):
            assert rcl_corners(p) == helpers.rcl_corners_by_smallest_rule(p)


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
    with pytest.raises(ValueError, match="leaves the grid"):
        diagonal_ls(3, [(4, 1)])
    with pytest.raises(ValueError, match="leaves the grid"):
        diagonal_ls(3, [(1, 1), (3, 1)])


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


# ---------------------------------------------------------------- rendering

def test_render_empty_with_identity_dots():
    assert render_ascii(Template(2), (1, 2)) == "o.\n.o"


def test_render_shading_without_dots():
    assert render_ascii(Template(2, {(1, 1)})) == "#.\n.."


def test_render_diagnostic_glyph_for_dot_on_shading():
    assert render_ascii(Template(2, {(1, 1)}), (1, 2)) == "@.\n.o"


def test_render_rejects_mismatched_dots():
    with pytest.raises(ValueError, match="length"):
        render_ascii(Template(3), (1, 2))


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
