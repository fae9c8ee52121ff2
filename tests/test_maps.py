import random
import sys

import pytest

from permbij import grid, perm, rsk
from permbij.maps import (
    _least_132_rewrites,
    gamma,
    gamma_iterative,
    gamma_template,
    slide_flip_template,
    theta,
    theta_corners,
    theta_rsk,
    theta_slide_flip,
    theta_template,
    theta_via_gamma,
)
from permbij.perm import (
    avoids,
    catalan,
    enumerate_avoiders,
    excedances,
    fixed_points,
    inverse,
    inverse_reverse_complement,
)

import helpers
from helpers import identity

GOLDEN = (1, 4, 2, 3, 7, 5, 8, 6)
GOLDEN_GAMMA = (7, 8, 6, 4, 3, 5, 2, 1)
GOLDEN_THETA = (7, 5, 4, 2, 3, 1, 6, 8)

ALL_THETA_ROUTES = (theta_rsk, theta_corners, theta_slide_flip, theta_via_gamma)
ALL_ROUTES = (gamma_iterative, gamma_template, *ALL_THETA_ROUTES)
NON_PERMUTATIONS = [
    (1, 1), (2, 3), (0, 1), (5, 1), (), (2.0, 1.0), ("1", "2"), (True, 2), (2, True),
]


# ------------------------------------------------------------ the rewriting map

def test_single_rewrite_rotates_the_first_pattern():
    word = list(GOLDEN)
    assert next(_least_132_rewrites(word)) == (1, 2, 3)
    assert tuple(word) == (4, 2, 1, 3, 7, 5, 8, 6)


def test_rewrite_reports_exhaustion():
    word = [3, 2, 1]
    assert list(_least_132_rewrites(word)) == []
    assert word == [3, 2, 1]


def test_rewrites_step_for_step_with_the_literal_loop():
    for n in range(1, 9):
        for p in enumerate_avoiders(n, "321"):
            word = list(p)
            triples = list(_least_132_rewrites(word))
            assert (triples, tuple(word)) == helpers.least_132_rewrites(
                p, helpers.smallest_132_by_triples
            )


def test_rewrites_step_for_step_on_every_word():
    # facts (a) and (b), on which each phase rests, hold for any word, and
    # only words with sparse 132 starts reach a phase that rewrites nothing
    for n in range(1, 8):
        for p in helpers.all_words(n):
            word = list(p)
            triples = list(_least_132_rewrites(word))
            assert (triples, tuple(word)) == helpers.least_132_rewrites(
                p, helpers.smallest_132_by_triples
            )


def test_gamma_iterative_golden():
    assert gamma_iterative(GOLDEN) == GOLDEN_GAMMA


def test_gamma_iterative_trivial():
    assert gamma_iterative(identity(5)) == identity(5)
    assert gamma_iterative((2, 1)) == (2, 1)


def test_gamma_template_golden():
    assert gamma_template(GOLDEN) == GOLDEN_GAMMA
    assert gamma_template(identity(4)) == identity(4)
    assert gamma_template((2, 1)) == (2, 1)


def test_gamma_routes_agree():
    for n in range(1, 8):
        for p in enumerate_avoiders(n, "321"):
            assert gamma_iterative(p) == gamma_template(p)


# -------------------------------------------------------------- the tableau map

def test_theta_routes_golden():
    for route in ALL_THETA_ROUTES:
        assert route(GOLDEN) == GOLDEN_THETA


def test_theta_routes_trivial():
    for route in ALL_THETA_ROUTES:
        assert route(identity(4)) == identity(4)
        assert route((2, 1)) == (2, 1)


def test_theta_via_gamma_passes_through_the_half_turn():
    assert inverse_reverse_complement(GOLDEN) == (2, 4, 1, 3, 7, 5, 6, 8)
    assert gamma_iterative((2, 4, 1, 3, 7, 5, 6, 8)) == GOLDEN_THETA


def test_theta_routes_agree():
    for n in range(1, 8):
        for p in enumerate_avoiders(n, "321"):
            values = {route(p) for route in ALL_THETA_ROUTES}
            assert len(values) == 1


def test_theta_templates_agree_square_for_square():
    for n in range(1, 7):
        for p in enumerate_avoiders(n, "321"):
            assert theta_template(p).shaded == slide_flip_template(p).shaded


def test_theta_template_golden_row_widths():
    t = theta_template(GOLDEN)
    widths = [len(helpers.shaded_row(t, i)) for i in range(1, 9)]
    assert widths == [6, 4, 3, 1, 1, 0, 0, 0]


# ------------------------------------------------------------------ contracts

@pytest.mark.parametrize("route", ALL_ROUTES)
def test_routes_reject_321_containing_input(route):
    with pytest.raises(ValueError, match="^permutation contains a 321-pattern$"):
        route((3, 2, 1))
    with pytest.raises(ValueError, match="^permutation contains a 321-pattern$"):
        route((2, 5, 4, 1, 3))


@pytest.mark.parametrize("word", NON_PERMUTATIONS, ids=str)
@pytest.mark.parametrize("route", ALL_ROUTES)
def test_routes_reject_non_permutations(route, word):
    with pytest.raises(ValueError, match="not a permutation"):
        route(word)


@pytest.mark.parametrize("word", NON_PERMUTATIONS, ids=str)
@pytest.mark.parametrize(
    "builder",
    (
        grid.l_corners,
        grid.rcl_corners,
        grid.nested_template,
        grid.diagonal_template,
        grid.rc_template,
        theta_template,
        slide_flip_template,
        rsk.rsk_tableaux,
    ),
    ids=lambda fn: fn.__name__,
)
def test_corner_builders_reject_non_permutations(builder, word):
    with pytest.raises(ValueError, match="not a permutation"):
        builder(word)


@pytest.mark.parametrize("route", ALL_ROUTES, ids=lambda fn: fn.__name__)
def test_routes_check_their_input_once(route, monkeypatch):
    calls = []
    check = perm.is_permutation

    def counted(word):
        calls.append(word)
        return check(word)

    monkeypatch.setattr(perm, "is_permutation", counted)
    route(GOLDEN)
    assert calls == [GOLDEN]


def library_calls(route, word):
    """
    The permbij functions that route(word) enters, named as in
    helpers.ROUTE_CALLS; comprehensions and lambdas, whose code names
    start with "<", are left out.
    """
    names = set()

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        name = frame.f_code.co_name
        if event == "call" and module.startswith("permbij.") and not name.startswith("<"):
            names.add(f"{module[len('permbij.'):]}.{name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        route(word)
    finally:
        sys.setprofile(previous)
    return names


@pytest.mark.parametrize("route", ALL_ROUTES, ids=lambda fn: fn.__name__)
def test_each_route_calls_what_the_ledger_declares(route):
    sigma = helpers.uniform_321_avoider(50, random.Random("ledger"))
    assert library_calls(route, sigma) == helpers.ROUTE_CALLS[route.__name__]


def test_the_rewriting_core_sorts_once_per_jump():
    # a phase that rewrote hands its sorted values on to the next phase, so
    # only a jump by _least_132_start sorts the values right of the start
    calls = {"sorted": 0, "_least_132_start": 0}
    core = _least_132_rewrites.__code__

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code is core and arg is sorted:
            calls["sorted"] += 1
        elif event == "call" and frame.f_back is not None and frame.f_back.f_code is core:
            if frame.f_code is perm._least_132_start.__code__:
                calls["_least_132_start"] += 1

    sigma = helpers.uniform_321_avoider(100, random.Random("one sort per jump"))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        image = gamma_iterative(sigma)
    finally:
        sys.setprofile(previous)
    assert image == gamma_template(sigma)
    assert 1 <= calls["sorted"] <= calls["_least_132_start"]


def test_the_slide_and_flip_route_moves_the_rc_template():
    # Theorem 2 slides and flips the rc-template's L's, so the route must
    # draw them through rc_template and share no drawing with theta_template
    calls = helpers.ROUTE_CALLS["theta_slide_flip"]
    assert "grid.rc_template" in calls
    assert not calls & {"maps.theta_template", "grid._diagonal_runs"}


def test_the_two_maps_read_corners_through_sweeps_of_their_own():
    # l_corners and rcl_corners share no sweep, so the theta template routes
    # cannot go wrong with gamma_template through one fault in it
    assert "grid._corner_sweep" in helpers.ROUTE_CALLS["gamma_template"]
    for route in ("theta_corners", "theta_slide_flip"):
        calls = helpers.ROUTE_CALLS[route]
        assert "grid.rcl_corners" in calls and "grid._corner_sweep" not in calls


def test_canonical_aliases():
    assert gamma is gamma_template
    assert theta is theta_corners


# ------------------------------------------------------------------ properties

def test_images_avoid_132():
    for n in range(1, 8):
        for p in enumerate_avoiders(n, "321"):
            assert avoids(gamma(p), "132")
            assert avoids(theta(p), "132")


def test_maps_are_bijections_onto_the_132_class():
    for n in range(1, 7):
        targets = set(enumerate_avoiders(n, "132"))
        for route in (gamma, theta):
            image = {route(p) for p in enumerate_avoiders(n, "321")}
            assert image == targets
            assert len(image) == catalan(n)


def test_maps_preserve_fixed_points_and_excedances():
    for n in range(1, 8):
        for p in enumerate_avoiders(n, "321"):
            for route in (gamma, theta):
                q = route(p)
                assert fixed_points(q) == fixed_points(p)
                assert excedances(q) == excedances(p)


def test_maps_commute_with_inversion():
    for n in range(1, 8):
        for p in enumerate_avoiders(n, "321"):
            for route in (gamma, theta):
                assert route(inverse(p)) == inverse(route(p))
