"""
Seeded cross-checks at sizes the exhaustive sweeps cannot reach.

Inputs are uniform 321-avoiders from helpers.uniform_321_avoider, which
shares no code with the library.  The corner extractors are held to their
literal oracles at n = 100, and the phase-by-phase 132 rewriting to the
literal loop, rewrite for rewrite, at n = 100 and 400.  At n = 1000, where
the literal loop is too slow, each rewrite is held to what facts (a) and
(b) of the maps module promise: it rotates a 132 of the word before it,
its start never decreases, and at one start its middle strictly
increases.  Each input is held to route agreement (both rewriting routes
included up to n = 1000), to the half-turn identity between the two
maps, to 132-avoidance of the images (by avoids and by the linear
three-pass oracle at every size, by the quadratic pair oracle up to
n = 400), and to the Elizalde-Pak properties: fixed points and excedances
preserved, and commuting with inverse.  At n = 10^4 only the four
template routes run.  At every size the chain the slide-and-flip route
stands on is checked: the nested template realizes back to the input
(Fact 2), so does the rc-template under the half-turned rule, and the
slid and flipped rc-template has the corner template's runs.  At n = 10^3
and 10^4 every builder's output must also pass the public constructors'
checks unchanged; equality and hashing of the rebuilt copies are compared
at n = 10^3 only, since they cost seconds per template at n = 10^4, where
equal fields already imply them.
"""
import collections
import random

import pytest

from permbij.grid import l_corners, nested_template, rc_realize, rc_template, rcl_corners, realize
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
    excedances,
    fixed_points,
    inverse,
    inverse_reverse_complement,
    is_permutation,
)

import helpers

SIZES = (100, 400, 1000, 10_000)
SEEDS = (1, 2, 3)
#: the largest n at which the rewriting routes, and the pair oracle, run
REWRITING_MAX = 1000
PAIRS_MAX = 400


def test_sampler_is_uniform_on_a_small_class():
    rng = random.Random(0)
    members = helpers.avoiders_by_filter(5, "321")
    counts = collections.Counter(
        helpers.uniform_321_avoider(5, rng) for _ in range(100 * len(members))
    )
    assert set(counts) == set(members)
    # 100 expected per member; a count outside 60..140 is four standard
    # deviations out
    assert 60 <= min(counts.values()) and max(counts.values()) <= 140


def test_pair_oracle_matches_the_triple_scan():
    for n in range(1, 8):
        for word in helpers.all_words(n):
            assert helpers.contains_132_by_pairs(word) == helpers.contains_by_triples(
                word, "132"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_corners_match_their_oracles_at_n_100(seed):
    sigma = helpers.uniform_321_avoider(100, random.Random(f"{seed}:100"))
    assert l_corners(sigma) == helpers.l_corners_by_pair_scan(sigma)
    assert rcl_corners(sigma) == helpers.rcl_corners_by_smallest_rule(sigma)


@pytest.mark.parametrize("n", (100, 400))
@pytest.mark.parametrize("seed", SEEDS)
def test_rewrites_step_for_step_at_large_n(n, seed):
    sigma = helpers.uniform_321_avoider(n, random.Random(f"{seed}:{n}"))
    word = list(sigma)
    triples = list(_least_132_rewrites(word))
    assert (triples, tuple(word)) == helpers.least_132_rewrites(
        sigma, helpers.smallest_132_by_passes
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_rewrites_keep_facts_a_and_b_at_n_1000(seed):
    word = list(helpers.uniform_321_avoider(1000, random.Random(f"{seed}:1000")))
    last = (0, 0)
    for i, j, k in _least_132_rewrites(word):
        # the rotation left b, c, a at i, j, k; before it they held a, b, c
        assert i < j < k and word[k - 1] < word[j - 1] < word[i - 1]
        # the start never decreases, and at one start the middle rises
        assert (i, j) > last
        last = (i, j)
    assert last != (0, 0)


@pytest.mark.parametrize("n", (1000, 10_000))
@pytest.mark.parametrize("seed", SEEDS)
def test_builders_rebuild_through_the_public_constructors_at_large_n(n, seed):
    sigma = helpers.uniform_321_avoider(n, random.Random(f"{seed}:{n}"))
    assert helpers.public_rebuild_problems(sigma, compare=n <= 1000) == []


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_routes_and_properties_at_large_n(n, seed):
    sigma = helpers.uniform_321_avoider(n, random.Random(f"{seed}:{n}"))
    assert is_permutation(sigma)

    theta_routes = [theta_corners, theta_rsk, theta_slide_flip]
    if n <= REWRITING_MAX:
        theta_routes.append(theta_via_gamma)
    thetas = [route(sigma) for route in theta_routes]
    assert thetas.count(thetas[0]) == len(thetas)
    image_gamma = gamma_template(sigma)
    assert image_gamma == theta_rsk(inverse_reverse_complement(sigma))
    if n <= REWRITING_MAX:
        assert gamma_iterative(sigma) == image_gamma

    for image in (image_gamma, thetas[0]):
        assert is_permutation(image)
        if n <= PAIRS_MAX:
            assert not helpers.contains_132_by_pairs(image)
        assert avoids(image, "132")
        assert helpers.smallest_132_by_passes(image) is None
        assert fixed_points(image) == fixed_points(sigma)
        assert excedances(image) == excedances(sigma)

    for route in (gamma, theta):
        assert route(inverse(sigma)) == inverse(route(sigma))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_templates_realize_back_and_slide_flip_matches_theta_template_at_large_n(n, seed):
    sigma = helpers.uniform_321_avoider(n, random.Random(f"{seed}:{n}"))
    assert realize(nested_template(sigma)) == sigma
    assert rc_realize(rc_template(sigma)) == sigma
    # sorted runs, not Template.__eq__, which builds a mask per row and
    # costs seconds per compare at n = 10^4
    slid, cornered = slide_flip_template(sigma), theta_template(sigma)
    assert sorted(slid.row_runs) == sorted(cornered.row_runs)
    assert sorted(slid.col_runs) == sorted(cornered.col_runs)
