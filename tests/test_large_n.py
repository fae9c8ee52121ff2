"""
Seeded cross-checks at sizes the exhaustive sweeps cannot reach.

Inputs are uniform 321-avoiders from helpers.uniform_321_avoider, which
shares no code with the library.  Every per-member check of the verifier,
each Sweep in verify.CHECKS, runs on each input through run_on, at every
size up to the largest n that helpers.LARGEST_N gives it.  A uniform
input has almost no fixed points, so every Sweep also runs on six extremal
families built here, the identity (n fixed points, no excedance), the
adjacent swaps (no fixed point, n/2 excedances), the rotation (h + 1,
..., n, 1, ..., h) by h = n // 3, the shifts (n, 1, ..., n - 1) and
(2, ..., n, 1), which have a single corner, and the direct sum
tau_1 + 1 + tau_2 + 1 + ... of seeded uniform blocks tau_i and singletons,
whose statistics are those of its blocks added up; their statistics and
those of their gamma and theta images are counted here.  Beside them run only oracles
and comparisons that no check makes.  The corner extractors are held to
their literal oracles at n = 100, rcl_corners to the half-turned
l_corners on every input at every size, and the phase-by-phase 132
rewriting to the literal loop, rewrite for rewrite, at n = 100 and 400.
At n = 1000, where the literal loop is too slow, each rewrite is held to
what facts (a) and (b) of the maps module promise: it rotates a 132 of the
word before it, its start never decreases, and at one start its middle
strictly increases.  At every size the three non-rewriting theta routes
agree, gamma_template(s) = theta_rsk(irc s), both images avoid 132 (by
avoids and the linear three-pass oracle, and by the quadratic pair oracle
up to n = 400), and the slid and flipped rc-template has the corner
template's runs.  At n = 10^3 and 10^4 every builder's output must also
pass the public constructors' checks unchanged, and the rebuilt copies
must compare equal and hash alike.
The ci cases, which only ``pytest -m ci`` runs, run every Sweep once more
at its largest n, at most CI_MAX_N: each case runs only the Sweeps whose
largest n it is (today theorem3 and fact3-route-agreement at 2000, the
four template checks at 30,000, and the rest at 10^5), beside the route
and oracle assertions, which every case makes.  A test fails when a Sweep
has no such case, or CI stops running them.  Also under ci, each check
that holds the up-down word's template against a diagonal-L builder
passes at its largest n, 30,000, on the seeded inputs and on every family
without building a row mask.
"""
import collections
import importlib.util
import random
from pathlib import Path

import pytest

from permbij.grid import Template, l_corners, rcl_corners
from permbij.maps import (
    _least_132_rewrites,
    gamma,
    gamma_template,
    theta,
    slide_flip_template,
    theta_corners,
    theta_rsk,
    theta_slide_flip,
    theta_template,
)
from permbij.perm import avoids, inverse_reverse_complement, is_permutation
from permbij.verify import CHECKS, Sweep

import helpers

SIZES = (100, 400, 1000, 10_000)
SEEDS = (1, 2, 3)
#: the largest n at which the pair oracle runs
PAIRS_MAX = 400
SWEEPS = [name for name, check in CHECKS.items() if isinstance(check, Sweep)]
#: the largest n of a ci case
CI_MAX_N = 100_000


def direct_sum_blocks(n):
    """
    The blocks of tau_1 + 1 + tau_2 + 1 + ... of size n, in order: seeded
    uniform 321-avoiders tau_i of 1 to max(1, n // 8) entries, each but the
    last followed by the singleton (1,), the last cut to fill n.
    """
    rng = random.Random(f"direct-sum:{n}")
    blocks, size = [], 0
    while size < n:
        tau = helpers.uniform_321_avoider(min(rng.randint(1, max(1, n // 8)), n - size), rng)
        blocks.append(tau)
        size += len(tau)
        if size < n:
            blocks.append((1,))
            size += 1
    return blocks


def direct_sum(n):
    """The direct sum of direct_sum_blocks(n): each block shifted past the ones before it."""
    word = []
    for block in direct_sum_blocks(n):
        word += [v + len(word) for v in block]
    return tuple(word)


def block_stats(n):
    """(fixed points, excedances) of direct_sum(n), added up over its blocks."""
    blocks = direct_sum_blocks(n)
    return (sum(v == i for block in blocks for i, v in enumerate(block, 1)),
            sum(v > i for block in blocks for i, v in enumerate(block, 1)))


#: the extremal families at even n: (builder, (fixed points, excedances));
#: the rotation by h = n // 3 has h corners and each shift has one
FAMILIES = {
    "identity": (helpers.identity, lambda n: (n, 0)),
    "adjacent-swaps": (lambda n: tuple(v + 1 if v % 2 else v - 1 for v in range(1, n + 1)),
                       lambda n: (0, n // 2)),
    "rotation": (lambda n: (*range(n // 3 + 1, n + 1), *range(1, n // 3 + 1)),
                 lambda n: (0, n - n // 3)),
    "shift-right": (lambda n: (n, *range(1, n)), lambda n: (0, 1)),
    "shift-left": (lambda n: (*range(2, n + 1), 1), lambda n: (0, n - 1)),
    "direct-sum": (direct_sum, block_stats),
}


def ci_n(name):
    """The n of the ci case that runs the Sweep ``name``: its largest n, at most CI_MAX_N."""
    return min(helpers.LARGEST_N.get(name, CI_MAX_N), CI_MAX_N)


#: (seed, n) of test_routes_and_properties_at_large_n: each seed at each
#: size, and one ci case, seeded "ci", at each Sweep's largest n
ROUTE_CASES = [
    *((seed, n) for n in SIZES for seed in SEEDS),
    *(pytest.param("ci", n, marks=pytest.mark.ci, id=f"ci-{n}")
      for n in sorted({ci_n(name) for name in SWEEPS})),
]
ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench" / "layers.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_every_per_member_check_runs_at_large_n():
    # a cap whose check or bench layer was renamed would silently stop
    # capping it, so every name in the table must still name one
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    layers = {name for name, _, _ in bench.layers()}
    assert set(helpers.LARGEST_N) - set(SWEEPS) - layers == set()
    # and the table stops no Sweep short of n = 1000
    assert all(helpers.LARGEST_N.get(name, SIZES[2]) >= SIZES[2] for name in SWEEPS)
    # every Sweep runs in a ci case at its largest n, at most CI_MAX_N ...
    ci_sizes = {case.values[1] for case in ROUTE_CASES
                if any(mark.name == "ci" for mark in getattr(case, "marks", ()))}
    for name in SWEEPS:
        assert ci_n(name) in ci_sizes, name
    # ... and CI runs the ci cases through pytest, with no Python heredoc
    workflow = WORKFLOW.read_text()
    assert "pytest -q -m ci" in workflow and "<<" not in workflow


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
    assert helpers.public_rebuild_problems(sigma) == []


@pytest.mark.parametrize("seed, n", ROUTE_CASES)
def test_routes_and_properties_at_large_n(seed, n):
    sigma = helpers.uniform_321_avoider(n, random.Random(f"{seed}:{n}"))
    assert is_permutation(sigma)
    # a seeded case runs every Sweep allowed at n, a ci case only those whose largest n it is
    sweeps = [name for name in SWEEPS
              if (ci_n(name) == n if seed == "ci" else n <= helpers.LARGEST_N.get(name, n))]
    failures = [(name, failure) for name in sweeps for failure in CHECKS[name].run_on([sigma])]
    assert failures == []
    assert rcl_corners(sigma) == helpers.half_turned_l_corners(sigma)

    image_theta, *others = [route(sigma) for route in (theta_corners, theta_rsk, theta_slide_flip)]
    assert others == [image_theta, image_theta]
    image_gamma = gamma_template(sigma)
    assert image_gamma == theta_rsk(inverse_reverse_complement(sigma))
    for image in (image_gamma, image_theta):
        assert is_permutation(image)
        if n <= PAIRS_MAX:
            assert not helpers.contains_132_by_pairs(image)
        assert avoids(image, "132")
        assert helpers.smallest_132_by_passes(image) is None


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_sweep_on_the_extremal_families_at_large_n(family, n):
    build, stats = FAMILIES[family]
    sigma = build(n)
    sweeps = [name for name in SWEEPS if n <= helpers.LARGEST_N.get(name, n)]
    failures = [(name, failure) for name in sweeps for failure in CHECKS[name].run_on([sigma])]
    assert failures == []
    assert rcl_corners(sigma) == helpers.half_turned_l_corners(sigma)
    # counted here, not by perm.fixed_points and perm.excedances, which
    # both sides of the statistic checks call
    for word in (sigma, gamma(sigma), theta(sigma)):
        fixed = sum(v == i for i, v in enumerate(word, 1))
        exceeding = sum(v > i for i, v in enumerate(word, 1))
        assert (fixed, exceeding) == stats(n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_templates_realize_back_and_slide_flip_matches_theta_template_at_large_n(n, seed):
    # the templates realize back in the fact2 and rc-template rows above,
    # and theorem1-route and theorem2-route hold both to the up-down-word
    # template square for square; here they must also have the same runs,
    # which equal templates need not
    sigma = helpers.uniform_321_avoider(n, random.Random(f"{seed}:{n}"))
    slid, cornered = slide_flip_template(sigma), theta_template(sigma)
    assert sorted(slid.row_runs) == sorted(cornered.row_runs)
    assert sorted(slid.col_runs) == sorted(cornered.col_runs)


#: the checks that hold the up-down word's template against a diagonal-L builder
TEMPLATE_SWEEPS = ("lemma1", "theorem1-route", "theorem2-route")


@pytest.mark.ci
@pytest.mark.parametrize("case", [*SEEDS, *FAMILIES])
def test_the_template_checks_build_no_row_mask_at_their_largest_n(case, monkeypatch):
    # both sides are drawn as diagonal hooks with identical runs, so a
    # passing compare never builds the Theta(n^2)-bit row masks; a failing
    # one still does, which is why LARGEST_N keeps these checks at 30,000
    def no_masks(self):
        raise AssertionError("a passing template compare built row masks")

    n = helpers.LARGEST_N["lemma1"]
    assert {helpers.LARGEST_N[name] for name in TEMPLATE_SWEEPS} == {n}
    sigma = (helpers.uniform_321_avoider(n, random.Random(f"{case}:{n}")) if case in SEEDS
             else FAMILIES[case][0](n))
    monkeypatch.setattr(Template, "_row_masks", no_masks)
    for name in TEMPLATE_SWEEPS:
        assert list(CHECKS[name].run_on([sigma])) == [], name
