import contextvars
import itertools
import json
import sys
import threading
from collections import Counter

import pytest

import helpers
from permbij import cli, grid, maps, perm, rsk, verify
from permbij.perm import ENUMERATION_CAP, PATTERNS, catalan, enumerate_avoiders
from permbij.verify import (
    CHECKS,
    FAILURE_LIMIT,
    CheckReport,
    StatTable,
    Sweep,
    run_suite,
    stats_table,
)

EXPECTED_CHECK_NAMES = {
    "fact2",
    "fact3-route-agreement",
    "lemma1",
    "lemma3",
    "theorem1-route",
    "theorem2-route",
    "theorem3",
    "bijectivity-gamma",
    "bijectivity-theta",
    "fixed-points",
    "excedances",
    "inverse-commute-gamma",
    "inverse-commute-theta",
    "catalan-counts",
    "rc-template",
    "bar-reflection",
}
WHOLE_CLASS_CHECKS = {"bijectivity-gamma", "bijectivity-theta", "catalan-counts"}


def test_registry_names():
    assert set(CHECKS) == EXPECTED_CHECK_NAMES
    # a runner tells a per-member check from a whole-class one by its type
    sweeps = {name for name, check in CHECKS.items() if isinstance(check, Sweep)}
    assert sweeps == EXPECTED_CHECK_NAMES - WHOLE_CLASS_CHECKS and len(sweeps) == 13
    for name in sweeps:
        rows = [row for row, _, _ in CHECKS[name].rows]
        assert len(set(rows)) == len(rows), f"{name} repeats a row name"


def test_full_suite_passes_at_small_sizes():
    reports = run_suite(1, 6)
    assert len(reports) == len(CHECKS) * 6
    assert all(r.passed for r in reports)
    # canonical ordering: check name, then n
    assert [(r.check, r.n) for r in reports] == sorted(
        (r.check, r.n) for r in reports
    )


def test_whole_suite_on_the_singleton_class():
    reports = run_suite(1, 1)
    assert all(r.passed for r in reports)
    assert all(r.cases == 1 for r in reports)


def test_theorem3_case_totals():
    reports = run_suite(1, 8, ["theorem3"])
    assert len(reports) == 8
    assert all(r.passed for r in reports)
    assert sum(r.cases for r in reports) == 2055


def test_template_coherence_checks_through_n9():
    # the two checks no acceptance criterion reaches at full depth
    reports = run_suite(1, 9, ["rc-template", "bar-reflection"])
    assert all(r.passed for r in reports)


def test_template_checks_compare_without_square_sets(monkeypatch):
    def no_square_sets(self):
        raise AssertionError("a template comparison built a square set")

    monkeypatch.setattr(grid.Template, "shaded", property(no_square_sets))
    for name in ("theorem1-route", "bar-reflection"):
        assert list(CHECKS[name](6)) == []


def _balanced_words(n, word="", ups=0, downs=0):
    """Every balanced word of n u's and n d's, each prefix holding no more d's than u's."""
    if downs == n:
        yield word
        return
    if ups < n:
        yield from _balanced_words(n, word + "u", ups + 1, downs)
    if downs < ups:
        yield from _balanced_words(n, word + "d", ups, downs + 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_the_hook_redraw_shades_the_staircase_of_every_balanced_word(n):
    words = list(_balanced_words(n))
    assert len(words) == catalan(n)
    for word in words:
        staircase = rsk.template_from_dyck(word, n)
        widths = [0] * n
        for i, _, last in staircase.row_runs:
            widths[i - 1] = last
        hooks = rsk._hooks(widths)
        assert (hooks.n, hooks.shaded) == (n, staircase.shaded), word
        # the Dyck table's n bytes draw the same runs
        from_table = rsk._hooks(bytes(widths))
        assert (from_table.row_runs, from_table.col_runs) == (hooks.row_runs, hooks.col_runs)


@pytest.mark.parametrize("n", range(1, 10))
def test_the_dyck_side_has_the_runs_of_the_sides_it_is_held_against(n):
    for p in enumerate_avoiders(n, "321"):
        dyck = verify._dyck_template(p)
        for other in (maps.theta_template(p), maps.slide_flip_template(p),
                      verify._second_row_legs(p)):
            assert (other.n, other.row_runs, other.col_runs) == (
                dyck.n, dyck.row_runs, dyck.col_runs
            ), p


def test_the_template_checks_pass_without_a_row_mask(monkeypatch):
    # identical runs on both sides: Template.__eq__ never builds the masks
    def no_masks(self):
        raise AssertionError("a passing template compare built row masks")

    monkeypatch.setattr(grid.Template, "_row_masks", no_masks)
    reports = run_suite(1, 8, sorted(TEMPLATE_CHECKS))
    assert len(reports) == 3 * 8 and all(r.passed for r in reports)


def test_two_threads_running_lemma1_never_read_each_others_tableaux():
    # rsk._tableaux_of keeps one slot for all threads; each call reads it
    # once, so no thread switch (made frequent here by a tiny switch
    # interval) can hand one thread the tableaux of the other's member,
    # which is of another size and so would fail the compare
    members = {n: list(enumerate_avoiders(n, "321")) for n in (6, 7)}
    failures = {}

    def run(n):
        failures[n] = [f for _ in range(3) for f in CHECKS["lemma1"].run_on(members[n])]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(n,)) for n in members]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == {6: [], 7: []}


def test_catalan_counts_read_the_records_and_count_a_patched_enumeration(monkeypatch):
    def uncut(self):
        yield pytest.fail("catalan-counts cut a member to count its class")

    with monkeypatch.context() as patched:
        patched.setattr(perm._Avoiders, "__iter__", uncut)
        for n in range(1, 11):
            assert list(CHECKS["catalan-counts"](n)) == []
    with pytest.raises(ValueError, match="outside 1..12"):
        list(CHECKS["catalan-counts"](13))
    # a patched enumeration is iterated, and its count is the one checked
    def all_but_the_first(n, pattern):
        return itertools.islice(perm.enumerate_avoiders(n, pattern), 1, None)

    monkeypatch.setattr(verify, "enumerate_avoiders", all_but_the_first)
    assert list(CHECKS["catalan-counts"](4)) == [
        {"input": pattern, "expected": 14, "actual": 13} for pattern in PATTERNS
    ]


def test_cases_count_the_whole_class():
    for report in run_suite(2, 5, ["fact2", "bijectivity-gamma"]):
        assert report.cases == catalan(report.n)


def test_run_suite_rejects_unknown_checks_and_bad_ranges():
    with pytest.raises(ValueError, match="unknown checks"):
        run_suite(1, 3, ["fact2", "nonsense"])
    # a bare string is a sequence of one-letter names, not one check name
    with pytest.raises(ValueError, match=r"^pass a list of check names, not the string 'fact2'$"):
        run_suite(1, 2, "fact2")
    with pytest.raises(ValueError, match="outside"):
        run_suite(0, 3)
    with pytest.raises(ValueError, match="outside"):
        run_suite(3, 2)
    with pytest.raises(ValueError, match="outside 1..12"):
        run_suite(1, 13)
    # each bound goes through the class check: ints only, so no bool
    for bounds in ((1.0, 2), (1, 2.0), ("1", 2), (True, 2), (1, True)):
        with pytest.raises(ValueError, match="outside 1..12"):
            run_suite(*bounds)


def test_run_suite_reads_an_iterator_of_check_names_once():
    # a generator of names runs the checks a list of the same names runs
    listed = [(r.check, r.n, r.failures) for r in run_suite(1, 3, ["fact2", "lemma3"])]
    generated = run_suite(1, 3, (name for name in ["lemma3", "fact2"]))
    assert [(r.check, r.n, r.failures) for r in generated] == listed
    assert len(listed) == 6
    with pytest.raises(ValueError, match="unknown checks"):
        run_suite(1, 3, iter(["fact2", "nonsense"]))


def test_failures_are_capped(monkeypatch):
    yielded = []

    def always_failing(n):
        for k in range(1000):
            yielded.append(k)
            yield {"input": [k], "expected": 0, "actual": 1}

    monkeypatch.setitem(CHECKS, "fact2", always_failing)
    report = run_suite(3, 3, ["fact2"])[0]
    assert not report.passed
    assert len(report.failures) == FAILURE_LIMIT
    # the cap stops pulling from the check once it is reached
    assert len(yielded) == FAILURE_LIMIT


def test_a_failed_template_check_is_written_as_its_runs(monkeypatch):
    monkeypatch.setattr(maps, "theta_template", lambda p: grid.Template(3, [(1, 1, 1)]))
    (report,) = run_suite(3, 3, ["theorem1-route"])
    assert not report.passed
    for failure in report.failures:
        assert failure["actual"] == {"n": 3, "row_runs": [[1, 1, 1]], "col_runs": []}
    assert CheckReport.from_json_line(report.json_line()) == report


def test_check_report_text_line():
    report = CheckReport("fact2", 3, 5)
    assert report.text_line() == "PASS fact2 n=3 cases=5 failures=0"
    failing = CheckReport("fact2", 3, 5, ({"input": [1], "expected": 1, "actual": 2},))
    assert failing.text_line() == "FAIL fact2 n=3 cases=5 failures=1"


def test_check_report_json_round_trip():
    for report in run_suite(1, 4, ["fact2", "lemma3"]):
        assert CheckReport.from_json_line(report.json_line()) == report
    synthetic = CheckReport(
        "fact2",
        4,
        14,
        ({"input": [2, 1], "expected": [1, 2], "actual": [2, 1]},),
        elapsed_ms=1.25,
    )
    assert CheckReport.from_json_line(synthetic.json_line()) == synthetic
    record = json.loads(synthetic.json_line())
    assert record["passed"] is False


# --------------------------------------------------------------- route memo

def _record_vouched_classes(monkeypatch) -> list:
    """The cached records of S_n(321) that run_suite reads to vouch for, one per n, as it reads them."""
    classes = []
    read = verify._avoiders

    def recorded(n, pattern):
        members = read(n, pattern)
        if pattern == "321" and not any(members is seen for seen in classes):
            classes.append(members)
        return members

    monkeypatch.setattr(verify, "_avoiders", recorded)
    return classes


def _faulty(route, at, image):
    """``route``, except that it returns ``image`` at the input ``at``."""

    def wrapped(p):
        return image if tuple(p) == at else route(p)

    return wrapped


def _raising(route, at):
    """``route``, except that it raises RuntimeError at the input ``at``."""

    def wrapped(p):
        if tuple(p) == at:
            raise RuntimeError(f"fault at {at}")
        return route(p)

    return wrapped


def _faulty_stage(stage, at, image):
    """``stage``, except that it returns ``image`` when called with the arguments ``at``."""

    def wrapped(*args):
        return image if args == at else stage(*args)

    return wrapped


def _counted(route, calls):
    """``route``, appending its arguments to ``calls`` at each call (one input bare)."""

    def wrapped(*args):
        calls.append(args[0] if len(args) == 1 else args)
        return route(*args)

    return wrapped


def _direct_reports(n_min, n_max, run=lambda check, n: check(n)):
    """(check, n, cases, failures) from direct calls run(check, n), outside run_suite."""
    return [
        (name, n, catalan(n), tuple(itertools.islice(run(CHECKS[name], n), FAILURE_LIMIT)))
        for name in sorted(CHECKS)
        for n in range(n_min, n_max + 1)
    ]


def _run_on_the_class(check, n):
    """A Sweep through run_on over S_n(321); a whole-class check called with n."""
    if isinstance(check, Sweep):
        return check.run_on(enumerate_avoiders(n, "321"))
    return check(n)


#: a 321-avoider whose pipeline stages some cases below fault, and its
#: tableaux and up-down word: the arguments those stages take for it
PIPELINE_FAULT_AT = (2, 1, 4, 3)
_TABLEAUX = rsk.rsk_tableaux(PIPELINE_FAULT_AT)
_WORD = rsk.dyck_from_tableaux(*_TABLEAUX)


#: the checks that hold a pipeline stage against another construction
TEMPLATE_CHECKS = {"lemma1", "theorem1-route", "theorem2-route"}


@pytest.mark.parametrize(
    "faults",
    [
        # theta sends (2,3,1,5,4) to theta((2,1,3,5,4)): a collision inside S_5(132)
        {"theta": ((2, 3, 1, 5, 4), (5, 3, 2, 4, 1))},
        # gamma sends (3,1,2,4) to a word containing 132, outside S_4(132)
        {"gamma": ((3, 1, 2, 4), (1, 3, 2, 4))},
        {
            "theta": ((2, 3, 1, 5, 4), (5, 3, 2, 4, 1)),
            "gamma": ((2, 3, 1, 5, 6, 4), (1, 2, 3, 4, 5, 6)),
        },
        # the up-down word of another path: the template drawn from it is a
        # staircase, so the Dyck table keeps its wrong widths
        {"rsk.dyck_from_tableaux": (_TABLEAUX, "uuddudud")},
        # a template that is no staircase, which the Dyck table never keeps
        {"rsk.template_from_dyck": ((_WORD, 4), grid.Template(4, [(1, 1, 1)], [(1, 1, 2)]))},
    ],
)
def test_memo_changes_no_verdict(faults, monkeypatch):
    for name, (at, image) in faults.items():
        if name.startswith("rsk."):
            stage = name.removeprefix("rsk.")
            monkeypatch.setattr(rsk, stage, _faulty_stage(getattr(rsk, stage), at, image))
            continue
        faulty = _faulty(getattr(maps, name), at, image)
        monkeypatch.setattr(maps, name, faulty)
        if name == "gamma":
            # gamma is the gamma_template route; fault both names alike
            monkeypatch.setattr(maps, "gamma_template", faulty)
    validated = _count_validations(monkeypatch)
    classes = _record_vouched_classes(monkeypatch)
    memoized = [(r.check, r.n, r.cases, r.failures) for r in run_suite(1, 6)]
    classes = classes[:]  # as run_suite read them, before the direct calls below
    # the class was vouched for, and is no longer: each member was
    # validated once, in class order, and no other word
    assert [len(members) for members in classes] == [catalan(n) for n in range(1, 7)]
    members = [p for words in classes for p in words]
    assert validated["is_permutation"] == validated["_contains_321"] == members
    assert perm._VOUCHED.get() is None
    assert memoized == _direct_reports(1, 6)
    assert memoized == _direct_reports(1, 6, _run_on_the_class)
    # vouched-for records alone, without the memo, change no verdict either
    for n, records in enumerate(classes, start=1):
        token = perm._VOUCHED.set(records)
        try:
            assert [r for r in memoized if r[1] == n] == _direct_reports(n, n)
        finally:
            perm._VOUCHED.reset(token)
    failed = {check for check, _, _, failures in memoized if failures}
    for name in faults:
        if not name.startswith("rsk."):
            assert {f"bijectivity-{name}", f"inverse-commute-{name}"} <= failed
            continue
        # theta_rsk draws through both stages, so theorem3 fails too; each
        # template check fails at the faulted input, and only there
        assert TEMPLATE_CHECKS | {"theorem3"} <= failed
        for check, n, _, failures in memoized:
            if check in TEMPLATE_CHECKS:
                inputs = [f["input"] for f in failures]
                assert inputs == ([list(PIPELINE_FAULT_AT)] if n == 4 else []), check


def test_a_fault_in_l_corners_sweep_fails_bar_reflection(monkeypatch):
    # bar-reflection holds rc_template, drawn from rcl_corners' own sweep,
    # against the half-turned nested template, drawn through _corner_sweep
    sweep = grid._corner_sweep

    def drop_last(word):
        corners = sweep(word)
        return corners[:-1] if len(corners) >= 2 else corners

    monkeypatch.setattr(grid, "_corner_sweep", drop_last)
    failed = {r.check for r in run_suite(1, 6) if not r.passed}
    assert {"bar-reflection", "fact2", "fact3-route-agreement"} <= failed


def test_a_stage_that_draws_no_template_fills_no_dyck_slot(monkeypatch):
    # no Template at all: each read runs the pipeline again, as a direct call does
    fault = _faulty_stage(rsk.template_from_dyck, (_WORD, 4), None)
    monkeypatch.setattr(rsk, "template_from_dyck", fault)
    names = sorted(TEMPLATE_CHECKS)
    memoized = [(r.check, r.n, r.cases, r.failures) for r in run_suite(4, 4, names)]
    assert memoized == [(name, 4, catalan(4), tuple(CHECKS[name](4))) for name in names]
    assert all(failures for _, _, _, failures in memoized)


def test_memo_is_keyed_by_route_function(monkeypatch):
    # gamma rebound to the rewriting route: fact3 must still hold the
    # rewriting route against the faulty template route, never against a
    # memoized gamma image
    monkeypatch.setattr(maps, "gamma", maps.gamma_iterative)
    monkeypatch.setattr(
        maps, "gamma_template", _faulty(maps.gamma_template, (3, 1, 2, 4), (4, 3, 1, 2))
    )
    reports = run_suite(1, 6)
    assert {r.check for r in reports if not r.passed} == {"fact3-route-agreement"}
    (fact3,) = [r for r in reports if r.check == "fact3-route-agreement" and r.n == 4]
    assert fact3.failures == (
        {"row": "gamma_template", "input": [3, 1, 2, 4], "expected": [3, 1, 2, 4],
         "actual": [4, 3, 1, 2]},
    )


def test_a_lost_statistic_names_the_map_that_lost_it(monkeypatch):
    # theta sends the identity, with 3 fixed points and no excedance, to
    # (3, 2, 1), with 1 fixed point and 1 excedance; gamma is untouched
    monkeypatch.setattr(maps, "theta", _faulty(maps.theta, (1, 2, 3), (3, 2, 1)))
    exceeding, fixed = run_suite(3, 3, ["excedances", "fixed-points"])
    assert fixed.failures == ({"row": "theta", "input": [1, 2, 3], "expected": 3, "actual": 1},)
    assert exceeding.failures == (
        {"row": "theta", "input": [1, 2, 3], "expected": 0, "actual": 1},
    )
    assert tuple(CHECKS["fixed-points"].run_on([(1, 2, 3)])) == fixed.failures


def test_each_route_image_is_computed_once_per_class_member(monkeypatch):
    gamma_calls, template_calls, theta_calls = [], [], []
    monkeypatch.setattr(maps, "gamma", _counted(maps.gamma, gamma_calls))
    monkeypatch.setattr(maps, "gamma_template", _counted(maps.gamma_template, template_calls))
    monkeypatch.setattr(maps, "theta", _counted(maps.theta, theta_calls))
    run_suite(1, 6)
    members = [p for n in range(1, 7) for p in enumerate_avoiders(n, "321")]
    for calls in (gamma_calls, template_calls, theta_calls):
        assert sorted(calls) == sorted(members)
    # outside run_suite nothing is memoized
    theta_calls.clear()
    list(CHECKS["inverse-commute-theta"](5))
    assert len(theta_calls) == 2 * catalan(5)


def _count_pipeline_calls(monkeypatch) -> dict[str, list]:
    """{stage: the arguments of each call} for the three stages of the Dyck pipeline."""
    calls = {}
    for stage in ("rsk_tableaux", "dyck_from_tableaux", "template_from_dyck"):
        calls[stage] = []
        monkeypatch.setattr(rsk, stage, _counted(getattr(rsk, stage), calls[stage]))
    return calls


def test_each_member_goes_through_the_dyck_pipeline_once_per_class(monkeypatch):
    calls = _count_pipeline_calls(monkeypatch)
    run_suite(1, 6)
    members = [p for n in range(1, 7) for p in enumerate_avoiders(n, "321")]
    # rsk_tableaux: lemma1, whose legs and first Dyck template read one pair of
    # tableaux, lemma3's second rows and theorem3's theta_rsk; the word: the
    # first template and theta_rsk
    assert Counter(calls["rsk_tableaux"]) == Counter(members * 3)
    # their arguments, the tableaux or the word, tell the members apart
    for stage in ("dyck_from_tableaux", "template_from_dyck"):
        counts = Counter(calls[stage])
        assert len(counts) == len(members) and set(counts.values()) == {2}, stage


def test_a_direct_check_call_builds_no_dyck_table(monkeypatch):
    calls = _count_pipeline_calls(monkeypatch)
    for _ in range(2):
        assert list(CHECKS["theorem1-route"](5)) == []
    # every call draws every member again
    assert len(calls["template_from_dyck"]) == 2 * catalan(5)
    assert verify._MEMO.get() is None


def test_a_template_check_run_alone_fills_its_own_dyck_table(monkeypatch):
    seen = []

    def probe(n):
        seen.append(dict(verify._MEMO.get()))
        return iter(())

    # theorem3 runs after theorem2-route, so it sees the table filled
    monkeypatch.setitem(CHECKS, "theorem3", probe)
    calls = _count_pipeline_calls(monkeypatch)
    n = 6
    run_suite(n, n, ["theorem2-route", "theorem3"])
    (memo,) = seen
    table = memo[verify._dyck_template, n]
    members = list(enumerate_avoiders(n, "321"))
    assert type(table) is bytearray and len(table) == n * len(members)
    assert len(calls["template_from_dyck"]) == len(members)
    # each member's n bytes draw its pipeline template again, runs and all
    for rank, p in enumerate(members):
        template = rsk.template_from_dyck(rsk.dyck_from_tableaux(*rsk.rsk_tableaux(p)), n)
        redrawn = rsk._staircase(n, table[rank * n : rank * n + n])
        assert (redrawn.n, redrawn.row_runs, redrawn.col_runs) == (
            n, template.row_runs, template.col_runs
        )


def test_the_statistic_and_inverse_checks_call_perm_as_patched(monkeypatch):
    # fixed_points miscounts (2, 1, 3), which theta sends to (3, 2, 1) and
    # gamma fixes; inverse sends (1, 3, 2) to (2, 1, 3), whose images
    # under both maps differ from those of the true inverse, (1, 3, 2)
    fixed_points = perm.fixed_points
    monkeypatch.setattr(perm, "fixed_points", lambda p: fixed_points(p) + (tuple(p) == (2, 1, 3)))
    monkeypatch.setattr(perm, "inverse", _faulty(perm.inverse, (1, 3, 2), (2, 1, 3)))
    checks = ["fixed-points", "inverse-commute-gamma", "inverse-commute-theta"]
    fixed, gamma, theta = run_suite(3, 3, checks)
    assert fixed.failures == (
        {"row": "theta", "input": [1, 3, 2], "expected": 1, "actual": 2},
        {"row": "theta", "input": [2, 1, 3], "expected": 2, "actual": 1},
    )
    assert gamma.failures == (
        {"row": "gamma", "input": [1, 3, 2], "expected": [3, 2, 1], "actual": [2, 1, 3]},
    )
    assert theta.failures == (
        {"row": "theta", "input": [1, 3, 2], "expected": [2, 1, 3], "actual": [3, 2, 1]},
    )


@pytest.mark.parametrize("check, route", [
    ("theorem3", "theta_via_gamma"),
    ("theorem3", "theta_rsk"),
    ("fact3-route-agreement", "gamma_iterative"),
])
def test_the_rewriting_checks_call_their_routes_as_patched(check, route, monkeypatch):
    calls = []
    monkeypatch.setattr(maps, route, _counted(getattr(maps, route), calls))
    assert list(CHECKS[check](4)) == []
    assert sorted(calls) == list(enumerate_avoiders(4, "321"))


def test_no_memo_outlives_run_suite(monkeypatch):
    run_suite(1, 4)
    assert verify._MEMO.get() is None
    monkeypatch.setattr(maps, "theta", _raising(maps.theta, (2, 1, 3)))
    with pytest.raises(RuntimeError, match=r"^fault at \(2, 1, 3\)$"):
        run_suite(1, 4)
    assert verify._MEMO.get() is None
    gamma_calls = []
    monkeypatch.setattr(maps, "gamma", _counted(maps.gamma, gamma_calls))
    list(CHECKS["inverse-commute-gamma"](4))
    assert len(gamma_calls) == 2 * catalan(4)


def test_each_n_gets_a_fresh_memo(monkeypatch):
    seen = []

    def probe(n):
        memo = verify._MEMO.get()
        seen.append((n, memo, dict(memo)))
        return iter(())

    # fact2 runs before fixed-points at each n, so it sees the memo unfilled
    monkeypatch.setitem(CHECKS, "fact2", probe)
    run_suite(1, 3, ["fact2", "fixed-points"])
    assert [(n, unfilled) for n, _, unfilled in seen] == [(1, {}), (2, {}), (3, {})]
    # one dict per n, each filled by fixed-points after the probe saw it
    memos = [memo for _, memo, _ in seen]
    assert len(set(map(id, memos))) == 3 and all(memos)


@pytest.mark.parametrize("side", ["ins", "rec"])
def test_a_leg_past_the_grid_never_passes_lemma1(side, monkeypatch):
    # lemma1's legs side builds its template unchecked (grid.Template._trusted),
    # which a standard tableau keeps in the grid.  A faulty rsk_tableaux
    # whose second row reads (2, 1) instead pushes the second L's vertical
    # (ins) or horizontal (rec) leg to line 5 of the 4x4 grid: the check
    # then fails at that input or raises, whether run alone or in run_suite
    tableaux = rsk.rsk_tableaux(PIPELINE_FAULT_AT)
    k = ("ins", "rec").index(side)
    faulty = list(tableaux)
    faulty[k] = rsk.TwoRowTableau._trusted(tableaux[k].row1, (2, 1))
    monkeypatch.setattr(rsk, "rsk_tableaux",
                        _faulty_stage(rsk.rsk_tableaux, (PIPELINE_FAULT_AT,), tuple(faulty)))
    legs = verify._second_row_legs(PIPELINE_FAULT_AT)
    assert max(last for _, _, last in legs.row_runs + legs.col_runs) == 5
    for run in (lambda: tuple(CHECKS["lemma1"](4)),
                lambda: run_suite(4, 4, ["lemma1"])[0].failures):
        try:
            failures = run()
        except (ValueError, IndexError):
            continue
        assert [f["input"] for f in failures] == [list(PIPELINE_FAULT_AT)]


def test_memo_stores_only_class_members_canonically(monkeypatch):
    # theta sends (1, 2, 3) to each image in turn: a member image is kept as
    # its rank in S_3(132) and read back as that member, cut from the
    # records at each read; any other image is passed on as the route
    # returned it, and not kept
    members = perm._avoiders(3, "132")
    member = (2, 3, 1)
    odds = [(2.0, 3.0, 1.0), [2, 3, 1], (1, 3, 2), (2, True, 1), (4, 3, 2, 1)]
    for image in [tuple([2, 3, 1]), *odds]:
        kept = type(image) is tuple and image == member and {*map(type, image)} == {int}
        rank = perm._rank(image, members)
        assert rank == (list(members).index(member) if kept else -1)
        calls, seen = [], []
        monkeypatch.setattr(maps, "theta", _counted(lambda p, image=image: image, calls))

        def probe(n):
            words = verify._class_321(n)
            swept = next(words)  # the member (1, 2, 3) itself, while its sweep is at it
            for p in (swept, tuple(list(swept))):  # ranked by identity, then by bisection
                seen.append(verify._theta(p))
            memo = verify._MEMO.get()
            seen.append({fn: (slots.tolist(), words) for fn, (slots, words) in memo.items()})
            return iter(())

        monkeypatch.setitem(CHECKS, "fact2", probe)
        run_suite(3, 3, ["fact2"])
        first, again, memo = seen
        assert memo == {maps.theta: ([rank, -1, -1, -1, -1], members)}
        if kept:
            assert first == again == member and len(calls) == 1
            assert image is not first is not again and {*map(type, first + again)} == {int}
        else:
            assert first is again is image and len(calls) == 2


def test_a_member_ranks_at_its_place_and_odd_tuples_are_none():
    for n in range(1, 7):
        members = perm._avoiders(n, "132")
        for i, member in enumerate(enumerate_avoiders(n, "132")):
            assert perm._rank(member, members) == i and members[i] == member
    # entries that are no ints make no member and raise nothing
    for odd in [("a", "b"), ("a", 2, 1), (1, "b", 2), ([2], [1]), (None,)]:
        assert perm._rank(odd, perm._avoiders(len(odd), "132")) == -1


def test_a_float_image_is_not_a_member_of_the_class(monkeypatch):
    # (3.0, 2.0, 1.0) equals and hashes like theta((2, 1, 3)) = (3, 2, 1),
    # but no float tuple is a member of S_3(132), so (3, 2, 1) is missed
    assert maps.theta((2, 1, 3)) == (3, 2, 1)
    monkeypatch.setattr(maps, "theta", _faulty(maps.theta, (2, 1, 3), (3.0, 2.0, 1.0)))
    expected = ({"input": [2, 1, 3], "expected": "an image avoiding 132",
                 "actual": [3.0, 2.0, 1.0]},
                {"input": [3, 2, 1], "expected": "hit by some 321-avoider",
                 "actual": "not in image"})
    assert tuple(CHECKS["bijectivity-theta"](3)) == expected
    (report,) = run_suite(3, 3, ["bijectivity-theta"])
    assert report.failures == expected


def test_a_list_image_is_a_failure_row_and_the_suite_finishes(monkeypatch):
    # a list is no member of S_3(132), whose (3, 2, 1) it would have hit
    monkeypatch.setattr(maps, "theta", _faulty(maps.theta, (2, 1, 3), [3, 2, 1]))
    reports = run_suite(1, 4)
    assert len(reports) == 4 * len(CHECKS)
    (report,) = [r for r in reports if (r.check, r.n) == ("bijectivity-theta", 3)]
    assert report.failures == (
        {"input": [2, 1, 3], "expected": "an image avoiding 132", "actual": [3, 2, 1]},
        {"input": [3, 2, 1], "expected": "hit by some 321-avoider", "actual": "not in image"},
    )


def test_a_repeated_image_outside_the_class_fails_as_outside_each_time(monkeypatch):
    # (1, 3, 2) contains 132: it has no slot to collide in
    theta = _faulty(_faulty(maps.theta, (2, 1, 3), (1, 3, 2)), (3, 1, 2), (1, 3, 2))
    monkeypatch.setattr(maps, "theta", theta)
    outside = {"expected": "an image avoiding 132", "actual": [1, 3, 2]}
    missed = {"expected": "hit by some 321-avoider", "actual": "not in image"}
    assert tuple(CHECKS["bijectivity-theta"](3)) == (
        {"input": [2, 1, 3], **outside}, {"input": [3, 1, 2], **outside},
        {"input": [3, 1, 2], **missed}, {"input": [3, 2, 1], **missed},
    )


def test_a_collision_names_an_earlier_input_from_outside_the_class(monkeypatch):
    # the enumeration yields the list [2, 1, 3] before the member (2, 1, 3):
    # both map to one image, and the collision names the list, which has no
    # rank in S_3(321), as the enumeration yielded it
    def with_a_list(n, pattern):
        return iter([[2, 1, 3], *perm.enumerate_avoiders(n, pattern)])

    monkeypatch.setattr(verify, "enumerate_avoiders", with_a_list)
    expected = ({"input": [2, 1, 3], "expected": "a fresh image",
                 "actual": {"collides_with": [2, 1, 3]}},)
    assert tuple(CHECKS["bijectivity-theta"](3)) == expected
    (report,) = run_suite(3, 3, ["bijectivity-theta"])
    assert report.failures == expected


# --------------------------------------------------------- validation index

def _count_validations(monkeypatch) -> dict[str, list]:
    """{validator: the word of each call} for perm.is_permutation and perm._contains_321."""
    calls = {}
    for name in ("is_permutation", "_contains_321"):
        calls[name] = []
        monkeypatch.setattr(perm, name, _counted(getattr(perm, name), calls[name]))
    return calls


@pytest.mark.parametrize("n", [6, pytest.param(9, marks=pytest.mark.ci)])
def test_run_suite_validates_each_member_once_per_class(n, monkeypatch):
    calls = _count_validations(monkeypatch)
    assert all(r.passed for r in run_suite(n, n))
    members = list(enumerate_avoiders(n, "321"))
    # per member: once, in class order, before the class is vouched for, and no more
    for words in calls.values():
        assert words == members


def test_direct_check_calls_validate_as_before(monkeypatch):
    # outside run_suite nothing is indexed: 25 and 20 calls per member at n = 6
    # (lemma1's two sides read one rsk_tableaux, which checks its input)
    calls = _count_validations(monkeypatch)
    for name in sorted(CHECKS):
        list(CHECKS[name](6))
    assert perm._VOUCHED.get() is None
    assert (len(calls["is_permutation"]), len(calls["_contains_321"])) == (
        25 * catalan(6), 20 * catalan(6)
    )


def _validations_inside_run_suite(words, monkeypatch, n: int = 3) -> list[tuple]:
    """
    (is_permutation calls, _contains_321 calls, ValueError text or None) of
    require_321_avoider(word) for each word, called inside run_suite(n, n)
    once fact2 has swept S_n(321).
    """
    seen = []

    def probe(n):
        calls = _count_validations(monkeypatch)
        for word in words:
            try:
                perm.require_321_avoider(word)
                error = None
            except ValueError as exc:
                error = str(exc)
            seen.append((len(calls["is_permutation"]), len(calls["_contains_321"]), error))
            calls["is_permutation"].clear()
            calls["_contains_321"].clear()
        return iter(())

    # theorem3 runs after fact2, so it sees the index filled
    monkeypatch.setitem(CHECKS, "theorem3", probe)
    run_suite(n, n, ["fact2", "theorem3"])
    return seen


def test_only_the_members_themselves_are_vouched_for(monkeypatch):
    member = next(p for p in enumerate_avoiders(3, "321") if p == (2, 1, 3))
    twin = next(q for q in enumerate_avoiders(3, "132") if q == (2, 1, 3))
    assert twin is not member
    words = [member, tuple(list(member)), list(member), twin, (True, 2, 3), (2.0, 1.0, 3.0),
             ([2], 1, 3), (3, 2, 1)]
    assert _validations_inside_run_suite(words, monkeypatch) == [
        (0, 0, None),  # the member itself
        (0, 0, None),  # an equal fresh tuple of exact ints
        (1, 1, None),  # a list
        (0, 0, None),  # the equal member of the cached S_3(132)
        (1, 0, "not a permutation of 1..n (n=3)"),  # equal to the member (1, 2, 3)
        (1, 0, "not a permutation of 1..n (n=3)"),  # equal to the member (2, 1, 3)
        (1, 0, "not a permutation of 1..n (n=3)"),  # incomparable: the lookup raises nothing
        (1, 1, "permutation contains a 321-pattern"),
    ]


def test_a_cached_class_with_a_321_is_not_vouched_for(monkeypatch):
    # one word of the cached S_6(321) replaced by a 321-containing one:
    # inside run_suite every member is then validated in full, as a direct
    # call validates it, and no verdict changes
    members = list(enumerate_avoiders(6, "321"))

    def cached_with_321(n, pattern):
        members = perm._avoiders(n, pattern)
        if (n, pattern) != (6, "321"):
            return members
        return perm._Avoiders(n, [members.flat[:-n] + bytes((3, 2, 1, 4, 5, 6))])

    monkeypatch.setattr(verify, "_avoiders", cached_with_321)
    assert _validations_inside_run_suite(members, monkeypatch, 6) == [(1, 1, None)] * len(members)
    memoized = [(r.check, r.n, r.cases, r.failures) for r in run_suite(6, 6)]
    assert memoized == _direct_reports(6, 6)
    assert perm._VOUCHED.get() is None


def test_the_records_cache_keeps_the_two_classes_of_one_n():
    run_suite(1, 5)
    info = perm._avoiders.cache_info()
    assert info.maxsize == info.currsize == 2
    for pattern in PATTERNS:  # the last n's two classes, and no others
        enumerate_avoiders(5, pattern)
    assert perm._avoiders.cache_info().hits == info.hits + 2
    enumerate_avoiders(4, "321")
    assert perm._avoiders.cache_info().misses == info.misses + 1


def test_nothing_is_vouched_for_once_run_suite_returns_or_raises(monkeypatch):
    members = list(enumerate_avoiders(4, "321"))
    run_suite(4, 4, ["fact2"])
    assert perm._VOUCHED.get() is None
    calls = _count_validations(monkeypatch)
    for p in members:
        perm.require_321_avoider(p)
    assert calls["is_permutation"] == calls["_contains_321"] == members
    monkeypatch.setattr(maps, "theta", _raising(maps.theta, (2, 1, 4, 3)))
    with pytest.raises(RuntimeError, match=r"^fault at \(2, 1, 4, 3\)$"):
        run_suite(4, 4, ["fact2", "bijectivity-theta"])
    assert perm._VOUCHED.get() is None
    calls["is_permutation"].clear()
    calls["_contains_321"].clear()
    for p in members:
        perm.require_321_avoider(p)
    assert calls["is_permutation"] == calls["_contains_321"] == members


def test_the_swept_member_is_ranked_without_a_bisection(monkeypatch):
    ranks, calls = [], []

    def probe(n):
        words = verify._class_321(n)  # the first sweep at n vouches for the class
        calls.clear()
        members = perm._VOUCHED.get()
        for i, p in enumerate(words):
            swept = perm._SWEPT.get()
            assert swept[0] is p == members[i] and swept[1] == i
            ranks.append((perm._vouched_rank(p), len(calls)))
            # an equal copy, and the member beside it, are bisected for
            ranks.append((perm._vouched_rank(tuple(list(p))), len(calls)))
            ranks.append((perm._vouched_rank(members[(i - 1) % len(members)]), len(calls)))
        assert perm._SWEPT.get() == [None, -1]
        return iter(())

    n = 5
    monkeypatch.setattr(perm, "_rank", _counted(perm._rank, calls))
    monkeypatch.setitem(CHECKS, "fact2", probe)
    run_suite(n, n, ["fact2"])
    m = catalan(n)
    assert ranks == [(r, calls) for i in range(m)
                     for r, calls in ((i, 2 * i), (i, 2 * i + 1), ((i - 1) % m, 2 * i + 2))]


def test_suites_in_separate_contexts_never_see_each_others_member(monkeypatch):
    # a probe sweeping S_5(321) runs a suite over S_4(321) in a context of
    # its own at every tenth member; each sweep sees its own member and rank
    # throughout, and the outer one is where it was when the inner returns
    seen = []

    def probe(n):
        words = verify._class_321(n)
        members = perm._VOUCHED.get()
        for i, p in enumerate(words):
            seen.append((n, i, perm._vouched_rank(p), perm._SWEPT.get()[0] is p == members[i]))
            if n == 5 and i % 10 == 0:
                contextvars.copy_context().run(run_suite, 4, 4, ["fact2"])
                assert perm._VOUCHED.get() is members and perm._SWEPT.get() == [p, i]
                assert perm._SWEPT.get()[0] is p
        return iter(())

    monkeypatch.setitem(CHECKS, "fact2", probe)
    run_suite(5, 5, ["fact2"])
    inner = [(4, i, i, True) for i in range(catalan(4))]
    expected = []
    for i in range(catalan(5)):
        expected.append((5, i, i, True))
        expected += inner if i % 10 == 0 else []
    assert seen == expected
    assert perm._SWEPT.get() is None and perm._VOUCHED.get() is None


def test_a_sweep_abandoned_at_the_failure_limit_leaves_no_rank(monkeypatch):
    # every member fails fact2 here, so run_suite drops its sweep at the
    # FAILURE_LIMIT-th member of S_5(321); the next check at n = 5 finds no
    # member published, and n = 6 gets a published rank and a memo of its own
    seen = []

    def probe(n):
        swept, memo = perm._SWEPT.get(), verify._MEMO.get()
        seen.append((swept, list(swept), memo, sum(j >= 0 for j in memo[maps.theta][0])))
        words = verify._class_321(n)
        next(words)
        p = next(words)
        assert swept[0] is p == perm._VOUCHED.get()[1] and swept[1] == 1
        del words  # a sweep dropped between two members
        assert swept == [None, -1]
        return iter(())

    monkeypatch.setitem(CHECKS, "fact2", Sweep(("theta", lambda p: None, verify._theta)))
    monkeypatch.setitem(CHECKS, "lemma1", probe)
    reports = run_suite(5, 6, ["fact2", "lemma1"])
    assert [len(r.failures) for r in reports] == [FAILURE_LIMIT, FAILURE_LIMIT, 0, 0]
    (swept5, at5, memo5, filled5), (swept6, at6, memo6, filled6) = seen
    assert at5 == at6 == [None, -1] and swept5 is not swept6 and memo5 is not memo6
    assert filled5 == filled6 == FAILURE_LIMIT


def test_a_stage_that_returns_a_321_containing_word_is_still_rejected(monkeypatch):
    # inverse sends one member of S_6(321) to a word with a 321-pattern,
    # which grid.l_corners rejects under maps.gamma_template
    monkeypatch.setattr(perm, "inverse", _faulty(perm.inverse, (2, 1, 3, 5, 4, 6),
                                                 (3, 2, 1, 4, 5, 6)))
    with pytest.raises(ValueError, match="^permutation contains a 321-pattern$"):
        run_suite(6, 6)
    assert perm._VOUCHED.get() is None


def _enumeration_with_321(n, pattern):
    """S_n(pattern), with (3, 1, 2) replaced by the 321-containing (3, 2, 1) in S_3(321)."""
    words = perm.enumerate_avoiders(n, pattern)
    if (n, pattern) == (3, "321"):
        words = [(3, 2, 1) if p == (3, 1, 2) else p for p in words]
    return iter(words)


@pytest.mark.parametrize("name", [None, *sorted(EXPECTED_CHECK_NAMES - {"catalan-counts"})])
def test_an_enumerated_word_with_a_321_is_rejected_as_unindexed(name, monkeypatch):
    # each check run alone, and the whole suite, raise what a direct call
    # raises; the whole suite raises in its first check, bar-reflection
    monkeypatch.setattr(verify, "enumerate_avoiders", _enumeration_with_321)
    direct = CHECKS[name or "bar-reflection"]
    with pytest.raises(ValueError) as unindexed:
        list(direct(3))
    with pytest.raises(ValueError) as indexed:
        run_suite(3, 3, name and [name])
    assert str(indexed.value) == str(unindexed.value) == "permutation contains a 321-pattern"
    assert perm._VOUCHED.get() is None


# ------------------------------------------------------------------- tables

def test_stats_table_smallest_classes():
    assert stats_table(2, "321").rows == {(2, 0): 1, (0, 1): 1}
    table3 = stats_table(3, "321")
    assert table3.rows == {(3, 0): 1, (1, 1): 2, (0, 2): 1, (0, 1): 1}
    assert table3.total == 5


def test_stats_tables_coincide_across_classes():
    for n in range(1, 8):
        assert stats_table(n, "321").rows == stats_table(n, "132").rows


def test_stats_table_total_is_catalan():
    for n in range(1, 8):
        assert stats_table(n, "321").total == catalan(n)


def _stats_table_from_a_process(n, pattern):
    argv = ("-m", "permbij", "stats", "--n", str(n), "--class", pattern, "--format", "json")
    return StatTable.from_json_line(helpers.run_python(*argv))


@pytest.mark.parametrize("sizes, table", [
    pytest.param(range(1, 11), stats_table, id="n1-10"),
    # each table from its own `permbij stats` process
    pytest.param((10, 11, 12), _stats_table_from_a_process, marks=pytest.mark.ci, id="cli-n10-12"),
])
def test_stats_table_matches_the_literal_definitions(sizes, table):
    # stats_table counts over byte columns; this counts word by word, and
    # the two classes' tables coincide
    for n in sizes:
        counts = {}
        for pattern in PATTERNS:
            words = enumerate_avoiders(n, pattern)
            oracle = Counter(
                (helpers.fixed_points_by_loop(w), helpers.excedances_by_loop(w)) for w in words
            )
            counts[pattern] = oracle
            got = table(n, pattern)
            assert got == StatTable(n, pattern, oracle), (n, pattern)
            # the rows come in (fixed points, excedances) order
            assert list(got.rows) == sorted(oracle), (n, pattern)
        assert counts["321"] == counts["132"], n


def test_stats_table_packing_cannot_carry_within_the_enumeration_cap():
    # each word's byte of the packed sum holds 16 * fixed points + excedances
    assert 16 * ENUMERATION_CAP <= 255


@pytest.mark.parametrize("extra", [1, -1])
def test_stats_table_rejects_words_of_the_wrong_length(monkeypatch, extra):
    def wrong_length(n, pattern):
        return [bytes(range(1, n + 1 + extra)) * catalan(n)]

    monkeypatch.setattr(verify, "_avoider_records", wrong_length)
    with pytest.raises(RuntimeError, match="enumeration is broken"):
        stats_table(5, "321")


@pytest.mark.parametrize("stray", [0, 6, perm._PAD, perm._PAD + 4, 255])
def test_stats_table_rejects_a_record_with_a_byte_outside_1_to_n(monkeypatch, stray):
    # the right total length, but one entry of the last record is not in
    # 1..5: a pad byte left over, say, which the columns would count as an
    # excedance
    def stray_entry(n, pattern):
        return [bytes(range(1, n + 1)) * (catalan(n) - 1), bytes(range(1, n)) + bytes([stray])]

    monkeypatch.setattr(verify, "_avoider_records", stray_entry)
    with pytest.raises(RuntimeError, match="enumeration is broken"):
        stats_table(5, "321")


def test_stats_table_rejects_out_of_range_n():
    with pytest.raises(ValueError, match="outside"):
        stats_table(13, "321")


def test_stats_table_rejects_an_unknown_pattern():
    with pytest.raises(ValueError, match="unknown pattern"):
        stats_table(3, "231")


@pytest.mark.parametrize("n", [9.0, True, "3"])
@pytest.mark.parametrize("reader", [enumerate_avoiders, stats_table])
def test_a_class_needs_an_int_n(reader, n):
    # True == 1 and 9.0 == 9, but neither names a class
    with pytest.raises(ValueError, match="outside 1..12"):
        reader(n, "321")


def test_a_cold_stats_table_caches_no_class():
    # in a fresh interpreter nothing is cached yet: the table is counted
    # from the byte records as they are grown, so the class cache stays empty
    script = """
from permbij import perm, verify
for pattern in perm.PATTERNS:
    print(verify.stats_table(9, pattern).total)
print(perm._avoiders.cache_info().currsize)
"""
    assert helpers.run_python("-c", script).split() == [str(catalan(9)), str(catalan(9)), "0"]


def test_run_suite_holds_the_classes_packed():
    # the tracemalloc peak of run_suite(9, 9) in a fresh interpreter: about
    # 0.63 MB with both classes held as packed records, 1.63 MB when they
    # were cached as lists of tuples (1.17 MB of it those two lists)
    script = """
import tracemalloc
from permbij import verify
tracemalloc.start()
reports = verify.run_suite(9, 9)
print(all(r.passed for r in reports), tracemalloc.get_traced_memory()[1])
"""
    passed, peak = helpers.run_python("-c", script).split()
    assert passed == "True" and int(peak) < 800_000, peak


@pytest.mark.ci
def test_every_check_at_the_cap_runs_in_under_45_mb():
    # the peak RSS of run_suite(12, 12) in a fresh interpreter: about 31 MB
    # on Linux with the classes as packed records, 82 MB when they were
    # cached as lists of tuples.  A small launcher starts it, as a child's
    # ru_maxrss starts from the high-water mark of the process it was
    # spawned from, and this pytest process's is far above 45 MB
    suite = f"""
import resource
from permbij import verify
reports = verify.run_suite({ENUMERATION_CAP}, {ENUMERATION_CAP})
print(all(r.passed for r in reports), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    launcher = ("import subprocess, sys; print(subprocess.run([sys.executable, '-c', sys.argv[1]], "
                "capture_output=True, text=True, check=True).stdout)")
    passed, peak_kb = helpers.run_python("-c", launcher, suite).split()
    assert passed == "True" and int(peak_kb) < 45 * 1024, peak_kb


def test_stat_table_json_round_trip():
    table = stats_table(5, "132")
    assert StatTable.from_json_line(table.json_line()) == table
    record = json.loads(table.json_line())
    assert record["class"] == "132"
    assert record["total"] == catalan(5)


#: lines as json_line writes them, which some malformed lines below change
REPORT_LINE = CheckReport("fact2", 3, 5).json_line()
TABLE_LINE = StatTable(1, "321", {(1, 0): 1}).json_line()


@pytest.mark.parametrize("record, line", [
    (CheckReport, "{}"),
    (CheckReport, "[]"),
    (CheckReport, '{"check": "fact2", "n": 3, "cases": 5, "failures": [], "extra": 1}'),
    (StatTable, "{}"),
    (StatTable, "[]"),
    (StatTable, '{"n": 1, "class": "132", "rows": [{"fixed_points": 1, "count": 1}]}'),
    # well formed, but "passed" contradicts the failures
    (CheckReport, REPORT_LINE.replace("true", "false")),
    # well formed, but of the wrong types
    (CheckReport, '{"cases": null, "check": 5, "elapsed_ms": 0.0, "failures": [], "n": "x", '
                  '"passed": true}'),
    # well formed, but the total is not the rows' sum, or a key is unknown
    (StatTable, TABLE_LINE.replace('"total": 1', '"total": 99')),
    (StatTable, TABLE_LINE.replace('"total": 1', '"total": 1, "rows_sum": 1')),
    # well formed and written back, but of the wrong types for the constructor
    (StatTable, '{"n": "x", "class": 5, "total": 0, "rows": []}'),
    (StatTable, '{"n": 1, "class": "321", "total": 1.5, '
                '"rows": [{"fixed_points": true, "excedances": 0, "count": 1.5}]}'),
    (CheckReport, REPORT_LINE.replace("0.0", '"x"')),
    (CheckReport, REPORT_LINE.replace("[]", "[5]").replace("true", "false")),
    # not JSON at all
    (CheckReport, "PASS fact2 n=3 cases=5 failures=0"),
    (StatTable, "n=1 avoid=321 total=1"),
    # records with no _from_json hook, which read no line
    (grid.Template, "{}"),
    (rsk.TwoRowTableau, "{}"),
    (cli._MapRecord, cli._MapRecord(1, (1,), "theta", (1,), 1, 0).json_line()),
])
def test_a_malformed_json_line_raises_value_error_naming_its_record(record, line):
    with pytest.raises(ValueError, match=f"not a {record.__name__} line"):
        record.from_json_line(line)


def test_guards_hold_under_python_O():
    # -O strips asserts; every guard must raise regardless
    script = """
import permbij.rsk as rsk, permbij.verify as verify
try:
    rsk.TwoRowTableau((1, 2), (4,))
except ValueError:
    print("rsk guard")
verify._avoider_records = lambda n, pattern: [bytes([1, 2, 3])]
try:
    verify.stats_table(3, "321")
except RuntimeError:
    print("stats guard")
"""
    assert helpers.run_python("-O", "-c", script).split("\n") == ["rsk guard", "stats guard", ""]
