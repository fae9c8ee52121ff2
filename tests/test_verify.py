import itertools
import json
from collections import Counter

import pytest

import helpers
from permbij import grid, maps, perm, verify
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

def _faulty(route, at, image):
    """``route``, except that it returns ``image`` at the input ``at``."""

    def wrapped(p):
        return image if tuple(p) == at else route(p)

    return wrapped


def _counted(route, calls):
    def wrapped(p):
        calls.append(p)
        return route(p)

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
    ],
)
def test_memo_changes_no_verdict(faults, monkeypatch):
    for name, (at, image) in faults.items():
        faulty = _faulty(getattr(maps, name), at, image)
        monkeypatch.setattr(maps, name, faulty)
        if name == "gamma":
            # gamma is the gamma_template route; fault both names alike
            monkeypatch.setattr(maps, "gamma_template", faulty)
    memoized = [(r.check, r.n, r.cases, r.failures) for r in run_suite(1, 6)]
    assert memoized == _direct_reports(1, 6)
    assert memoized == _direct_reports(1, 6, _run_on_the_class)
    failed = {check for check, _, _, failures in memoized if failures}
    for name in faults:
        assert {f"bijectivity-{name}", f"inverse-commute-{name}"} <= failed


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


def test_no_memo_outlives_run_suite(monkeypatch):
    run_suite(1, 4)
    assert verify._MEMO.get() is None
    monkeypatch.setattr(maps, "theta", _faulty(maps.theta, (2, 1, 3), [3, 2, 1]))
    with pytest.raises(TypeError):  # bijectivity-theta hashes the list image
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


def test_memo_stores_only_class_members_canonically(monkeypatch):
    member = next(q for q in enumerate_avoiders(3, "132") if q == (2, 3, 1))
    fresh = tuple([2, 3, 1])
    assert fresh is not member
    assert verify._member_132(fresh, 3) is member
    memo = {}
    token = verify._MEMO.set(memo)
    try:
        monkeypatch.setattr(maps, "theta", lambda p: fresh)
        assert verify._theta((1, 2, 3)) is member
        assert memo == {maps.theta: {(1, 2, 3): member}}
        assert memo[maps.theta][(1, 2, 3)] is member
        odds = [(2.0, 3.0, 1.0), [2, 3, 1], (1, 3, 2), (2, True, 1), (4, 3, 2, 1)]
        for i, odd in enumerate(odds):
            assert verify._member_132(odd, 3) is None
            monkeypatch.setattr(maps, "theta", lambda p, odd=odd: odd)
            assert verify._theta(("input", i, repr(odd))) is odd
            assert memo[maps.theta][("input", i, repr(odd))] is odd
    finally:
        verify._MEMO.reset(token)


def test_a_cached_member_is_its_own_member_and_odd_tuples_are_none():
    for n in range(1, 7):
        for member in enumerate_avoiders(n, "132"):
            assert verify._member_132(member, n) is member
    # entries that do not compare with ints make no member and raise nothing
    for odd in [("a", "b"), ("a", 2, 1), (1, "b", 2), ([2], [1]), (None,)]:
        assert verify._member_132(odd, len(odd)) is None


def test_a_float_image_is_not_a_member_of_the_class(monkeypatch):
    # (3.0, 2.0, 1.0) equals and hashes like theta((2, 1, 3)) = (3, 2, 1),
    # but no float tuple is a member of S_3(132)
    assert maps.theta((2, 1, 3)) == (3, 2, 1)
    monkeypatch.setattr(maps, "theta", _faulty(maps.theta, (2, 1, 3), (3.0, 2.0, 1.0)))
    expected = ({"input": [2, 1, 3], "expected": "an image avoiding 132",
                 "actual": [3.0, 2.0, 1.0]},)
    assert tuple(CHECKS["bijectivity-theta"](3)) == expected
    (report,) = run_suite(3, 3, ["bijectivity-theta"])
    assert report.failures == expected


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
            assert table(n, pattern) == StatTable(n, pattern, oracle), (n, pattern)
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


def test_a_cold_stats_table_cuts_no_tuple():
    # in a fresh interpreter nothing is cached yet: the table is counted
    # from the byte records, so the tuple cache stays empty
    script = """
from permbij import perm, verify
for pattern in perm.PATTERNS:
    print(verify.stats_table(9, pattern).total)
print(perm._avoider_list.cache_info().currsize)
"""
    assert helpers.run_python("-c", script).split() == [str(catalan(9)), str(catalan(9)), "0"]


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
