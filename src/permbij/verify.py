"""
Exhaustive cross-checks over whole avoidance classes, plus the joint
fixed-point/excedance tables.

Every check sweeps all of S_n(321) for one n and reports counterexamples,
capped so a broken build stays readable.  Reports serialize to JSON Lines
and back without loss, and a line that its report would not write
again raises ValueError.
A per-member check is a Sweep of named rows
(row, expected_fn, actual_fn); its run_on compares them on any iterable of
permutations, which is how tests/test_large_n.py runs every Sweep on seeded
inputs up to the largest n that tests/helpers.LARGEST_N allows it, and
each failure names its row under "row".  The three whole-class checks,
bijectivity-gamma, bijectivity-theta and catalan-counts, are plain n ->
failures callables that compare entire images at once.

run_suite sweeps n in the outer loop and the checks in the inner one.
While it runs one n, the images of the default routes (maps.gamma,
maps.gamma_template and maps.theta) are memoized over that class in a
plain dict, keyed by the function looked up at call time and then by the
input, so each route runs once per class member however many checks read
it.  The memo holds images only, never a tableau, template or corner list,
and no other route reads it; it is dropped before the next n, and a direct
CHECKS[name](n) call outside run_suite is not memoized.  _member_132 alone
decides membership of S_n(132), for the memo and the bijectivity checks.
"""
from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextvars import ContextVar

from . import grid, maps, rsk
from .perm import (
    ENUMERATION_CAP,
    PATTERNS,
    Perm,
    _Record,
    _avoider_list,
    _avoider_records,
    _require_class,
    bar,
    catalan,
    enumerate_avoiders,
    excedances,
    fixed_points,
    inverse,
    reverse_complement,
)

#: most counterexamples a single report keeps
FAILURE_LIMIT = 20


def _jsonable(value):
    if isinstance(value, grid.Template):
        return {"n": value.n, "row_runs": _jsonable(value.row_runs),
                "col_runs": _jsonable(value.col_runs)}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _failure(input_perm, expected, actual) -> dict:
    return {"input": _jsonable(input_perm), "expected": _jsonable(expected),
            "actual": _jsonable(actual)}


class CheckReport(_Record):
    """Outcome of one check at one n; passes iff no failures were found."""

    __slots__ = ("check", "n", "cases", "failures", "elapsed_ms")

    def __init__(
        self, check: str, n: int, cases: int, failures: tuple = (), elapsed_ms: float = 0.0
    ) -> None:
        super().__init__(check, n, cases, failures, elapsed_ms)

    @property
    def passed(self) -> bool:
        return not self.failures

    def text_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.check} n={self.n} cases={self.cases} failures={len(self.failures)}"

    def json_line(self) -> str:
        import json  # here, so that importing permbij does not import json

        record = dict(zip(self.__slots__, self._fields()), passed=self.passed)
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "CheckReport":
        import json

        record = json.loads(line)
        try:
            fields = {**record, "failures": tuple(record["failures"])}
            del fields["passed"]
            report = cls(**fields)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a CheckReport line: {exc!r}") from exc
        # the report must write the line back, so "passed" agrees with the
        # failures; and its check must be a str and its counts ints
        if report.json_line() != json.dumps(record, sort_keys=True) or not (
            type(report.check) is str and type(report.n) is type(report.cases) is int
        ):
            raise ValueError("not a CheckReport line: the report read does not write it back")
        return report


class Sweep:
    """
    A per-member check: its rows, a tuple of (row, expected_fn, actual_fn),
    each named after the map or builder on its actual side.  An input p fails
    a row when expected_fn(p) != actual_fn(p).  Called with n, it runs on S_n(321).
    """

    __slots__ = ("rows",)

    def __init__(self, *rows: tuple[str, Callable, Callable]) -> None:
        self.rows = rows

    def run_on(self, inputs: Iterable[Perm]) -> Iterator[dict]:
        for p in inputs:
            for row, expected_fn, actual_fn in self.rows:
                expected = expected_fn(p)
                actual = actual_fn(p)
                if expected != actual:
                    yield {"row": row, **_failure(p, expected, actual)}

    def __call__(self, n: int) -> Iterator[dict]:
        # looked up at call time, so a patched enumerate_avoiders is honoured
        return self.run_on(enumerate_avoiders(n, "321"))


def _member_132(q, n: int) -> Perm | None:
    """
    The member of the cached S_n(132) equal to q, or None.  Only a tuple of
    exact ints can be a member, so (3.0, 2.0, 1.0) and (True, 2) are not.
    """
    if type(q) is not tuple:
        return None
    members = _avoider_list(n, "132")
    try:
        # a binary search of the cached list, so that the lookup adds no table
        i = bisect_left(members, q)
    except TypeError:  # entries that do not compare with ints, such as strs
        return None
    if i == len(members):
        return None
    member = members[i]
    # a cached member itself passes at once; an equal tuple passes only
    # when its entries are exact ints, as the member's are
    if member is q or (member == q and set(map(type, q)) == {int}):
        return member
    return None


#: {route function: {input: image}} for the class run_suite is sweeping;
#: None outside run_suite, so a direct CHECKS[name](n) call is unmemoized
_MEMO: ContextVar[dict | None] = ContextVar("route_memo", default=None)


def _route(name: str) -> Callable[[Perm], Perm]:
    """maps.<name>, looked up at call time and read through the memo inside run_suite."""

    def image(p: Perm) -> Perm:
        fn = getattr(maps, name)
        memo = _MEMO.get()
        if memo is None:
            return fn(p)
        images = memo.get(fn)
        if images is None:
            images = memo[fn] = {}
        q = images.get(p)
        if q is None:
            # a member is stored as the cached one, so the memo adds no tuples
            q = fn(p)
            q = images[p] = _member_132(q, len(p)) or q
        return q

    return image


_gamma = _route("gamma")
_theta = _route("theta")


def _itself(p: Perm) -> Perm:
    return p


def _reflected_nested_template(p: Perm) -> grid.Template:
    return grid.bar_reflect(grid.nested_template(reverse_complement(p)))


def _dyck_template(p: Perm) -> grid.Template:
    ins, rec = rsk.rsk_tableaux(p)
    return rsk.template_from_dyck(rsk.dyck_from_tableaux(ins, rec), len(p))


def _second_row_legs(p: Perm) -> grid.Template:
    # Lemma 1: the path template is made of diagonal inverted L's whose leg
    # lengths are the bar-reflected tableau second rows.
    n = len(p)
    ins, rec = rsk.rsk_tableaux(p)
    return grid.diagonal_ls(n, [(bar(a, n), bar(b, n)) for a, b in zip(ins.row2, rec.row2)])


def _corner_rows(p: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Lemma 3: the tableau second rows read off the rcl-corner values and positions.
    corners = grid.rcl_corners(p)
    return tuple(v for v, _ in corners), tuple(q for _, q in corners)


def _second_rows(p: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    ins, rec = rsk.rsk_tableaux(p)
    return ins.row2, rec.row2


def _preserves(stat) -> Sweep:
    return Sweep(
        ("gamma", stat, lambda p: stat(_gamma(p))),
        ("theta", stat, lambda p: stat(_theta(p))),
    )


def _commutes_with_inverse(row: str, map_fn) -> Sweep:
    return Sweep((row, lambda p: inverse(map_fn(p)), lambda p: map_fn(inverse(p))))


def _check_bijectivity(map_fn) -> Callable[[int], Iterator[dict]]:
    def run(n: int) -> Iterator[dict]:
        image: dict[Perm, Perm] = {}
        for p in enumerate_avoiders(n, "321"):
            q = map_fn(p)
            if q in image:
                yield _failure(p, "a fresh image", {"collides_with": _jsonable(image[q])})
            elif _member_132(q, n) is None:
                yield _failure(p, "an image avoiding 132", q)
            image[q] = p
        for missed in _avoider_list(n, "132"):
            if missed not in image:
                yield _failure(missed, "hit by some 321-avoider", "not in image")

    return run


def _check_catalan_counts(n: int) -> Iterator[dict]:
    want = catalan(n)
    for pattern in PATTERNS:
        count = sum(1 for _ in enumerate_avoiders(n, pattern))
        if count != want:
            yield _failure(pattern, want, count)


#: every check, keyed by its public name; each per-member check is a Sweep
CHECKS: dict[str, Callable[[int], Iterator[dict]]] = {
    "fact2": Sweep(("realize", _itself, lambda p: grid.realize(grid.nested_template(p)))),
    "rc-template": Sweep(("rc_realize", _itself, lambda p: grid.rc_realize(grid.rc_template(p)))),
    "bar-reflection": Sweep(
        ("rc_template", _reflected_nested_template, lambda p: grid.rc_template(p))
    ),
    "lemma1": Sweep(("template_from_dyck", _second_row_legs, _dyck_template)),
    "lemma3": Sweep(("rsk_tableaux", _corner_rows, _second_rows)),
    "theorem1-route": Sweep(("theta_template", _dyck_template, lambda p: maps.theta_template(p))),
    "theorem2-route": Sweep(
        ("slide_flip_template", _dyck_template, lambda p: maps.slide_flip_template(p))
    ),
    "theorem3": Sweep(("theta_rsk", maps.theta_via_gamma, maps.theta_rsk)),
    "fact3-route-agreement": Sweep(
        ("gamma_template", maps.gamma_iterative, _route("gamma_template"))
    ),
    "fixed-points": _preserves(fixed_points),
    "excedances": _preserves(excedances),
    "inverse-commute-gamma": _commutes_with_inverse("gamma", _gamma),
    "inverse-commute-theta": _commutes_with_inverse("theta", _theta),
    "bijectivity-gamma": _check_bijectivity(_gamma),
    "bijectivity-theta": _check_bijectivity(_theta),
    "catalan-counts": _check_catalan_counts,
}


def run_suite(n_min: int, n_max: int, checks: Sequence[str] | None = None) -> list[CheckReport]:
    """
    Run the named checks (default: all) for every n in n_min..n_max, n in
    the outer loop and the checks in name order in the inner one, with one
    memo of route images per n (see the module docstring).  Return one
    report per (check, n), sorted by check name then n.  A report's
    elapsed_ms is the wall time of its CHECKS[name](n) call, so it includes
    the memo fills and the enumeration that check is the first to make.
    """
    if isinstance(checks, str):
        raise ValueError(f"pass a list of check names, not the string {checks!r}")
    if checks is None:
        names = sorted(CHECKS)
    else:
        unknown = sorted(set(checks) - CHECKS.keys())
        if unknown:
            known = ", ".join(sorted(CHECKS))
            raise ValueError(f"unknown checks {unknown}; known checks: {known}")
        names = sorted(set(checks))
    for bound in (n_min, n_max):
        _require_class(bound, "321")
    if n_min > n_max:
        raise ValueError(f"n range {n_min}..{n_max} is empty or outside 1..{ENUMERATION_CAP}")
    reports = []
    for n in range(n_min, n_max + 1):
        token = _MEMO.set({})
        try:
            for name in names:
                start = time.perf_counter()
                failures = tuple(itertools.islice(CHECKS[name](n), FAILURE_LIMIT))
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                reports.append(CheckReport(name, n, catalan(n), failures, elapsed_ms))
        finally:
            _MEMO.reset(token)
    reports.sort(key=lambda r: (r.check, r.n))
    return reports


class StatTable(_Record):
    """Joint (fixed points, excedances) distribution over one class."""

    __slots__ = ("n", "pattern", "rows")

    def __init__(self, n: int, pattern: str, rows: dict[tuple[int, int], int] | None = None):
        # a fresh dict for each table given none
        super().__init__(n, pattern, {} if rows is None else rows)

    @property
    def total(self) -> int:
        return sum(self.rows.values())

    def json_line(self) -> str:
        import json

        rows = [{"fixed_points": f, "excedances": e, "count": c}
                for (f, e), c in sorted(self.rows.items())]
        record = {"n": self.n, "class": self.pattern, "total": self.total, "rows": rows}
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "StatTable":
        import json

        record = json.loads(line)
        try:
            rows = {(row["fixed_points"], row["excedances"]): row["count"]
                    for row in record["rows"]}
            table = cls(n=record["n"], pattern=record["class"], rows=rows)
            # the table must write the line back, so a total that is not
            # the rows' sum, or a key the table does not write, fails
            if table.json_line() != json.dumps(record, sort_keys=True):
                raise ValueError("not a StatTable line: the table read does not write it back")
            return table
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a StatTable line: {exc!r}") from exc


def stats_table(n: int, pattern: str) -> StatTable:
    """
    Tabulate (fixed points, excedances) over S_n(pattern), counted in C
    from the generating tree's n-byte records with no tuple and no Python
    frame per word.  The two classes' tables coincide at every n and sum
    to catalan(n).  Column i of the records, one byte per word, translates
    to 16 at a fixed point, 1 at an excedance and 0 elsewhere; the n
    columns summed as little-endian ints hold 16 * fp + exc in each word's
    byte, with no carry while 16 * n <= 255 (n <= 15, above ENUMERATION_CAP).
    Each distinct key byte is then counted by one bytes.count over all the
    words, in key order, which is the rows' (fp, exc) order; a class has
    at most a few dozen keys (67 at n = 12) against catalan(n) words.
    """
    # looked up at call time, so a patched _avoider_records is honoured
    flat = b"".join(_avoider_records(n, pattern))
    if len(flat) != n * catalan(n) or flat.translate(None, bytes(range(1, n + 1))):
        raise RuntimeError(f"{len(flat)} bytes are not catalan({n}) records of {n} entries "
                           f"from 1..{n}; enumeration is broken")
    packed = 0
    for i in range(1, n + 1):
        marks = bytes(i) + b"\x10" + b"\x01" * (255 - i)
        packed += int.from_bytes(flat[i - 1 :: n].translate(marks), "little")
    words = packed.to_bytes(len(flat) // n, "little")
    return StatTable(n, pattern, {divmod(k, 16): words.count(k) for k in sorted(set(words))})
