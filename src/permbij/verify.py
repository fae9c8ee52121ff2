"""
Exhaustive cross-checks over whole avoidance classes, plus the joint
fixed-point/excedance tables.

Every check sweeps all of S_n(321) for one n and reports counterexamples,
capped so a broken build stays readable.  Reports and tables are records,
written to and read from JSON lines by perm._Record.  A per-member check
is a Sweep of named rows (row, expected_fn, actual_fn); its run_on
compares them on any iterable of permutations (tests/test_large_n.py runs
every Sweep on seeded and extremal inputs up to its helpers.LARGEST_N),
and each failure names its row under "row".  The whole-class checks,
bijectivity-gamma, bijectivity-theta and catalan-counts, are n -> failures
callables; the bijectivity checks rank each image in S_n(132) and read
collisions and misses off one rank slot per member.

run_suite sweeps n in the outer loop and the checks in the inner one.
While it runs one n, the images of the default routes (maps.gamma,
maps.gamma_template and maps.theta) are memoized over that class, keyed
by the function looked up at call time, in one array slot per member of
S_n(321) at its class rank, holding the image's rank in S_n(132).  So
each route runs once per member however many checks read it; an image
outside S_n(132) is not kept, but passed on as the route returned it.  No
other route reads the memo.  Beside them it holds one bytearray, the Dyck
row widths of each member of S_n(321) in n bytes at its class rank
(2.5 MB at n = 12), and never a tableau, template or corner list.
_dyck_template alone reads it, on one side of lemma1, theorem1-route and
theorem2-route; the first to reach a member fills its bytes from the full
pipeline, if that template is exactly the staircase rsk._staircase redraws
from them.  The memo is dropped before the next n, and a direct
CHECKS[name](n) call outside run_suite is not memoized.  Beside the memo,
and dropped with it, perm._VOUCHED holds the packed S_n(321) once the
first check to iterate it has validated every member in its timed call
(else ()), and perm._SWEPT the member each sweep of it is at, with its
rank (perm._publish).  One rule, perm._vouched_rank, ranks a word in that
class for the validators, the memo and the Dyck table: the swept member
at once, by identity, and any other word by perm._rank's bisection, which
also ranks the images in S_n(132).  No class is held as tuples: each is
cut from the records as it is read.
"""
from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextvars import ContextVar

from . import grid, maps, perm, rsk
from .perm import (
    ENUMERATION_CAP,
    PATTERNS,
    Perm,
    _Record,
    _avoider_records,
    _avoiders,
    _jsonable,
    _require_class,
    catalan,
    enumerate_avoiders,
    reverse_complement,
)

#: most counterexamples a single report keeps
FAILURE_LIMIT = 20


def _failure(input_perm, expected, actual) -> dict:
    return dict(zip(("input", "expected", "actual"), _jsonable((input_perm, expected, actual))))


class CheckReport(_Record):
    """Outcome of one check at one n; passes iff no failures were found."""

    __slots__ = ("check", "n", "cases", "failures", "elapsed_ms")

    def __init__(self, check: str, n: int, cases: int, failures: tuple = (),
                 elapsed_ms: float = 0.0) -> None:
        if not (type(check) is str and type(n) is type(cases) is int and type(failures) is tuple
                and {*map(type, failures)} <= {dict} and type(elapsed_ms) in (int, float)):
            raise ValueError("a report takes a str check, int n and cases, failure dicts, float ms")
        super().__init__(check, n, cases, failures, elapsed_ms)

    @property
    def passed(self) -> bool:
        return not self.failures

    def text_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.check} n={self.n} cases={self.cases} failures={len(self.failures)}"

    @classmethod
    def _from_json(cls, record: dict) -> "CheckReport":
        # "passed" is not read: the write-back check holds it to the failures
        return cls(record["check"], record["n"], record["cases"], tuple(record["failures"]),
                   record["elapsed_ms"])

    def _json(self) -> dict:
        return {**super()._json(), "passed": self.passed}


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
        return self.run_on(_class_321(n))


def _class_321(n: int) -> Iterator[Perm]:
    if perm._VOUCHED.get() == []:  # the first check to iterate the class validates it
        members = _avoiders(n, "321")
        valid = all(perm.is_permutation(p) and not perm._contains_321(p) for p in members)
        perm._VOUCHED.set(members if valid else ())
    # looked up at call time, so a patched enumerate_avoiders is honoured
    return perm._publish(enumerate_avoiders, n)


#: {route function: (array of ranks, the records of S_n(132)), (_dyck_template, n):
#: row widths} for the class run_suite is sweeping; None outside run_suite,
#: so a direct CHECKS[name](n) call is unmemoized
_MEMO: ContextVar[dict | None] = ContextVar("route_memo", default=None)


def _route(name: str) -> Callable[[Perm], Perm]:
    """maps.<name>, looked up at call time and read through the memo inside run_suite."""

    def image(p: Perm) -> Perm:
        fn = getattr(maps, name)
        memo = _MEMO.get()
        i = -1 if memo is None else perm._vouched_rank(p)
        if i < 0:
            return fn(p)
        if fn not in memo:  # -1 marks a member not mapped yet
            from array import array  # here, so that importing permbij does not load array
            memo[fn] = array("i", [-1]) * len(perm._VOUCHED.get()), _avoiders(len(p), "132")
        slots, members = memo[fn]
        if slots[i] < 0:
            q = fn(p)
            j = perm._rank(q, members)
            if j < 0:  # no member of S_n(132): passed on as the route returned it
                return q
            slots[i] = j
        return members[slots[i]]

    return image


_gamma = _route("gamma")
_theta = _route("theta")


def _itself(p: Perm) -> Perm:
    return p


def _reflected_nested_template(p: Perm) -> grid.Template:
    return grid.bar_reflect(grid.nested_template(reverse_complement(p)))


def _dyck_template(p: Perm) -> grid.Template:
    # inside run_suite, through the member's n bytes of the Dyck table (module docstring)
    memo, n = _MEMO.get(), len(p)
    at = -1 if memo is None else perm._vouched_rank(p) * n
    if at >= 0:
        table = memo.get((_dyck_template, n))
        if table is None:  # 0xFF marks a member not drawn yet
            table = memo[_dyck_template, n] = bytearray(b"\xff") * (n * len(perm._VOUCHED.get()))
        if table[at] != 0xFF:
            return rsk._staircase(n, table[at : at + n])
    ins, rec = rsk.rsk_tableaux(p)
    template = rsk.template_from_dyck(rsk.dyck_from_tableaux(ins, rec), n)
    if at >= 0 and type(template) is grid.Template and template.n == n and not template.col_runs:
        widths = bytearray(n)
        for i, _, last in template.row_runs:
            widths[i - 1] = last
        # kept only when a read would draw this very template again
        if rsk._staircase(n, widths).row_runs == template.row_runs:
            table[at : at + n] = widths
    return template


def _second_row_legs(p: Perm) -> grid.Template:
    # Lemma 1: the path template is made of diagonal inverted L's whose leg
    # lengths are the bar-reflected tableau second rows.  A standard
    # tableau's i-th second-row entry is at least 2i, so the i-th L ends by
    # line n - i, in the grid.
    m = len(p) + 1
    ins, rec = rsk.rsk_tableaux(p)
    legs = [(m - a, m - b) for a, b in zip(ins.row2, rec.row2)]
    return grid.Template._trusted(m - 1, *grid._diagonal_runs(legs))


def _corner_rows(p: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Lemma 3: the tableau second rows read off the rcl-corner values and positions.
    corners = grid.rcl_corners(p)
    return tuple(v for v, _ in corners), tuple(q for _, q in corners)


def _second_rows(p: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    ins, rec = rsk.rsk_tableaux(p)
    return ins.row2, rec.row2


def _preserves(stat: str) -> Sweep:
    # perm.<stat> and perm.inverse below are looked up at call time, so a patched one is honoured
    def of(map_fn):
        return lambda p: getattr(perm, stat)(map_fn(p))

    return Sweep(("gamma", of(_itself), of(_gamma)), ("theta", of(_itself), of(_theta)))


def _commutes_with_inverse(row: str, map_fn) -> Sweep:
    return Sweep((row, lambda p: perm.inverse(map_fn(p)), lambda p: map_fn(perm.inverse(p))))


def _check_bijectivity(map_fn) -> Callable[[int], Iterator[dict]]:
    def run(n: int) -> Iterator[dict]:
        from array import array
        inputs, members = _avoiders(n, "321"), _avoiders(n, "132")
        # per member, the rank in S_n(321) of the latest input to hit it, -1
        # until hit; an input outside S_n(321) is kept in strays, at -2, -3, ...
        hit_by, strays = array("i", [-1]) * len(members), []
        for p in _class_321(n):
            q = map_fn(p)
            i = perm._rank(q, members)
            if i < 0:
                yield _failure(p, "an image avoiding 132", q)
                continue
            j = hit_by[i]
            if j != -1:
                earlier = inputs[j] if j >= 0 else strays[-2 - j]
                yield _failure(p, "a fresh image", {"collides_with": _jsonable(earlier)})
            j = perm._vouched_rank(p)
            j = j if j >= 0 else perm._rank(p, inputs)
            if j < 0:
                strays.append(p)
                j = -1 - len(strays)
            hit_by[i] = j
        for i in [i for i, j in enumerate(hit_by) if j == -1]:
            yield _failure(members[i], "hit by some 321-avoider", "not in image")

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
    "theorem3": Sweep(
        ("theta_rsk", lambda p: maps.theta_via_gamma(p), lambda p: maps.theta_rsk(p))
    ),
    "fact3-route-agreement": Sweep(
        ("gamma_template", lambda p: maps.gamma_iterative(p), _route("gamma_template"))
    ),
    "fixed-points": _preserves("fixed_points"),
    "excedances": _preserves("excedances"),
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
    names = set(CHECKS if checks is None else checks)  # read once, so an iterator is honoured
    unknown = sorted(names - CHECKS.keys())
    if unknown:
        known = ", ".join(sorted(CHECKS))
        raise ValueError(f"unknown checks {unknown}; known checks: {known}")
    names = sorted(names)
    for bound in (n_min, n_max):
        _require_class(bound, "321")
    if n_min > n_max:
        raise ValueError(f"n range {n_min}..{n_max} is empty or outside 1..{ENUMERATION_CAP}")
    reports = []
    for n in range(n_min, n_max + 1):
        tokens = _MEMO.set({}), perm._VOUCHED.set([]), perm._SWEPT.set([None, -1])
        try:
            for name in names:
                start = time.perf_counter()
                failures = tuple(itertools.islice(CHECKS[name](n), FAILURE_LIMIT))
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                reports.append(CheckReport(name, n, catalan(n), failures, elapsed_ms))
        finally:
            for token in tokens:
                token.var.reset(token)
    reports.sort(key=lambda r: (r.check, r.n))
    return reports


class StatTable(_Record):
    """Joint (fixed points, excedances) distribution over one class."""

    __slots__ = ("n", "pattern", "rows")

    def __init__(self, n: int, pattern: str, rows: dict[tuple[int, int], int] | None = None):
        _require_class(n, pattern)
        rows = {} if rows is None else rows  # a fresh dict for each table given none
        if not (isinstance(rows, dict) and all(type(k) is tuple and len(k) == 2 for k in rows)
                and {*map(type, itertools.chain(*rows, rows.values()))} <= {int}):
            raise ValueError("rows must map (fixed points, excedances) pairs of ints to int counts")
        super().__init__(n, pattern, rows)

    @property
    def total(self) -> int:
        return sum(self.rows.values())

    @classmethod
    def _from_json(cls, record: dict) -> "StatTable":
        # "total" is not read: the write-back check holds it to the rows
        rows = {(row["fixed_points"], row["excedances"]): row["count"] for row in record["rows"]}
        return cls(record["n"], record["class"], rows)

    def _json(self) -> dict:
        rows = [{"fixed_points": f, "excedances": e, "count": c}
                for (f, e), c in sorted(self.rows.items())]
        return {"n": self.n, "class": self.pattern, "total": self.total, "rows": rows}


def stats_table(n: int, pattern: str) -> StatTable:
    """
    Tabulate (fixed points, excedances) over S_n(pattern), counted in C
    from the generating tree's n-byte records with no tuple and no Python
    frame per word.  The two classes' tables coincide at every n and sum
    to catalan(n).  Column i of the records, one byte per word, translates
    to 16 at a fixed point, 1 at an excedance and 0 elsewhere; the n
    columns summed as little-endian ints hold 16 * fp + exc in each word's
    byte, with no carry while 16 * n <= 255 (n <= 15, above ENUMERATION_CAP).
    Each key byte 0..16n that some word holds, found by a C-level `in`,
    is then counted by one bytes.count over all the words, in key order,
    which is the rows' (fp, exc) order; a class has at most a few dozen
    keys (67 at n = 12) against catalan(n) words.
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
    keys = [k for k in range(16 * n + 1) if k in words]
    return StatTable(n, pattern, {divmod(k, 16): words.count(k) for k in keys})
