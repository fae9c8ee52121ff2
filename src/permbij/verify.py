"""
Exhaustive cross-checks over whole avoidance classes, plus the joint
fixed-point/excedance tables.

Every check sweeps all of S_n(321) for one n (whole-class checks compare
entire images at once) and reports counterexamples, capped so a broken
build stays readable.  Reports serialize to JSON Lines and back without
loss.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Sequence

from . import grid, maps, rsk
from .perm import (
    ENUMERATION_CAP,
    PATTERNS,
    Perm,
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
        return sorted([r, c] for r, c in value.shaded)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _failure(input_perm, expected, actual) -> dict:
    return {
        "input": _jsonable(input_perm),
        "expected": _jsonable(expected),
        "actual": _jsonable(actual),
    }


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check at one n; passes iff no failures were found."""

    check: str
    n: int
    cases: int
    failures: tuple = ()
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def text_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.check} n={self.n} cases={self.cases} failures={len(self.failures)}"

    def json_line(self) -> str:
        return json.dumps({**asdict(self), "passed": self.passed}, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "CheckReport":
        record = json.loads(line)
        record.pop("passed", None)
        record["failures"] = tuple(record["failures"])
        return cls(**record)


def _sweep(*pairs) -> Callable[[int], Iterator[dict]]:
    """
    Per-permutation check: for every p in S_n(321) and every
    (expected_fn, actual_fn) pair in turn, report p when the two differ.
    """

    def run(n: int) -> Iterator[dict]:
        for p in enumerate_avoiders(n, "321"):
            for expected_fn, actual_fn in pairs:
                expected = expected_fn(p)
                actual = actual_fn(p)
                if expected != actual:
                    yield _failure(p, expected, actual)

    return run


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


def _preserves(stat) -> Callable[[int], Iterator[dict]]:
    return _sweep(
        (stat, lambda p: stat(maps.gamma(p))),
        (stat, lambda p: stat(maps.theta(p))),
    )


def _commutes_with_inverse(map_fn) -> Callable[[int], Iterator[dict]]:
    return _sweep((lambda p: inverse(map_fn(p)), lambda p: map_fn(inverse(p))))


def _check_bijectivity(map_fn) -> Callable[[int], Iterator[dict]]:
    def run(n: int) -> Iterator[dict]:
        targets = set(enumerate_avoiders(n, "132"))
        image: dict[Perm, Perm] = {}
        for p in enumerate_avoiders(n, "321"):
            q = map_fn(p)
            if q in image:
                yield _failure(p, "a fresh image", {"collides_with": _jsonable(image[q])})
            elif q not in targets:
                yield _failure(p, "an image avoiding 132", q)
            image[q] = p
        for missed in sorted(targets - image.keys()):
            yield _failure(missed, "hit by some 321-avoider", "not in image")

    return run


def _check_catalan_counts(n: int) -> Iterator[dict]:
    want = catalan(n)
    for pattern in PATTERNS:
        count = sum(1 for _ in enumerate_avoiders(n, pattern))
        if count != want:
            yield _failure(pattern, want, count)


#: every check, keyed by its public name; per-permutation checks are
#: (expected, actual) rows of _sweep
CHECKS: dict[str, Callable[[int], Iterator[dict]]] = {
    "fact2": _sweep((_itself, lambda p: grid.realize(grid.nested_template(p)))),
    "rc-template": _sweep((_itself, lambda p: grid.rc_realize(grid.rc_template(p)))),
    "bar-reflection": _sweep((_reflected_nested_template, lambda p: grid.rc_template(p))),
    "lemma1": _sweep((_second_row_legs, _dyck_template)),
    "lemma3": _sweep((_corner_rows, _second_rows)),
    "theorem1-route": _sweep((_dyck_template, lambda p: maps.theta_template(p))),
    "theorem2-route": _sweep((_dyck_template, lambda p: maps.slide_flip_template(p))),
    "theorem3": _sweep((maps.theta_via_gamma, maps.theta_rsk)),
    "fact3-route-agreement": _sweep((maps.gamma_iterative, maps.gamma_template)),
    "fixed-points": _preserves(fixed_points),
    "excedances": _preserves(excedances),
    "inverse-commute-gamma": _commutes_with_inverse(maps.gamma),
    "inverse-commute-theta": _commutes_with_inverse(maps.theta),
    "bijectivity-gamma": _check_bijectivity(maps.gamma),
    "bijectivity-theta": _check_bijectivity(maps.theta),
    "catalan-counts": _check_catalan_counts,
}


def run_suite(
    n_min: int, n_max: int, checks: Sequence[str] | None = None
) -> list[CheckReport]:
    """
    Run the named checks (default: all) for every n in n_min..n_max and
    return one report per (check, n), sorted by check name then n.
    """
    if checks is None:
        names = sorted(CHECKS)
    else:
        unknown = sorted(set(checks) - CHECKS.keys())
        if unknown:
            known = ", ".join(sorted(CHECKS))
            raise ValueError(f"unknown checks {unknown}; known checks: {known}")
        names = sorted(set(checks))
    if not 1 <= n_min <= n_max <= ENUMERATION_CAP:
        raise ValueError(f"n range {n_min}..{n_max} outside 1..{ENUMERATION_CAP}")
    reports = []
    for name in names:
        for n in range(n_min, n_max + 1):
            start = time.perf_counter()
            failures = []
            for failure in CHECKS[name](n):
                failures.append(failure)
                if len(failures) >= FAILURE_LIMIT:
                    break
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            reports.append(
                CheckReport(name, n, catalan(n), tuple(failures), elapsed_ms)
            )
    return reports


@dataclass(frozen=True)
class StatTable:
    """Joint (fixed points, excedances) distribution over one class."""

    n: int
    pattern: str
    rows: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.rows.values())

    def json_line(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "class": self.pattern,
                "total": self.total,
                "rows": [
                    {"fixed_points": f, "excedances": e, "count": c}
                    for (f, e), c in sorted(self.rows.items())
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json_line(cls, line: str) -> "StatTable":
        record = json.loads(line)
        rows = {
            (row["fixed_points"], row["excedances"]): row["count"]
            for row in record["rows"]
        }
        return cls(n=record["n"], pattern=record["class"], rows=rows)


def stats_table(n: int, pattern: str) -> StatTable:
    """
    Tabulate (fixed points, excedances) over S_n(pattern).  The tables of
    the two classes coincide at every n; counts always sum to catalan(n).
    """
    counts = Counter((fixed_points(p), excedances(p)) for p in enumerate_avoiders(n, pattern))
    table = StatTable(n, pattern, dict(sorted(counts.items())))
    if table.total != catalan(n):
        raise RuntimeError(f"class total {table.total} is not catalan({n}); enumeration is broken")
    return table
