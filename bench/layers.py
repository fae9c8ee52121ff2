"""
Direct-call timings of the 132 test, two-row insertion, the up-down word,
the template layers, template equality, the four template routes and the
two rewriting routes; cold class enumeration; per-check timings of the
exhaustive verifier; the tier-1 test suite's wall time; and the line count
of the library.

    python bench/layers.py OUT.json LABEL [--src CHECKOUT]

imports permbij from CHECKOUT/src (default: this checkout) and times, at
each n in SIZES, every layer layers() lists on one seeded uniform 321-avoider
drawn by tests/helpers.uniform_321_avoider, which shares no code with the
library.  A row holds the median of up to 7 calls (fewer once the calls
add up to MIN_TOTAL_S) in ms, with the call count.  The arguments a layer
takes (tableaux, templates, an up-down word) are built before timing.
The 132 test runs on sigma, which usually contains a 132, and on its
132-free image theta(sigma).

A layer skips a size, and records the skip with its reason, when the
layer's last two sizes project that size's call or set-up past BUDGET_S:
the projection extends the growth exponent measured between those sizes.
This keeps quadratic code away from sizes whose square sets would not fit
in memory.

The verifier rows come from SUITE_RUNS runs of run_suite(1, SUITE_N_MAX),
each in a fresh interpreter so that the enumeration cache starts cold, as
in a `permbij verify` process.  Row "verify.<check>" at n is the median of
that check's elapsed_ms at n, for n in SUITE_ROW_SIZES; a check's time
includes whatever shared work it is the first to do at that n (class
enumeration, and where run_suite memoizes route images, the fills it is
the first to make).  Row "verify.run_suite" is the median wall time of the
whole call, imports left out.  Rows "perm.enumerate_avoiders.<pattern>"
at n are likewise the median of ENUM_RUNS fresh interpreters, each timing
one list(enumerate_avoiders(n, pattern)) with nothing cached.

Row "tier1.pytest" is the wall time of one run of the checkout's own test
suite (python -m pytest -q in the checkout, PYTHONPATH=src), with its
summary line.  Row "src.lines" counts the lines of src/permbij/*.py.

Rows are merged into OUT.json under LABEL, so two checkouts measured in
turn sit side by side in one file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIZES = (10, 100, 400, 1_000, 10_000, 100_000)
BUDGET_S = 10.0
MAX_CALLS = 7
MIN_TOTAL_S = 0.2
SUITE_N_MAX = 10
SUITE_ROW_SIZES = (9, 10)
SUITE_RUNS = 3
ENUM_RUNS = 3

#: one run_suite(1, n_max) in a fresh interpreter: its wall time, then (check, n, ms) rows
SUITE_SCRIPT = """
import json, sys, time
from permbij.verify import run_suite
start = time.perf_counter()
reports = run_suite(1, int(sys.argv[1]))
total = time.perf_counter() - start
print(json.dumps([total * 1e3, [[r.check, r.n, r.elapsed_ms] for r in reports]]))
"""

#: one cold enumeration in a fresh interpreter: its wall time in ms
ENUM_SCRIPT = """
import sys, time
from permbij.perm import enumerate_avoiders
start = time.perf_counter()
list(enumerate_avoiders(int(sys.argv[1]), sys.argv[2]))
print((time.perf_counter() - start) * 1e3)
"""


def layers():
    """(name, set-up from sigma to the call's arguments, timed call)."""
    from permbij import grid, maps, perm, rsk

    def dyck(sigma):
        return (rsk.dyck_from_tableaux(*rsk.rsk_tableaux(sigma)), len(sigma))

    def theorem1_templates(sigma):
        return (rsk.template_from_dyck(*dyck(sigma)), maps.theta_template(sigma))

    def equal_copies(a, b):
        return grid.Template(a.n, a.row_runs, a.col_runs) == grid.Template(
            b.n, b.row_runs, b.col_runs
        )

    def on_sigma(fn):
        return (f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", lambda s: (s,), fn)

    return [
        ("perm.avoids.132.sigma", lambda s: (s, "132"), perm.avoids),
        ("perm.avoids.132.theta_sigma", lambda s: (maps.theta(s), "132"), perm.avoids),
        on_sigma(grid.l_corners),
        on_sigma(grid.rcl_corners),
        on_sigma(grid.nested_template),
        on_sigma(grid.diagonal_template),
        on_sigma(grid.rc_template),
        on_sigma(maps.theta_template),
        on_sigma(maps.slide_flip_template),
        on_sigma(rsk.rsk_tableaux),
        ("rsk.dyck_from_tableaux", rsk.rsk_tableaux, rsk.dyck_from_tableaux),
        ("rsk.template_from_dyck", dyck, rsk.template_from_dyck),
        ("grid.bar_reflect", lambda s: (grid.rc_template(s),), grid.bar_reflect),
        ("grid.realize", lambda s: (grid.diagonal_template(s),), grid.realize),
        ("grid.rc_realize", lambda s: (grid.rc_template(s),), grid.rc_realize),
        ("grid.Template.__eq__", theorem1_templates, equal_copies),
        on_sigma(maps.gamma_template),
        on_sigma(maps.theta_corners),
        on_sigma(maps.theta_slide_flip),
        on_sigma(maps.theta_rsk),
        on_sigma(maps.gamma_iterative),
        on_sigma(maps.theta_via_gamma),
    ]


def projection(history, n):
    """Seconds projected at n from the last two (n, seconds) points, or None."""
    if len(history) < 2:
        return None
    (n1, t1), (n2, t2) = history[-2:]
    exponent = math.log(max(t2, 1e-9) / max(t1, 1e-9)) / math.log(n2 / n1)
    return t2 * (n / n2) ** max(exponent, 1.0)


def measure(name, prepare, call, inputs):
    rows = []
    call_history, setup_history = [], []
    for n in SIZES:
        projected = max(
            projection(call_history, n) or 0.0, projection(setup_history, n) or 0.0
        )
        if projected > BUDGET_S:
            rows.append(
                {"layer": name, "n": n,
                 "skipped": f"projected {projected:.3g} s, over the {BUDGET_S:g} s budget"}
            )
            continue
        start = time.perf_counter()
        args = prepare(inputs[n])
        setup_history.append((n, time.perf_counter() - start))
        times = []
        while len(times) < MAX_CALLS and sum(times) < MIN_TOTAL_S:
            start = time.perf_counter()
            call(*args)
            times.append(time.perf_counter() - start)
        call_history.append((n, statistics.median(times)))
        rows.append(
            {"layer": name, "n": n, "ms": round(statistics.median(times) * 1e3, 4),
             "calls": len(times)}
        )
        print(f"{name:28s} n={n:<7d} {rows[-1]['ms']:10.3f} ms", file=sys.stderr)
    return rows


def fresh_run(src: Path, script: str, *args) -> str:
    """Standard output of ``script`` run with ``args`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout


def enumeration_rows(src: Path) -> list[dict]:
    from permbij.perm import ENUMERATION_CAP, PATTERNS

    rows = []
    for pattern in PATTERNS:
        for n in range(1, ENUMERATION_CAP + 1):
            times = [float(fresh_run(src, ENUM_SCRIPT, n, pattern)) for _ in range(ENUM_RUNS)]
            rows.append(
                {"layer": f"perm.enumerate_avoiders.{pattern}", "n": n,
                 "ms": round(statistics.median(times), 4), "calls": ENUM_RUNS}
            )
            print(f"{rows[-1]['layer']:28s} n={n:<7d} {rows[-1]['ms']:10.3f} ms", file=sys.stderr)
    return rows


def suite_rows(src: Path) -> list[dict]:
    runs = [json.loads(fresh_run(src, SUITE_SCRIPT, SUITE_N_MAX)) for _ in range(SUITE_RUNS)]
    per_check: dict[tuple[str, int], list[float]] = {}
    for _, reports in runs:
        for check, n, ms in reports:
            if n in SUITE_ROW_SIZES:
                per_check.setdefault((check, n), []).append(ms)
    rows = [
        {"layer": f"verify.{check}", "n": n, "ms": round(statistics.median(times), 4),
         "calls": len(times)}
        for (check, n), times in sorted(per_check.items())
    ]
    rows.append(
        {"layer": "verify.run_suite", "n_min": 1, "n": SUITE_N_MAX,
         "ms": round(statistics.median(total for total, _ in runs), 4), "calls": SUITE_RUNS}
    )
    for row in rows:
        print(f"{row['layer']:28s} n={row['n']:<7d} {row['ms']:10.3f} ms", file=sys.stderr)
    return rows


def tier1_row(checkout: Path) -> dict:
    """One run of the checkout's test suite: wall time and summary line."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True,
    ).stdout
    ms = (time.perf_counter() - start) * 1e3
    summary = out.strip().splitlines()[-1] if out.strip() else ""
    print(f"{'tier1.pytest':28s} {ms:10.3f} ms  {summary}", file=sys.stderr)
    return {"layer": "tier1.pytest", "ms": round(ms, 1), "calls": 1, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to merge the rows into")
    parser.add_argument("label", help="name of this set of rows in the file")
    parser.add_argument("--src", type=Path, default=ROOT, help="checkout to measure")
    args = parser.parse_args(argv)

    src = args.src.resolve() / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "tests"))
    import helpers  # noqa: E402
    import permbij  # noqa: E402

    if Path(permbij.__file__).resolve().parent.parent != src:
        raise SystemExit(f"permbij imported from {permbij.__file__}, not from {src}")
    inputs = {n: helpers.uniform_321_avoider(n, random.Random(f"bench:{n}")) for n in SIZES}
    rows = []
    for name, prepare, call in layers():
        rows.extend(measure(name, prepare, call, inputs))
    rows.extend(enumeration_rows(src))
    rows.extend(suite_rows(src))
    rows.append(tier1_row(args.src.resolve()))
    rows.append(
        {"layer": "src.lines", "count": sum(
            len(path.read_text().splitlines()) for path in (src / "permbij").glob("*.py")
        )}
    )

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("sizes", list(SIZES))
    record.setdefault(
        "method",
        f"direct calls; median of up to {MAX_CALLS} calls per row, fewer once they "
        f"add up to {MIN_TOTAL_S} s; a size is skipped when projected past {BUDGET_S} s; "
        f"verify.* rows: median of {SUITE_RUNS} runs of run_suite(1, {SUITE_N_MAX}), "
        f"each in a fresh interpreter; perm.enumerate_avoiders.* rows: median of "
        f"{ENUM_RUNS} cold enumerations, each in a fresh interpreter; tier1.pytest: "
        "one run of the checkout's test suite",
    )
    record.setdefault("runs", {})[args.label] = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rows": rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
