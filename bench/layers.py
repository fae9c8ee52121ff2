"""
Direct-call timings of the 132 test, two-row insertion, the up-down word,
the template layers, template equality, the four template routes and the
two rewriting routes; in-process `permbij map` calls of the six routes and
one build of the CLI's argument parser; cold class enumeration and cold
statistics tables; per-check timings of the exhaustive verifier; the
tier-1 test suite's wall time; and the line count of the library, for two
checkouts side by side.

    python bench/layers.py OUT.json PARENT [CHANGE]

measures the checkouts PARENT and CHANGE (default: this checkout) in
turn, one measurement at a time, so that a drift in the host's speed
during the run falls on both alike: each layer, each enumeration, each
verifier run and each test-suite run is taken in the order parent,
change, change, parent (ABBA), and again for further runs, every run in
a fresh interpreter that imports permbij from that checkout's src.  The
rows are written to OUT.json under the labels "parent" and "change".
A row made of several fresh runs holds their median, with their lower and
upper quartiles as "q1" and "q3".

Every layer that layers() lists runs, at each n in SIZES, on one seeded
uniform 321-avoider drawn by tests/helpers.uniform_321_avoider, which
shares no code with the library.  One run of a layer makes up to 7 calls
per size (fewer once they add up to MIN_TOTAL_S); a row holds the median
of the calls of both of its side's runs, in ms, with their count.  The
arguments a layer takes (tableaux, templates, an up-down word) are built
before timing.  The 132 test runs on sigma, which usually contains a 132,
and on its 132-free image theta(sigma).  Rows "cli.map.<bijection>" time
cli_main(["map", "--bijection", <bijection>, "--input", <sigma's text>])
with standard output captured, so parsing the text and printing the image
count; a run's first call also pays for whatever parser set-up cli_main
makes on a first call, and later calls only for what it repeats.  Row
"cli.build_parser" takes no input and runs once per run, without a size:
each call builds the CLI's argument parser anew, past the cache that
cli_main keeps it in where it keeps one.  That is what a process's first
call pays, less argparse's own one-time set-up, which the run's first
build pays.

A run skips a size, and records the skip with its reason, when the
layer's last two sizes project that size's call or set-up past BUDGET_S:
the projection extends the growth exponent measured between those sizes.
This keeps quadratic code away from sizes whose square sets would not fit
in memory.  A row is skipped when every run of its side skipped it.

The verifier rows come from SUITE_RUNS runs per side of run_suite(1,
SUITE_N_MAX), each in a fresh interpreter so that the enumeration cache
starts cold, as in a `permbij verify` process.  Row "verify.<check>" at n
is the median of that check's elapsed_ms at n, for n in SUITE_ROW_SIZES;
a check's time includes whatever shared work it is the first to do at
that n (class enumeration, and where run_suite memoizes route images, the
fills it is the first to make).  Rows "verify.<check>" at each n in
SUITE_PROJECTED_SIZES are not run: each is recorded as skipped with the
time projection() gives from that check's rows at SUITE_ROW_SIZES.  That
power law in n runs low of a class sweep's growth (C_n grows about as
4^n), the more so the further n lies past them.  Row "verify.run_suite" is
the median wall time of the whole call, imports left out.  Rows
"perm.enumerate_avoiders.<pattern>" at n are likewise the median of
COLD_RUNS fresh interpreters per side, each timing one
list(enumerate_avoiders(n, pattern)) with nothing cached, for n from 1 to
ENUMERATION_CAP; rows "verify.stats_table.<pattern>" time one
stats_table(n, pattern) the same way, for n in STATS_SIZES, enumeration
of the class included, as in a `permbij stats` process.

Row "tier1.pytest" is the median wall time of TIER1_RUNS runs per side of
the checkout's own test suite (python -m pytest -q in the checkout,
PYTHONPATH=src), with the summary line of the last.  Row "src.lines"
counts the lines of src/permbij/*.py.
"""
from __future__ import annotations

import argparse
import contextlib
import io
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
LAYER_RUNS = 2
SUITE_N_MAX = 10
SUITE_ROW_SIZES = (9, 10)
SUITE_PROJECTED_SIZES = (11, 12)
SUITE_RUNS = 8
COLD_RUNS = 6
STATS_SIZES = (9, 10, 11, 12)
TIER1_RUNS = 2
SIDES = ("parent", "change")

#: one layer at every size in a fresh interpreter: a JSON list of its runs' sizes
LAYER_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
print(json.dumps(layers.measure_layer(sys.argv[3], sys.argv[1])))
"""

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

#: one cold statistics table in a fresh interpreter: its wall time in ms
STATS_SCRIPT = """
import sys, time
from permbij.verify import stats_table
start = time.perf_counter()
stats_table(int(sys.argv[1]), sys.argv[2])
print((time.perf_counter() - start) * 1e3)
"""


def layers():
    """
    (name, set-up from sigma to the call's arguments, timed call); a layer
    whose set-up is None takes no arguments and runs once, at no size.
    """
    from permbij import cli, grid, maps, perm, rsk

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

    def cli_map(bijection):
        def arguments(sigma):
            return (["map", "--bijection", bijection, "--input", perm.format_permutation(sigma)],)

        def call(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.cli_main(argv) != 0:
                    raise SystemExit(f"permbij map --bijection {bijection} failed")

        return (f"cli.map.{bijection}", arguments, call)

    # the undecorated builder where cli_main caches the parser
    build_parser = getattr(cli._build_parser, "__wrapped__", cli._build_parser)

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
        *(cli_map(bijection) for bijection in (
            "gamma", "theta", "theta-rsk", "theta-slide-flip", "gamma-iterative",
            "theta-via-gamma",
        )),
        ("cli.build_parser", None, build_parser),
    ]


def projection(history, n):
    """Seconds projected at n from the last two (n, seconds) points, or None."""
    if len(history) < 2:
        return None
    (n1, t1), (n2, t2) = history[-2:]
    exponent = math.log(max(t2, 1e-9) / max(t1, 1e-9)) / math.log(n2 / n1)
    return t2 * (n / n2) ** max(exponent, 1.0)


def measure_layer(name: str, src: str) -> list[dict]:
    """
    One run of the named layer at every size, in this interpreter, which
    must import permbij from ``src``: per size either the call times in
    seconds or the reason it was skipped.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    import helpers
    import permbij

    if Path(permbij.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"permbij imported from {permbij.__file__}, not from {src}")

    prepare, call = next((p, c) for layer, p, c in layers() if layer == name)
    if prepare is None:
        return [{"n": None, "times": call_times(call, ())}]
    call_history, setup_history = [], []
    rows = []
    for n in SIZES:
        projected = max(
            projection(call_history, n) or 0.0, projection(setup_history, n) or 0.0
        )
        if projected > BUDGET_S:
            rows.append(
                {"n": n, "skipped": f"projected {projected:.3g} s, over the {BUDGET_S:g} s budget"}
            )
            continue
        sigma = helpers.uniform_321_avoider(n, random.Random(f"bench:{n}"))
        start = time.perf_counter()
        args = prepare(sigma)
        setup_history.append((n, time.perf_counter() - start))
        times = call_times(call, args)
        call_history.append((n, statistics.median(times)))
        rows.append({"n": n, "times": times})
    return rows


def call_times(call, args) -> list[float]:
    """Seconds of up to MAX_CALLS calls, fewer once they add up to MIN_TOTAL_S."""
    times = []
    while len(times) < MAX_CALLS and sum(times) < MIN_TOTAL_S:
        start = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - start)
    return times


def fresh_run(checkout: Path, script: str, *args) -> str:
    """Standard output of ``script`` run with ``args`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, check=True,
    ).stdout


def spread(times: list[float], runs: int) -> dict:
    """The fields of a row of ``runs`` runs: the median of ``times`` (ms) and its quartiles."""
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"ms": round(statistics.median(times), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "calls": runs}


def alternating(checkouts: dict[str, Path], runs: int):
    """(side, checkout) pairs, ``runs`` per side, in the order AB BA AB ..."""
    for i in range(runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            yield side, checkouts[side]


def log(side: str, row: dict) -> None:
    figure = f"{row['ms']:10.3f} ms" if "ms" in row else row.get("skipped", "")
    print(f"{side:7s}{row['layer']:30s} n={row.get('n') or '-'!s:<7s} {figure}", file=sys.stderr)


def layer_rows(checkouts: dict[str, Path], name: str) -> dict[str, list[dict]]:
    runs: dict[str, list[list[dict]]] = {side: [] for side in SIDES}
    for side, checkout in alternating(checkouts, LAYER_RUNS):
        script_args = (checkout / "src", ROOT / "bench", name)
        runs[side].append(json.loads(fresh_run(checkout, LAYER_SCRIPT, *script_args)))
    rows: dict[str, list[dict]] = {}
    for side, side_runs in runs.items():
        rows[side] = []
        for sizes in zip(*side_runs):
            times = [t for size in sizes for t in size.get("times", ())]
            row = {"layer": name, "n": sizes[0]["n"]}
            if times:
                row.update(ms=round(statistics.median(times) * 1e3, 4), calls=len(times))
            else:
                row["skipped"] = sizes[0]["skipped"]
            rows[side].append(row)
            log(side, row)
    return rows


def cold_rows(checkouts: dict[str, Path], layer: str, script: str, sizes) -> dict[str, list[dict]]:
    """Rows "<layer>.<pattern>" at each size: COLD_RUNS fresh runs of ``script`` per side."""
    from permbij.perm import PATTERNS

    rows: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pattern in PATTERNS:
        for n in sizes:
            times: dict[str, list[float]] = {side: [] for side in SIDES}
            for side, checkout in alternating(checkouts, COLD_RUNS):
                times[side].append(float(fresh_run(checkout, script, n, pattern)))
            for side in SIDES:
                rows[side].append(
                    {"layer": f"{layer}.{pattern}", "n": n, **spread(times[side], COLD_RUNS)}
                )
                log(side, rows[side][-1])
    return rows


def suite_rows(checkouts: dict[str, Path]) -> dict[str, list[dict]]:
    runs: dict[str, list] = {side: [] for side in SIDES}
    for side, checkout in alternating(checkouts, SUITE_RUNS):
        runs[side].append(json.loads(fresh_run(checkout, SUITE_SCRIPT, SUITE_N_MAX)))
    rows: dict[str, list[dict]] = {}
    for side, side_runs in runs.items():
        per_check: dict[tuple[str, int], list[float]] = {}
        for _, reports in side_runs:
            for check, n, ms in reports:
                if n in SUITE_ROW_SIZES:
                    per_check.setdefault((check, n), []).append(ms)
        rows[side] = [
            {"layer": f"verify.{check}", "n": n, **spread(times, len(times))}
            for (check, n), times in sorted(per_check.items())
        ]
        history: dict[str, list[tuple[int, float]]] = {}
        for row in rows[side]:
            history.setdefault(row["layer"], []).append((row["n"], row["ms"] / 1e3))
        rows[side] += [
            {"layer": layer, "n": n,
             "skipped": f"projected {projection(points, n):.3g} s from n = "
                        f"{points[-2][0]} and {points[-1][0]}, not run"}
            for layer, points in history.items()
            for n in SUITE_PROJECTED_SIZES
        ]
        rows[side].append(
            {"layer": "verify.run_suite", "n_min": 1, "n": SUITE_N_MAX,
             **spread([total for total, _ in side_runs], SUITE_RUNS)}
        )
        for row in rows[side]:
            log(side, row)
    return rows


def tier1_rows(checkouts: dict[str, Path]) -> dict[str, list[dict]]:
    """TIER1_RUNS runs per side of the checkout's test suite: wall time and summary line."""
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    summary: dict[str, str] = {}
    for side, checkout in alternating(checkouts, TIER1_RUNS):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
            cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
            capture_output=True, text=True,
        ).stdout
        times[side].append((time.perf_counter() - start) * 1e3)
        summary[side] = out.strip().splitlines()[-1] if out.strip() else ""
    rows = {}
    for side in SIDES:
        rows[side] = [
            {"layer": "tier1.pytest", "ms": round(statistics.median(times[side]), 1),
             "calls": TIER1_RUNS, "summary": summary[side]}
        ]
        log(side, rows[side][0])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to write the rows to")
    parser.add_argument("parent", type=Path, help="checkout measured as the parent")
    parser.add_argument("change", type=Path, nargs="?", default=ROOT,
                        help="checkout measured as the change (default: this one)")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    # the layer names and the enumeration cap, read from this checkout
    sys.path.insert(0, str(ROOT / "src"))
    from permbij.perm import ENUMERATION_CAP

    names = [name for name, _, _ in layers()]
    parts = [layer_rows(checkouts, name) for name in names]
    parts += [
        cold_rows(checkouts, "perm.enumerate_avoiders", ENUM_SCRIPT, range(1, ENUMERATION_CAP + 1)),
        cold_rows(checkouts, "verify.stats_table", STATS_SCRIPT, STATS_SIZES),
        suite_rows(checkouts),
        tier1_rows(checkouts),
    ]
    rows: dict[str, list[dict]] = {side: [] for side in SIDES}
    for part in parts:
        for side, side_rows in part.items():
            rows[side].extend(side_rows)
    for side, checkout in checkouts.items():
        rows[side].append(
            {"layer": "src.lines", "count": sum(
                len(path.read_text().splitlines())
                for path in (checkout / "src" / "permbij").glob("*.py")
            )}
        )

    record = {
        "sizes": list(SIZES),
        "method": (
            f"parent and change measured alternately, in the order parent, change, "
            f"change, parent and so on, each run in a fresh interpreter; layer rows: "
            f"median of the calls of {LAYER_RUNS} runs per side, each run up to "
            f"{MAX_CALLS} calls per size, fewer once they add up to {MIN_TOTAL_S} s; "
            f"a size is skipped when projected past {BUDGET_S} s; verify.* rows: median "
            f"of {SUITE_RUNS} runs of run_suite(1, {SUITE_N_MAX}) per side, rows at "
            f"n = {', '.join(map(str, SUITE_PROJECTED_SIZES))} projected from n = "
            f"{', '.join(map(str, SUITE_ROW_SIZES))} and not run; "
            f"perm.enumerate_avoiders.* and verify.stats_table.* rows: median of "
            f"{COLD_RUNS} cold runs per side; q1 and q3: quartiles of a row's runs; "
            f"tier1.pytest: median of {TIER1_RUNS} runs of the checkout's test suite "
            "per side"
        ),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "runs": {side: {"rows": side_rows} for side, side_rows in rows.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
