"""
One operation of a benchmark workload, in a fresh interpreter; run.py
starts one worker per operation.

    python3 perfbench/worker.py --workload map-large --seed 1 --op 0 --trace 0

* verify-sweep: ``run_suite(1, 9)``; a fresh interpreter starts with the
  enumeration cache cold, as a CLI user's process does.  Its steps are the
  (check, n) sweeps, timed at the entries of ``verify.CHECKS``.
* class-tables: ``stats_table(9, "321")`` then ``stats_table(9, "132")``;
  its steps are the two tables.
* map-large: round ``--op`` of six in-process ``permbij map`` calls, four
  routes on one uniform 321-avoider of size 400 and the two rewriting
  routes on one of size 100, drawn from ``--seed`` and the round number.
  Its steps are the six calls.

Each step is timed in reference seconds (clock.py) and in wall seconds;
the operation's wall time leaves out the clock's calibration slices.
Outputs are checked after the operation, outside the timed region.  With
``--trace 1`` no slice runs, the calls into permbij are wrapped in spans
(spans.py), and the spans are written to ``--spans-out`` and their summary
is returned.

The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import random
import resource
import sys
import time
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import inputs
from clock import Clock
from spans import Recorder

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import permbij  # noqa: E402
from permbij import cli, grid, maps, perm, rsk, verify  # noqa: E402

#: largest class the sweep covers: C_9 = 4862 permutations per check
VERIFY_N_MAX = 9
#: each table filters the 9! = 362880 words of S_9, about 0.4 s, so that a
#: step stays short enough for the clock's calibration to track the host
STATS_N = 9
#: (CLI bijection, input size); the rewriting routes grow about as n^5
MAP_ROUTES = (
    ("gamma", 400),
    ("theta", 400),
    ("theta-slide-flip", 400),
    ("theta-rsk", 400),
    ("gamma-iterative", 100),
    ("theta-via-gamma", 100),
)
#: most error messages an operation returns
ERROR_LIMIT = 5


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


class Op:
    """Step times, outcome counts and errors of one operation."""

    def __init__(self, recorder: Recorder | None) -> None:
        self.recorder = recorder
        self.clock = Clock(calibrate=recorder is None)
        #: wall seconds of the whole operation, calibration slices left out
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def span(self, name: str, label: str):
        """The outermost span of one call into permbij, when tracing."""
        if self.recorder is None:
            return nullcontext()
        self.recorder.begin_input(label)
        return self.recorder.span(name)

    def outcome(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < ERROR_LIMIT:
                self.errors.append(message)


def _timed_check(check, name: str, clock: Clock):
    def run(n):
        with clock.step(f"{name} n={n}"):
            yield from check(n)

    return run


def run_verify_sweep(op: Op, seed: int, index: int) -> None:
    # the class sweep does not depend on the seed
    if op.recorder is None:
        for name, check in list(verify.CHECKS.items()):
            verify.CHECKS[name] = _timed_check(check, name, op.clock)
    spent = op.clock.spent
    start = time.perf_counter()
    try:
        with op.span("verify.run_suite", f"run_suite 1..{VERIFY_N_MAX}"):
            reports = verify.run_suite(1, VERIFY_N_MAX)
    except Exception as exc:  # a crash is counted as a failed operation
        op.outcome(False, f"run_suite raised {exc!r}")
        return
    op.elapsed = time.perf_counter() - start - (op.clock.spent - spent)
    expected = {(c, n) for c in verify.CHECKS for n in range(1, VERIFY_N_MAX + 1)}
    op.outcome(
        {(r.check, r.n) for r in reports} == expected and len(reports) == len(expected),
        f"run_suite returned {len(reports)} reports, expected {len(expected)}",
    )
    for r in reports:
        op.outcome(
            r.passed and r.cases == catalan(r.n),
            f"{r.check} n={r.n}: cases={r.cases} failures={len(r.failures)}",
        )


def run_class_tables(op: Op, seed: int, index: int) -> None:
    tables = {}
    try:
        for pattern in ("321", "132"):
            with op.clock.step(pattern), op.span(
                "verify.stats_table", f"stats_table {STATS_N} {pattern}"
            ):
                tables[pattern] = verify.stats_table(STATS_N, pattern)
    except Exception as exc:
        op.outcome(False, f"stats_table raised {exc!r}")
        return
    op.elapsed = sum(op.clock.raw.values())
    for pattern, table in tables.items():
        op.outcome(
            table.total == catalan(STATS_N) and table.rows == tables["321"].rows,
            f"class {pattern}: total={table.total}, table equal to 321's: "
            f"{table.rows == tables['321'].rows}",
        )


def _cli_map(op: Op, label: str, bijection: str, sigma: tuple[int, ...]):
    """One ``permbij map`` call, timed as step ``bijection``; returns the image or error text."""
    argv = ["map", "--bijection", bijection, "--input", " ".join(map(str, sigma))]
    out = io.StringIO()
    try:
        with op.clock.step(bijection), op.span("cli.map", label), redirect_stdout(out):
            status = cli.cli_main(argv)
    except Exception as exc:
        return f"raised {exc!r}"
    if status != 0:
        return f"exit status {status}"
    try:
        return tuple(int(v) for v in out.getvalue().split())
    except ValueError:
        return f"unparsable output {out.getvalue()[:80]!r}"


def _map_references(images: dict, samples: dict) -> dict:
    """The value each route's image must equal, from a second route."""
    sigma400, sigma100 = samples[400], samples[100]
    thetas = [images[b] for b in ("theta", "theta-rsk", "theta-slide-flip")]
    agreed, votes = Counter(thetas).most_common(1)[0]
    theta_ref = agreed if votes >= 2 else None
    return {
        "gamma": maps.theta_rsk(inputs.irc(sigma400)),
        "theta": theta_ref,
        "theta-rsk": theta_ref,
        "theta-slide-flip": theta_ref,
        "gamma-iterative": maps.gamma_template(sigma100),
        "theta-via-gamma": maps.theta_rsk(sigma100),
    }


def run_map_large(op: Op, seed: int, index: int) -> None:
    rng = random.Random(f"{seed}:{index}")
    samples = {n: inputs.uniform_321_avoider(n, rng) for n in (400, 100)}
    images = {}
    for bijection, n in MAP_ROUTES:
        label = f"round {index} {bijection} n={n}"
        images[bijection] = _cli_map(op, label, bijection, samples[n])
    op.elapsed = sum(op.clock.raw.values())
    references = _map_references(images, samples)
    for bijection, n in MAP_ROUTES:
        image = images[bijection]
        ok = (
            isinstance(image, tuple)
            and len(image) == n
            and inputs.is_permutation(image)
            and inputs.avoids_132(image)
            and image == references[bijection]
        )
        op.outcome(ok, f"round {index} {bijection} n={n}: {str(image)[:80]}")


WORKLOADS = {
    "verify-sweep": run_verify_sweep,
    "map-large": run_map_large,
    "class-tables": run_class_tables,
}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(recorder: Recorder) -> None:
    """
    Wrap the calls to trace in every namespace callers look them up in, for
    the rest of the process.  A name the package no longer has is skipped,
    so its layer reads 0.
    """
    if hasattr(perm, "avoids"):
        avoids = recorder.timed(perm.avoids, "perm.avoids")
        for owner in (perm, grid, maps):
            if hasattr(owner, "avoids"):
                owner.avoids = avoids
    if hasattr(maps, "smallest_132"):
        maps.smallest_132 = recorder.timed_search(maps.smallest_132, "perm.smallest_132")
    for module, names in (
        (grid, ("l_corners", "rcl_corners", "nested_template", "rc_template",
                "diagonal_ls", "diagonal_template", "realize", "rc_realize",
                "bar_reflect", "transpose")),
        (rsk, ("rsk_tableaux", "dyck_from_tableaux", "template_from_dyck",
               "validate_dyck")),
        (maps, ("gamma", "gamma_template", "gamma_iterative", "theta",
                "theta_corners", "theta_template", "theta_rsk", "theta_slide_flip",
                "slide_flip_template", "theta_via_gamma")),
    ):
        for name in names:
            fn = getattr(module, name, None)
            if callable(fn):
                setattr(module, name, recorder.timed(fn, _span_name(fn)))
    if hasattr(verify, "enumerate_avoiders"):
        verify.enumerate_avoiders = recorder.timed_enumeration(
            verify.enumerate_avoiders, "perm.enumerate_avoiders"
        )
    for name, check in list(verify.CHECKS.items()):
        verify.CHECKS[name] = recorder.timed_generator(check, f"verify.{name}")
    for bijection, _ in MAP_ROUTES:
        fn = cli._MAPS[bijection]
        cli._MAPS[bijection] = recorder.timed(fn, _span_name(fn))


def trace_summary(recorder: Recorder) -> dict:
    self_ns, calls = recorder.summary()
    rewrites = recorder.rewrites_per_call("maps.gamma_iterative")
    return {
        "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
        "calls": calls,
        "spans": len(recorder),
        "rewrites_total": calls.get("maps.gamma_iterative.rewrite", 0),
        "rewrites_max": max(rewrites, default=0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--op", type=int, default=0, help="index of the operation in its run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None, help="file for the traced spans")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(permbij.__file__).resolve().parents:
        print(f"permbij imported from {permbij.__file__}, not from {src}", file=sys.stderr)
        return 2

    recorder = Recorder() if args.trace else None
    if recorder is not None:
        install(recorder)
    op = Op(recorder)
    WORKLOADS[args.workload](op, args.seed, args.op)
    result = {
        "wall_s": op.elapsed,
        "steps_s": op.clock.steps,
        "steps_raw_s": op.clock.raw,
        "attempted": op.attempted,
        "failed": op.failed,
        "errors": op.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["trace"] = trace_summary(recorder)
        if args.spans_out:
            recorder.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
