"""Command-line interface: map, render, verify, stats, enumerate."""
from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Sequence

from . import grid, maps, rsk
from .perm import (
    PATTERNS,
    _Record,
    complement,
    enumerate_avoiders,
    excedances,
    fixed_points,
    format_permutation,
    inverse,
    inverse_reverse_complement,
    parse_permutation,
    reverse,
    reverse_complement,
)
from .verify import run_suite, stats_table

_MAPS = {
    "gamma": maps.gamma,
    "gamma-iterative": maps.gamma_iterative,
    "theta": maps.theta,
    "theta-rsk": maps.theta_rsk,
    "theta-slide-flip": maps.theta_slide_flip,
    "theta-via-gamma": maps.theta_via_gamma,
    "inverse": inverse,
    "reverse": reverse,
    "complement": complement,
    "rc": reverse_complement,
    "irc": inverse_reverse_complement,
}

#: renderable templates: (builder, dot placement)
_TEMPLATES = {
    "t-sigma": (grid.nested_template, grid.realize),
    "t-hat": (grid.diagonal_template, grid.realize),
    "rc-bar": (grid.rc_template, grid.rc_realize),
    "theta-template": (maps.theta_template, grid.realize),
}

_RENDERABLES = (*_TEMPLATES, "dyck", "tableaux")

_INPUT_HELP = "permutation, e.g. '1 4 2 3' or '1423'; '-' reads it from standard input"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permbij",
        description="Bijections between 321-avoiding and 132-avoiding permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="apply a bijection or symmetry to a permutation")
    p_map.add_argument("--bijection", required=True, choices=sorted(_MAPS))
    p_map.add_argument("--input", required=True, help=_INPUT_HELP)
    p_map.add_argument("--compact", action="store_true", help="print a digit string (n <= 9)")
    p_map.add_argument("--format", choices=("text", "json"), default="text")

    p_render = sub.add_parser("render", help="draw a template, the up-down word, or the tableaux")
    p_render.add_argument("--what", required=True, choices=_RENDERABLES)
    p_render.add_argument("--input", required=True, help=_INPUT_HELP)

    p_verify = sub.add_parser("verify", help="run exhaustive cross-checks over whole classes")
    p_verify.add_argument("--n-min", type=int, default=1)
    p_verify.add_argument("--n-max", type=int, default=None, help="default: max(n-min, 8)")
    p_verify.add_argument("--checks", default=None, help="comma-separated check names (default: all)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_stats = sub.add_parser("stats", help="joint fixed-point/excedance table of one class")
    p_stats.add_argument("--n", type=int, required=True)
    p_stats.add_argument("--class", dest="pattern", required=True, choices=PATTERNS)
    p_stats.add_argument("--format", choices=("text", "json"), default="text")

    p_enum = sub.add_parser("enumerate", help="list an avoidance class in lexicographic order")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--avoid", required=True, choices=PATTERNS)
    p_enum.add_argument("--compact", action="store_true")

    return parser


def _read_permutation(text: str):
    """The permutation --input names: its text, or standard input for '-'."""
    return parse_permutation(sys.stdin.read() if text == "-" else text)


class _MapRecord(_Record):
    """The line that permbij map --format json prints: sigma, its image and its statistics."""

    __slots__ = ("n", "sigma", "map", "image", "fixed_points", "excedances")


def _run_map(args) -> int:
    sigma = _read_permutation(args.input)
    image = _MAPS[args.bijection](sigma)
    if args.format == "json":
        print(_MapRecord(len(sigma), sigma, args.bijection, image, fixed_points(sigma),
                         excedances(sigma)).json_line())
    else:
        print(format_permutation(image, compact=args.compact))
    return 0


def _tableau_text(tableau: rsk.TwoRowTableau) -> str:
    text = " ".join(str(v) for v in tableau.row1)
    if tableau.row2:
        text += " / " + " ".join(str(v) for v in tableau.row2)
    return text


def _run_render(args) -> int:
    sigma = _read_permutation(args.input)
    if args.what in _TEMPLATES:
        build, place = _TEMPLATES[args.what]
        template = build(sigma)
        print(grid.render_ascii(template, place(template)))
        return 0
    ins, rec = rsk.rsk_tableaux(sigma)
    if args.what == "dyck":
        print(rsk.dyck_from_tableaux(ins, rec))
    else:
        print(f"insertion: {_tableau_text(ins)}")
        print(f"recording: {_tableau_text(rec)}")
    return 0


def _run_verify(args) -> int:
    checks = None
    if args.checks is not None:
        checks = [name.strip() for name in args.checks.split(",") if name.strip()]
        if not checks:
            raise ValueError("--checks given but no check names found")
    n_max = max(args.n_min, 8) if args.n_max is None else args.n_max
    reports = run_suite(args.n_min, n_max, checks)
    for report in reports:
        print(report.json_line() if args.format == "json" else report.text_line())
    return 0 if all(report.passed for report in reports) else 1


def _run_stats(args) -> int:
    table = stats_table(args.n, args.pattern)
    if args.format == "json":
        print(table.json_line())
    else:
        print(f"n={table.n} avoid={table.pattern} total={table.total}")
        for (f, e), count in sorted(table.rows.items()):
            print(f"fixed_points={f} excedances={e} count={count}")
    return 0


def _run_enumerate(args) -> int:
    for p in enumerate_avoiders(args.n, args.avoid):
        print(format_permutation(p, compact=args.compact))
    return 0


_RUNNERS = {
    "map": _run_map,
    "render": _run_render,
    "verify": _run_verify,
    "stats": _run_stats,
    "enumerate": _run_enumerate,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    """
    Exit status 0 on success, 1 on check failure, 2 on usage or domain error;
    main() exits 141 instead when the reader of standard output closes early.
    The parser is built once per process and reused, as parsing leaves it unchanged.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _RUNNERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at the null device so
        # that the flush at exit does not raise again, and exit 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    main()
