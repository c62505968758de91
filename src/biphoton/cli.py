"""Command-line surface: exact sweeps, Bell runs, detection-model reports,
and event sampling, emitting plottable CSV / JSON / JSONL.

Output is byte-stable: field order is fixed, floats are printed with 9
significant digits, and every sampled quantity is a pure function of the
flags and the seed, whatever the thread count.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys

_SEEDS = range(2**64)  # seeds accepted: the splitmix64 states


class UsageError(Exception):
    """Bad flags or flag values; reported as a single line, exit status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


_PI_EXPR = re.compile(
    r"""(?ix) ^ \s* (?P<sign>[+-])? \s*
        (?P<coef>\d+(?:\.\d*)?|\.\d+)? \s* \*? \s* pi \s*
        (?: / \s* (?P<div>\d+(?:\.\d*)?|\.\d+) )? \s* $"""
)


class AngleError(ValueError, argparse.ArgumentTypeError):
    """Text that is no finite angle; argparse reports its message as is."""


def parse_angle(text: str) -> float:
    """Radians from a decimal or a pi-expression like pi, -pi/4, 3pi/2, 0.5*pi."""
    m = _PI_EXPR.match(text)
    try:
        if m:
            coef = float(m.group("coef")) if m.group("coef") else 1.0
            if m.group("div"):
                coef /= float(m.group("div"))
            if m.group("sign") == "-":
                coef = -coef
            angle = coef * math.pi
        else:
            angle = float(text)
    except (ValueError, ZeroDivisionError):
        raise AngleError(
            f"invalid angle {text!r}; use radians or a pi-expression like pi/4"
        ) from None
    if not math.isfinite(angle):
        raise AngleError(f"angle must be finite, got {text!r}")
    return angle


def _add_grid_flags(parser):
    parser.add_argument("--delta-min", type=parse_angle, default=0.0, metavar="ANGLE")
    parser.add_argument("--delta-max", type=parse_angle, default=math.pi, metavar="ANGLE")
    parser.add_argument("--steps", type=int, default=64)
    parser.add_argument("--visibility", type=float, default=1.0)


def _add_threads_flag(parser):
    parser.add_argument(
        "--threads", type=int, default=1, metavar="K",
        help="accepted for compatibility; results do not depend on it (K >= 1)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="biphoton", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = sub.add_parser(
        "sweep", help="CSV of exact (and optionally sampled) correlation vs phase difference"
    )
    _add_grid_flags(sweep)
    sweep.add_argument(
        "--mc", default=None, metavar="N,SEED",
        help="append sampled E_hat,stderr columns from N events per point",
    )
    _add_threads_flag(sweep)

    marg = sub.add_parser(
        "marginals", help="CSV of the four single-detector probabilities over a sweep"
    )
    _add_grid_flags(marg)

    bell = sub.add_parser("bell", help="JSON report of an exact and sampled CHSH run")
    bell.add_argument(
        "--angles", default=None, metavar="A,A',B,B'",
        help="four comma-separated angles (radians or pi-expressions)",
    )
    bell.add_argument(
        "--optimal", action="store_true",
        help="use the settings maximizing S (0, pi/2, pi/4, -pi/4)",
    )
    bell.add_argument("--visibility", type=float, default=1.0)
    bell.add_argument("--samples", type=int, default=100_000, metavar="N",
                      help="events per setting")
    bell.add_argument("--seed", type=int, default=1)
    _add_threads_flag(bell)

    pre = sub.add_parser(
        "premeasure", help="JSON correlation report of the unitary detection model"
    )
    pre.add_argument("--theta", type=parse_angle, default=0.0, metavar="ANGLE",
                     help="relative phase of the split system state")
    pre.add_argument("--dump-state", default=None, metavar="PATH",
                     help="also write the coupled state vector as JSON")

    sample = sub.add_parser("sample", help="JSONL stream of simulated coincidence events")
    sample.add_argument("--phi-a", type=parse_angle, default=0.0, metavar="ANGLE")
    sample.add_argument("--phi-b", type=parse_angle, default=0.0, metavar="ANGLE")
    sample.add_argument("--visibility", type=float, default=1.0)
    sample.add_argument("--samples", type=int, default=1000, metavar="N")
    sample.add_argument("--seed", type=int, default=1)
    _add_threads_flag(sample)

    for command in sub.choices.values():
        command.add_argument(
            "--output", default=None, metavar="PATH",
            help="write to PATH instead of standard output ('-' for stdout)",
        )
        command.set_defaults(parser=command)  # the parser of the handler's usage errors
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            args.parser.error(f"--threads must be >= 1, got {args.threads}")
        if getattr(args, "seed", 0) not in _SEEDS:
            args.parser.error(f"--seed must lie in [0, 2**64), got {args.seed}")
        # Imported only for a run: --help and the usage errors argparse
        # reports load neither numpy nor the sampling modules.
        from . import commands

        return getattr(commands, f"cmd_{args.command}")(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed early (`| head`): stop quietly, and point stdout
        # at devnull so the flush at interpreter exit has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"biphoton: i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"biphoton: out of memory: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry of `biphoton` and `python -m biphoton`: exit with main()'s status.

    Every object left (numpy's and ours, ~22k after a run) is frozen before
    the exit, so the collection at interpreter exit walks none of them. The
    freeze comes after main() because a run imports numpy there (every
    command but premeasure). main() never freezes: in-process callers keep
    their collector as it was.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
