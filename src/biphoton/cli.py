"""Command-line surface: exact sweeps, Bell runs, detection-model reports,
and event sampling, emitting plottable CSV / JSON / JSONL.

Output is byte-stable: field order is fixed, floats are printed with 9
significant digits, and every sampled quantity is a pure function of the
flags and the seed, whatever the thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import re
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from .analysis import CHSH_OPTIMAL, ChshSettings, chsh, sweep_correlation
from .montecarlo import bell_experiment, estimate_columns, estimate_counts, outcome_blocks
from .optics import OUTCOMES, PhaseSettings, Visibility, joint_tables
from .premeasure import correlation_report, premeasure

# Grid points `sweep` and `marginals` tabulate at a time; bounds the rows
# held at once (well under 1 MB) whatever --steps is
_GRID_CHUNK = 1 << 10
# Largest count accepted. Trial numbers, grid indices and counts are held in
# numpy int64, and this bound keeps them far inside its range. No count
# becomes one array, so a count under the bound runs at flat memory for as
# long as it takes.
_MAX_COUNT = sys.maxsize // 16
_SEEDS = range(2**64)  # seeds accepted: the splitmix64 states
_FLOAT = "%.9g"  # every float is printed with 9 significant digits


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


def _fmt(x: float) -> str:
    return _FLOAT % x


def _render_json(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 9 significant digits. A dataclass is an
    object of its fields in order, an array a list, a complex number [re, im]."""
    pad = "  " * indent
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, complex):
        value = [value.real, value.imag]
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{key}": {_render_json(val, indent + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_render_json(v, indent) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


@contextmanager
def _open_output(path: str | None):
    """Binary handle for a command's output: stdout's buffer for None or '-', else path.

    A file is written under a temporary name in its own directory and moved
    onto path only when the command succeeds, so an error midway leaves no
    partial file and an earlier file at path as it was. Paths that exist but
    are not regular files (/dev/null, a pipe) are written in place.
    """
    if path is None or path == "-":
        if getattr(sys.stdout, "buffer", None) is None:
            raise OSError("standard output is closed or takes no bytes")
        sys.stdout.flush()
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as handle:
            yield handle
        return
    try:
        mode = os.stat(target).st_mode & 0o7777
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(prefix=".biphoton-", dir=os.path.dirname(target))
    try:
        with open(fd, "wb") as handle:
            yield handle
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _visibility(args) -> Visibility:
    try:
        return Visibility(args.visibility)
    except ValueError as exc:
        args.parser.error(str(exc))


def _check_count(args, n: int, least: int, flag: str, too_few: str) -> None:
    """Usage error unless least <= n <= _MAX_COUNT; too_few is the message if n < least."""
    if n < least:
        args.parser.error(too_few)
    if n > _MAX_COUNT:
        args.parser.error(f"{flag} must be <= {_MAX_COUNT}, got {n}")


def _grid(args) -> tuple[float, float]:
    """(lo, step): grid point k of --steps is lo + k * step."""
    _check_count(args, args.steps, 2, "--steps", f"--steps must be >= 2, got {args.steps}")
    lo, hi = args.delta_min, args.delta_max
    step = (hi - lo) / (args.steps - 1)
    # The grid is monotonic, so its last point is finite only if every one is.
    if not math.isfinite(lo + (args.steps - 1) * step):
        args.parser.error(f"grid from {_fmt(lo)} to {_fmt(hi)} in {args.steps} steps overflows")
    return lo, step


def _write_grid(args, vis: Visibility, grid: tuple[float, float], header: str, columns) -> int:
    """Write header, then one CSV row per grid point, _GRID_CHUNK points at a time.

    columns(start, result) gives the fields, as columns, of the rows of the block
    from grid index start, whose sweep_correlation is result. No array is --steps long.
    """
    lo, step = grid
    with _open_output(args.output) as out:
        out.write(header.encode() + b"\n")
        for start in range(0, args.steps, _GRID_CHUNK):
            deltas = lo + np.arange(start, min(start + _GRID_CHUNK, args.steps)) * step
            block = np.column_stack(columns(start, sweep_correlation(deltas, vis)))
            row = b",".join([_FLOAT.encode()] * block.shape[1]) + b"\n"
            out.write(row * len(block) % tuple(block.ravel().tolist()))
    return 0


def cmd_sweep(args) -> int:
    vis = _visibility(args)
    grid = _grid(args)
    header = "delta,E_exact,p_pp,p_pm,p_mp,p_mm,pA_plus,pB_plus"
    if args.mc is not None:
        try:
            n_text, seed_text = args.mc.split(",")
            n, seed = int(n_text), int(seed_text)
        except ValueError:
            args.parser.error(f"--mc expects N,SEED, got {args.mc!r}")
        _check_count(args, n, 2, "--mc sample count", "--mc sample count must be >= 2")
        if seed not in _SEEDS:
            args.parser.error(f"--mc seed must lie in [0, 2**64), got {seed}")
        header += ",E_hat,stderr"

    def columns(start, result):
        m = result.singles
        fields = [result.delta_grid, result.correlations, *result.tables, m.a_plus, m.b_plus]
        if args.mc is not None:
            est = estimate_columns(result.tables, n, seed, start)
            fields += [[e.estimate for e in est], [e.stderr for e in est]]
        return fields

    return _write_grid(args, vis, grid, header, columns)


def cmd_marginals(args) -> int:
    vis = _visibility(args)
    grid = _grid(args)
    return _write_grid(args, vis, grid, "delta,pA_plus,pA_minus,pB_plus,pB_minus",
                       lambda start, result: [result.delta_grid, *result.singles])


def cmd_bell(args) -> int:
    vis = _visibility(args)
    if args.optimal:
        settings = CHSH_OPTIMAL
    elif args.angles is not None:
        parts = args.angles.split(",")
        if len(parts) != 4:
            args.parser.error("--angles expects four comma-separated angles")
        try:
            a, a_prime, b, b_prime = (parse_angle(p) for p in parts)
        except ValueError as exc:
            args.parser.error(str(exc))
        settings = ChshSettings(a, a_prime, b, b_prime)
    else:
        args.parser.error("provide --angles a,a',b,b' or --optimal")
    _check_count(args, args.samples, 2, "--samples", "--samples must be >= 2")

    s_exact = chsh(settings, vis)
    sampled = bell_experiment(settings, vis, args.samples, args.seed)
    report = {
        "angles": settings,
        "visibility": vis.v,
        "S_exact": s_exact,
        "S_hat": sampled.estimate,
        "stderr": sampled.stderr,
        "n_per_setting": args.samples,
        "seed": args.seed,
        "violation": bool(sampled.estimate - 2.0 > 3.0 * sampled.stderr),
    }
    with _open_output(args.output) as out:
        out.write((_render_json(report) + "\n").encode())
    return 0


def cmd_premeasure(args) -> int:
    psi = premeasure(args.theta)
    report = correlation_report(psi)
    payload = {"theta": args.theta, **vars(report)}
    if args.dump_state is not None:
        with _open_output(args.dump_state) as out:
            out.write((_render_json(psi) + "\n").encode())
    with _open_output(args.output) as out:
        out.write((_render_json(payload) + "\n").encode())

    joint = report.joint_probs
    cond = report.conditional_probs
    cond_d1 = cond["A1"]["D1"]
    cond_d2 = cond["A2"]["D2"]
    lines = [
        f"detection-model verdict (theta = {_fmt(args.theta)} rad)",
        "  reading 1: both records fired in one trial",
        f"    weight off the correlated pairs: {_fmt(report.both_clicked_prob)}"
        "  -> no support",
        "  reading 2: each outcome occurs exactly when its record does",
        f"    P(D1|A1) = {_fmt(cond_d1) if cond_d1 is not None else 'n/a'}"
        f"   P(D2|A2) = {_fmt(cond_d2) if cond_d2 is not None else 'n/a'}"
        f"   biconditional failure weight: {_fmt(report.iff_violation_prob)}",
        f"    joint weight on the pairs: P(A1,D1) = {_fmt(joint['A1']['D1'])}"
        f"   P(A2,D2) = {_fmt(joint['A2']['D2'])}",
        f"  subsystem l1 coherence: system {_fmt(report.subsystem_coherence[0])}"
        f"   detector {_fmt(report.subsystem_coherence[1])}",
        f"  cross-pair coherence: modulus {_fmt(report.correlation_coherence_modulus)}"
        f"   phase {_fmt(report.correlation_coherence_phase)} rad",
    ]
    print("\n".join(lines), file=sys.stderr)
    return 0


# Opens every `sample` line, before the trial number
_TRIAL_KEY = b'{"trial": '
# Row k: the four ASCII digits of k, the low digits of trial numbers k mod 10**4
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
# _LOW_DIGITS[low][k]: the last low digits of k < 10**low, as one item. Built
# once, not per block: each is a contiguous copy (up to 40 KB) for its V{low} view.
_LOW_DIGITS = {
    low: np.ascontiguousarray(_DIGITS[:10**low, -low:]).view(f"V{low}") for low in range(1, 5)
}


def _event_lines(start: int, idx: np.ndarray, rests: list[bytes]) -> Iterator[np.ndarray]:
    """JSONL lines _TRIAL_KEY + str(trial) + rests[k] (rests of one length) for
    trials start, start + 1, ... with outcome indices k from idx: one uint8 matrix,
    a row per line, per trial-number width, so the caller's block idx bounds memory.

    Each run of 10**4 trials copies its outcomes' lines, which hold its high
    digits; a trial number's low (at most four) digits come from _LOW_DIGITS.
    """
    stop = start + len(idx)
    lo = start
    while lo < stop:
        digits = len(str(lo))
        hi = min(stop, 10**digits)
        low = min(digits, 4)
        rows = np.empty((hi - lo, len(_TRIAL_KEY) + digits + len(rests[0])), np.uint8)
        # The low digits of each row as one item, like those of table
        text = rows[:, len(_TRIAL_KEY) + digits - low:len(_TRIAL_KEY) + digits].view(f"V{low}")
        table = _LOW_DIGITS[low]
        for run in range(lo - lo % 10**4, hi, 10**4):
            a, b = max(run, lo), min(run + 10**4, hi)
            # Each outcome's line, high digits in, per trial; "clip" lets take fill out unbuffered
            lines = b"".join(_TRIAL_KEY + (b"%d" % run)[:-low] + b"0" * low + r for r in rests)
            lines = np.frombuffer(lines, np.uint8).reshape(len(rests), -1)
            lines.take(idx[a - start:b - start], axis=0, out=rows[a - lo:b - lo], mode="clip")
            text[a - lo:b - lo] = table[a - run:b - run]
        yield rows
        lo = hi


def cmd_sample(args) -> int:
    vis = _visibility(args)
    _check_count(args, args.samples, 1, "--samples", "--samples must be >= 1")
    settings = PhaseSettings(args.phi_a, args.phi_b)
    probs = joint_tables(settings.phi_a, settings.phi_b, vis)
    pa, pb = _fmt(settings.phi_a), _fmt(settings.phi_b)
    # Each line is '{"trial": ' + trial + the rest of the line for its outcome.
    rests = [
        f', "phi_a": {pa}, "phi_b": {pb}, "a": "{a}", "b": "{b}"}}\n'.encode()
        for a, b in OUTCOMES
    ]
    counts = np.zeros(len(OUTCOMES), np.int64)
    with _open_output(args.output) as out:
        for idx in outcome_blocks(probs, args.samples, args.seed):
            out.writelines(_event_lines(int(counts.sum()), idx, rests))
            counts += np.bincount(idx, minlength=len(OUTCOMES))
    summary = "  ".join(f"{a}{b}: {c}" for (a, b), c in zip(OUTCOMES, counts))
    if args.samples >= 2:
        est = estimate_counts(counts)
        summary += f"  E_hat = {_fmt(est.estimate)} +- {_fmt(est.stderr)}"
    print(f"sampled {args.samples} events  {summary}", file=sys.stderr)
    return 0


def _add_output_flag(parser):
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write to PATH instead of standard output ('-' for stdout)",
    )


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
    _add_output_flag(sweep)
    sweep.set_defaults(handler=cmd_sweep, parser=sweep)

    marg = sub.add_parser(
        "marginals", help="CSV of the four single-detector probabilities over a sweep"
    )
    _add_grid_flags(marg)
    _add_output_flag(marg)
    marg.set_defaults(handler=cmd_marginals, parser=marg)

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
    _add_output_flag(bell)
    bell.set_defaults(handler=cmd_bell, parser=bell)

    pre = sub.add_parser(
        "premeasure", help="JSON correlation report of the unitary detection model"
    )
    pre.add_argument("--theta", type=parse_angle, default=0.0, metavar="ANGLE",
                     help="relative phase of the split system state")
    pre.add_argument("--dump-state", default=None, metavar="PATH",
                     help="also write the coupled state vector as JSON")
    _add_output_flag(pre)
    pre.set_defaults(handler=cmd_premeasure, parser=pre)

    sample = sub.add_parser("sample", help="JSONL stream of simulated coincidence events")
    sample.add_argument("--phi-a", type=parse_angle, default=0.0, metavar="ANGLE")
    sample.add_argument("--phi-b", type=parse_angle, default=0.0, metavar="ANGLE")
    sample.add_argument("--visibility", type=float, default=1.0)
    sample.add_argument("--samples", type=int, default=1000, metavar="N")
    sample.add_argument("--seed", type=int, default=1)
    _add_threads_flag(sample)
    _add_output_flag(sample)
    sample.set_defaults(handler=cmd_sample, parser=sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            args.parser.error(f"--threads must be >= 1, got {args.threads}")
        if getattr(args, "seed", 0) not in _SEEDS:
            args.parser.error(f"--seed must lie in [0, 2**64), got {args.seed}")
        return args.handler(args)
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

    Start-up objects (numpy's and ours, ~22k) are frozen first, so neither the
    collections of the run nor the one at interpreter exit walk them. main()
    never freezes: in-process callers keep their collector as it was.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
