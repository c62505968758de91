"""Command-line surface: exact sweeps, Bell runs, detection-model reports,
and event sampling, emitting plottable CSV / JSON / JSONL.

Output is byte-stable: field order is fixed, floats are printed with 9
significant digits, and every sampled quantity is a pure function of the
flags and the seed, whatever the thread count.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import re
import sys
from contextlib import contextmanager

import numpy as np

from .analysis import CHSH_OPTIMAL, ChshSettings, chsh, sweep_correlation
from .montecarlo import bell_experiment, estimate_outcomes, sample_outcomes
from .optics import OUTCOMES, JointDistribution, PhaseSettings, Visibility, joint_distribution
from .premeasure import correlation_report, premeasure
from .rng import derive_seed

# JSONL lines `sample` formats per write; bounds the text held at once
# (about 4 MB) whatever --samples is
_SAMPLE_CHUNK = 1 << 16
# Grid points `sweep` and `marginals` tabulate at a time; bounds the rows
# held at once (well under 1 MB) whatever --steps is
_GRID_CHUNK = 1 << 10


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
        raise ValueError(
            f"invalid angle {text!r}; use radians or a pi-expression like pi/4"
        ) from None
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {text!r}")
    return angle


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _render_json(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 9 significant digits."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{key}": {_render_json(val, indent + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
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
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


def _visibility(args) -> Visibility:
    try:
        return Visibility(args.visibility)
    except ValueError as exc:
        raise UsageError(f"biphoton {args.command}: error: {exc}") from None


def _grid(args) -> np.ndarray:
    if args.steps < 2:
        raise UsageError(
            f"biphoton {args.command}: error: --steps must be >= 2, got {args.steps}"
        )
    lo, hi = args.delta_min, args.delta_max
    step = (hi - lo) / (args.steps - 1)
    # The grid is monotonic, so its last point is finite only if every one is.
    if not math.isfinite(lo + (args.steps - 1) * step):
        raise UsageError(
            f"biphoton {args.command}: error: grid from {_fmt(lo)} to {_fmt(hi)} "
            f"in {args.steps} steps overflows"
        )
    return lo + np.arange(args.steps) * step


def cmd_sweep(args) -> int:
    vis = _visibility(args)
    grid = _grid(args)
    mc = None
    if args.mc is not None:
        try:
            n_text, seed_text = args.mc.split(",")
            mc = (int(n_text), int(seed_text))
        except ValueError:
            raise UsageError(
                f"biphoton sweep: error: --mc expects N,SEED, got {args.mc!r}"
            ) from None
        if mc[0] < 2:
            raise UsageError("biphoton sweep: error: --mc sample count must be >= 2")
    header = "delta,E_exact,p_pp,p_pm,p_mp,p_mm,pA_plus,pB_plus"
    if mc is not None:
        header += ",E_hat,stderr"
    with _open_output(args.output) as out:
        out.write(header + "\n")
        for start in range(0, len(grid), _GRID_CHUNK):
            result = sweep_correlation(grid[start:start + _GRID_CHUNK], vis)
            for index, (delta, e, probs, m) in enumerate(zip(
                result.delta_grid, result.correlations, result.tables.T.tolist(), result.singles
            ), start):
                fields = [delta, e, *probs, m.a_plus, m.b_plus]
                if mc is not None:
                    n, seed = mc
                    j = JointDistribution(PhaseSettings(delta, 0.0), dict(zip(OUTCOMES, probs)))
                    est = estimate_outcomes(sample_outcomes(j, n, derive_seed(seed, index)))
                    fields += [est.estimate, est.stderr]
                out.write(",".join(_fmt(x) for x in fields) + "\n")
    return 0


def cmd_marginals(args) -> int:
    vis = _visibility(args)
    grid = _grid(args)
    with _open_output(args.output) as out:
        out.write("delta,pA_plus,pA_minus,pB_plus,pB_minus\n")
        for start in range(0, len(grid), _GRID_CHUNK):
            result = sweep_correlation(grid[start:start + _GRID_CHUNK], vis)
            for delta, m in zip(result.delta_grid, result.singles):
                out.write(",".join(_fmt(x) for x in (delta, *m)) + "\n")
    return 0


def cmd_bell(args) -> int:
    vis = _visibility(args)
    if args.optimal:
        settings = CHSH_OPTIMAL
    elif args.angles is not None:
        parts = args.angles.split(",")
        if len(parts) != 4:
            raise UsageError(
                "biphoton bell: error: --angles expects four comma-separated angles"
            )
        try:
            a, a_prime, b, b_prime = (parse_angle(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"biphoton bell: error: {exc}") from None
        settings = ChshSettings(a, a_prime, b, b_prime)
    else:
        raise UsageError("biphoton bell: error: provide --angles a,a',b,b' or --optimal")
    if args.samples < 2:
        raise UsageError("biphoton bell: error: --samples must be >= 2")

    s_exact = chsh(settings, vis)
    sampled = bell_experiment(settings, vis, args.samples, args.seed)
    report = {
        "angles": {
            "a": settings.a,
            "a_prime": settings.a_prime,
            "b": settings.b,
            "b_prime": settings.b_prime,
        },
        "visibility": vis.v,
        "S_exact": s_exact,
        "S_hat": sampled.estimate,
        "stderr": sampled.stderr,
        "n_per_setting": args.samples,
        "seed": args.seed,
        "violation": bool(sampled.estimate - 2.0 > 3.0 * sampled.stderr),
    }
    with _open_output(args.output) as out:
        out.write(_render_json(report) + "\n")
    return 0


def cmd_premeasure(args) -> int:
    psi = premeasure(args.theta)
    report = correlation_report(psi)
    payload = {"theta": args.theta}
    payload.update(report.to_json_dict())
    if args.dump_state is not None:
        with _open_output(args.dump_state) as out:
            out.write(_render_json(psi.to_json_dict()) + "\n")
    with _open_output(args.output) as out:
        out.write(_render_json(payload) + "\n")

    joint = report.joint_probs
    cond = report.conditional_probs
    cc = report.correlation_coherence
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
        f"  cross-pair coherence: modulus {_fmt(abs(cc))}"
        f"   phase {_fmt(cmath.phase(cc))} rad",
    ]
    print("\n".join(lines), file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    vis = _visibility(args)
    if args.samples < 1:
        raise UsageError("biphoton sample: error: --samples must be >= 1")
    settings = PhaseSettings(args.phi_a, args.phi_b)
    j = joint_distribution(settings, vis)
    idx = sample_outcomes(j, args.samples, args.seed)
    pa, pb = _fmt(settings.phi_a), _fmt(settings.phi_b)
    # Each line is '{"trial": ' + trial + the rest of the line for its outcome.
    rests = [
        f', "phi_a": {pa}, "phi_b": {pb}, "a": "{a}", "b": "{b}"}}\n'
        for a, b in OUTCOMES
    ]
    with _open_output(args.output) as out:
        for start in range(0, len(idx), _SAMPLE_CHUNK):
            chunk = idx[start:start + _SAMPLE_CHUNK].tolist()
            out.write("".join([
                f'{{"trial": {trial}{rests[k]}'
                for trial, k in enumerate(chunk, start)
            ]))
    counts = np.bincount(idx, minlength=len(OUTCOMES))
    summary = "  ".join(f"{a}{b}: {c}" for (a, b), c in zip(OUTCOMES, counts))
    if len(idx) >= 2:
        est = estimate_outcomes(idx)
        summary += f"  E_hat = {_fmt(est.estimate)} +- {_fmt(est.stderr)}"
    print(f"sampled {len(idx)} events  {summary}", file=sys.stderr)
    return 0


def _add_output_flag(parser):
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write to PATH instead of standard output ('-' for stdout)",
    )


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
    sweep.add_argument("--delta-min", type=parse_angle, default=0.0, metavar="ANGLE")
    sweep.add_argument("--delta-max", type=parse_angle, default=math.pi, metavar="ANGLE")
    sweep.add_argument("--steps", type=int, default=64)
    sweep.add_argument("--visibility", type=float, default=1.0)
    sweep.add_argument(
        "--mc", default=None, metavar="N,SEED",
        help="append sampled E_hat,stderr columns from N events per point",
    )
    _add_threads_flag(sweep)
    _add_output_flag(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    marg = sub.add_parser(
        "marginals", help="CSV of the four single-detector probabilities over a sweep"
    )
    marg.add_argument("--delta-min", type=parse_angle, default=0.0, metavar="ANGLE")
    marg.add_argument("--delta-max", type=parse_angle, default=math.pi, metavar="ANGLE")
    marg.add_argument("--steps", type=int, default=64)
    marg.add_argument("--visibility", type=float, default=1.0)
    _add_output_flag(marg)
    marg.set_defaults(handler=cmd_marginals)

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
    bell.set_defaults(handler=cmd_bell)

    pre = sub.add_parser(
        "premeasure", help="JSON correlation report of the unitary detection model"
    )
    pre.add_argument("--theta", type=parse_angle, default=0.0, metavar="ANGLE",
                     help="relative phase of the split system state")
    pre.add_argument("--dump-state", default=None, metavar="PATH",
                     help="also write the coupled state vector as JSON")
    _add_output_flag(pre)
    pre.set_defaults(handler=cmd_premeasure)

    sample = sub.add_parser("sample", help="JSONL stream of simulated coincidence events")
    sample.add_argument("--phi-a", type=parse_angle, default=0.0, metavar="ANGLE")
    sample.add_argument("--phi-b", type=parse_angle, default=0.0, metavar="ANGLE")
    sample.add_argument("--visibility", type=float, default=1.0)
    sample.add_argument("--samples", type=int, default=1000, metavar="N")
    sample.add_argument("--seed", type=int, default=1)
    _add_threads_flag(sample)
    _add_output_flag(sample)
    sample.set_defaults(handler=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise UsageError(
                f"biphoton {args.command}: error: --threads must be >= 1, got {args.threads}"
            )
        code = args.handler(args)
        sys.stdout.flush()
        return code
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


if __name__ == "__main__":
    sys.exit(main())
