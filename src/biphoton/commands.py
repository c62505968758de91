"""The command handlers: what `biphoton <command>` runs once its flags parse.

biphoton.cli imports this module only after parsing, so `--help` and the
usage errors argparse reports load none of it. Each handler checks its flags,
then imports what it runs, so no usage error loads numpy: numpy loads only for
the commands that draw (`sample`, `bell` and `sweep --mc`), with the sampling
modules; the exact tables (optics, analysis) and the labelled detection model
(premeasure) are stdlib only. Every byte a command writes is formatted here.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from functools import cache
from itertools import chain

from .cli import _SEEDS, parse_angle

# Grid points `sweep` and `marginals` tabulate at a time; bounds the rows
# held at once (well under 1 MB) whatever --steps is
_GRID_CHUNK = 1 << 10
# Largest count accepted. Trial numbers and counts are held in numpy int64, and
# this bound keeps them far inside its range. No count becomes one array, so a
# count under the bound runs at flat memory for as long as it takes.
_MAX_COUNT = sys.maxsize // 16
_FLOAT = "%.9g"  # every float is printed with 9 significant digits


def _fmt(x: float) -> str:
    return _FLOAT % x


def _render_json(value, indent: int = 0) -> str:
    """Deterministic JSON with floats at 9 significant digits. A NamedTuple is an
    object of its fields in order, a tuple a list, a complex [re, im]; arrays raise TypeError."""
    pad = "  " * indent
    if hasattr(value, "_asdict"):
        value = value._asdict()
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
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "wb") as handle:
            yield handle
        return
    # Created as open() creates a file, so a new target gets the umask's mode
    tmp = os.path.join(os.path.dirname(target), f".biphoton-{os.urandom(8).hex()}")
    try:
        with open(tmp, "xb") as handle:
            yield handle
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        # A signal's exception can land before tmp is made or after it is moved
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_json(path: str | None, value) -> None:
    """value as _render_json's text and a newline, to _open_output(path)."""
    with _open_output(path) as out:
        out.write((_render_json(value) + "\n").encode())


def _visibility(args) -> Visibility:
    from .optics import Visibility

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


def _csv_rows(columns) -> bytes:
    """One CSV line per row of columns (float sequences of one length), each field as _FLOAT.

    A column whose least and greatest entries print one text, both nonzero and of one sign,
    prints that text in every row, as correctly rounded %.9g is monotone; it is formatted
    once, into the row, not once per row. The sign test keeps out a mix of -0.0 and 0.0,
    and a column holding a NaN, whose ends analysis._span gives as NaN.
    """
    from .analysis import _span  # loaded already where _write_grid calls this

    fields, varying = [], []
    for column in columns:
        a, b = _span(column)
        text = _fmt(a)
        if text == _fmt(b) and (a > 0 or b < 0):
            fields.append(text)
        else:
            fields.append(_FLOAT)
            varying.append(column)
    row = (",".join(fields) + "\n").encode()
    return row * len(columns[0]) % tuple(chain.from_iterable(zip(*varying)))


def _write_grid(args, vis: Visibility, grid: tuple[float, float], header: str, columns) -> int:
    """Write header, then one CSV row per grid point, _GRID_CHUNK points at a time.

    columns(start, result) gives the fields, as columns, of the rows of the block
    from grid index start, whose sweep_correlation is result. No list is --steps long.
    """
    from .analysis import sweep_correlation

    lo, step = grid
    with _open_output(args.output) as out:
        out.write(header.encode() + b"\n")
        for start in range(0, args.steps, _GRID_CHUNK):
            deltas = [lo + k * step for k in range(start, min(start + _GRID_CHUNK, args.steps))]
            block = columns(start, sweep_correlation(deltas, vis))
            out.write(_csv_rows(block))
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
        from .montecarlo import estimate_columns

    def columns(start, result):
        fields = [result.delta_grid, result.correlations, *zip(*result.tables),
                  result.singles.a_plus, result.singles.b_plus]
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
    from .optics import CHSH_OPTIMAL, ChshSettings

    vis = _visibility(args)
    if args.optimal == (args.angles is not None):  # both flags, or neither
        args.parser.error("provide --angles a,a',b,b' or --optimal" + ", not both" * args.optimal)
    if args.optimal:
        settings = CHSH_OPTIMAL
    else:
        parts = args.angles.split(",")
        if len(parts) != 4:
            args.parser.error("--angles expects four comma-separated angles")
        try:
            settings = ChshSettings(*map(parse_angle, parts))
        except ValueError as exc:
            args.parser.error(str(exc))
    _check_count(args, args.samples, 2, "--samples", "--samples must be >= 2")
    from .analysis import chsh
    from .montecarlo import bell_experiment

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
    _write_json(args.output, report)
    return 0


def cmd_premeasure(args) -> int:
    # Imported here: no other command runs the detection model.
    from .premeasure import correlation_report, premeasure

    psi = premeasure(args.theta)
    report = correlation_report(psi)
    payload = {"theta": args.theta, **report._asdict()}
    if args.dump_state is not None:
        _write_json(args.dump_state, psi)
    _write_json(args.output, payload)

    joint = report.joint_probs
    cond = report.conditional_probs
    lines = [
        f"detection-model verdict (theta = {_fmt(args.theta)} rad)",
        "  reading 1: both records fired in one trial",
        f"    weight off the correlated pairs: {_fmt(report.both_clicked_prob)}"
        "  -> no support",
        "  reading 2: each outcome occurs exactly when its record does",
        f"    P(D1|A1) = {_fmt(cond['A1']['D1'])}   P(D2|A2) = {_fmt(cond['A2']['D2'])}"
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


@cache
def _low_digits(low: int):
    """Row k: the low ASCII digits of k < 10**low, as one item, for the low
    (at most four) digits of trial numbers. Built once a process, not per
    block: a contiguous array (up to 40 KB) for its V{low} view."""
    import numpy as np

    digits = np.indices((10,) * low, np.uint8).reshape(low, -1).T + ord("0")
    return np.ascontiguousarray(digits).view(f"V{low}")


def _event_lines(start: int, idx, rests: list[bytes]) -> Iterator:
    """JSONL lines _TRIAL_KEY + str(trial) + rests[k] (rests of one length) for
    trials start, start + 1, ... with outcome indices k from idx: one uint8 matrix,
    a row per line, per trial-number width, so the caller's block idx bounds memory.

    Each run of 10**4 trials copies its outcomes' lines, which hold its high
    digits; a trial number's low (at most four) digits come from _low_digits.
    """
    import numpy as np

    stop = start + len(idx)
    lo = start
    while lo < stop:
        digits = len(str(lo))
        hi = min(stop, 10**digits)
        low = min(digits, 4)
        rows = np.empty((hi - lo, len(_TRIAL_KEY) + digits + len(rests[0])), np.uint8)
        # The low digits of each row as one item, like those of table
        text = rows[:, len(_TRIAL_KEY) + digits - low:len(_TRIAL_KEY) + digits].view(f"V{low}")
        table = _low_digits(low)
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
    import numpy as np

    from .montecarlo import estimate_counts, outcome_blocks
    from .optics import OUTCOMES, PhaseSettings, joint_tables

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
