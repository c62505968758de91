"""Workload generation and closed-form output checks for the biphoton benchmark.

Every operation is a `biphoton` command line generated from the workload
seed alone; the program sees nothing but argv. Each check recomputes the
expected numbers from the physics (E = v cos d, S = sum of four such terms,
flat singles, the detection model's e^{-i theta}/2 cross term), never by
calling the package, so a wrong code path cannot vouch for itself.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi
OUT = "{out}"  # placeholder for the op's output path inside argv

STREAM_N = 1_000_000
BELL_N = 250_000
FRINGE_STEPS, FRINGE_MC = 64, 20_000
EXACT_STEPS = 20_000

# A correct program fails one op in about 1e6 (chi-square) or 1e9 (z) by chance.
P_FLOOR = 1e-6
Z_MAX = 6.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus the parameters its check needs."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(hash=False)
    events: int  # sampled events the op draws
    points: int  # exact joint tables the op evaluates
    # (phi_a, phi_b, v, seed) from which the traced run's library replay
    # draws its inputs, so every layer is timed on this op's numbers
    replay: tuple[float, float, float, int]

    def command(self, out_path: str) -> list[str]:
        return [out_path if a == OUT else a for a in self.argv]


def _flags(**values) -> tuple[str, ...]:
    """`--name=value` for each flag; the `=` form keeps argparse from reading a
    negative number such as -0.1,1.6,... as an option."""
    return tuple(f"--{name.replace('_', '-')}={value}" for name, value in values.items())


def _num(x: float) -> str:
    return repr(float(x))


def _sample(rng: random.Random) -> Op:
    # Phases in [1, 6) echo as ten characters each, so every seed writes
    # about the same bytes per event.
    p = dict(
        phi_a=rng.uniform(1.0, 6.0),
        phi_b=rng.uniform(1.0, 6.0),
        v=rng.uniform(0.5, 0.95),
        seed=rng.randrange(2**32),
        n=STREAM_N,
    )
    argv = ("sample", *_flags(samples=p["n"], phi_a=_num(p["phi_a"]), phi_b=_num(p["phi_b"]),
                              visibility=_num(p["v"]), seed=p["seed"]), "--output", OUT)
    return Op("sample", argv, p, p["n"], 1, (p["phi_a"], p["phi_b"], p["v"], p["seed"]))


def _bell(rng: random.Random) -> Op:
    optimal = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    p = dict(
        angles=tuple(a + rng.uniform(-0.3, 0.3) for a in optimal),
        v=rng.uniform(0.6, 0.95),
        seed=rng.randrange(2**32),
        n=BELL_N,
    )
    argv = ("bell", *_flags(angles=",".join(_num(a) for a in p["angles"]), samples=p["n"],
                            threads=2, visibility=_num(p["v"]), seed=p["seed"]), "--output", OUT)
    a, _, b, _ = p["angles"]
    return Op("bell", argv, p, 4 * p["n"], 4, (a, b, p["v"], p["seed"]))


def _grid_params(rng: random.Random, steps: int) -> dict:
    lo = rng.uniform(-math.pi, 0.0)
    return dict(lo=lo, hi=lo + rng.uniform(math.pi / 2, TWO_PI),
                v=rng.uniform(0.5, 0.95), steps=steps)


def _grid_argv(p: dict) -> tuple[str, ...]:
    return _flags(delta_min=_num(p["lo"]), delta_max=_num(p["hi"]), steps=p["steps"],
                  visibility=_num(p["v"]))


def _sweep_mc(rng: random.Random) -> Op:
    p = _grid_params(rng, FRINGE_STEPS)
    p.update(n=FRINGE_MC, seed=rng.randrange(2**32))
    argv = ("sweep", *_grid_argv(p), *_flags(mc=f"{p['n']},{p['seed']}", threads=2),
            "--output", OUT)
    return Op("sweep_mc", argv, p, p["steps"] * p["n"], p["steps"],
              (p["hi"], p["lo"], p["v"], p["seed"]))


def _sweep(rng: random.Random) -> Op:
    p = _grid_params(rng, EXACT_STEPS)
    return Op("sweep", ("sweep", *_grid_argv(p), "--output", OUT), p, 0, p["steps"],
              (p["hi"], p["lo"], p["v"], 1))


def _marginals(rng: random.Random) -> Op:
    p = _grid_params(rng, EXACT_STEPS)
    return Op("marginals", ("marginals", *_grid_argv(p), "--output", OUT), p, 0, p["steps"],
              (p["hi"], p["lo"], p["v"], 1))


def _premeasure(rng: random.Random) -> Op:
    p = dict(theta=rng.uniform(-math.pi, math.pi))
    return Op("premeasure", ("premeasure", *_flags(theta=_num(p["theta"])), "--output", OUT),
              p, 0, 1, (p["theta"], 0.0, 1.0, 1))


# One cycle per workload: a run measures whole cycles only, so every op
# kind of a workload gets the same share of the run.
CYCLES = {
    "stream": (_sample,),
    "sampled_fringe": (_bell, _sweep_mc),
    "exact": (_sweep, _marginals, _premeasure),
}


def cycles(workload: str, seed: int):
    """Endless sequence of op cycles, a pure function of (workload, seed)."""
    makers = CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield [make(rng) for make in makers]


# ---------------------------------------------------------------- checks


class CheckError(Exception):
    """An op's output disagrees with the closed-form physics."""


def _close(name: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{name}: got {got!r}, want {want!r} (tol {tol:g})")


def _joint(v: float, d: float) -> tuple[float, float, float, float]:
    same = v * (1.0 + math.cos(d)) / 4.0 + (1.0 - v) / 4.0
    opp = v * (1.0 - math.cos(d)) / 4.0 + (1.0 - v) / 4.0
    return same, opp, opp, same  # (++, +-, -+, --)


def chi2_sf_3dof(x: float) -> float:
    """Survival function of the chi-square distribution with 3 degrees of freedom."""
    return math.erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)


def _pm1_stderr(e: float, n: int) -> float:
    """Standard error of the mean of n +-1 scores whose mean is e."""
    return math.sqrt(max(0.0, 1.0 - e * e) / (n - 1))


_PAIR_TAILS = tuple(f'"a": "{a}", "b": "{b}"}}\n'.encode()
                    for a, b in (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")))
_SUMMARY = re.compile(
    r"sampled (\d+) events  \+\+: (\d+)  \+-: (\d+)  -\+: (\d+)  --: (\d+)"
    r"  E_hat = (\S+) \+- (\S+)"
)


def _check_sample(p: dict, out: bytes, err: str) -> None:
    n = p["n"]
    lines = out.count(b"\n")
    if lines != n:
        raise CheckError(f"{lines} lines, want {n}")
    counts = [out.count(tail) for tail in _PAIR_TAILS]
    if sum(counts) != n:
        raise CheckError(f"outcome counts {counts} do not cover {n} lines")
    first = json.loads(out[: out.index(b"\n")])
    last = json.loads(out[out.rindex(b"\n", 0, len(out) - 1) + 1:])
    if (first["trial"], last["trial"]) != (0, n - 1):
        raise CheckError(f"trial range {first['trial']}..{last['trial']}")
    for key in ("phi_a", "phi_b"):
        _close(key, first[key], p[key] % TWO_PI, 1e-8)
    expected = _joint(p["v"], p["phi_a"] - p["phi_b"])
    x = sum((c - n * q) ** 2 / (n * q) for c, q in zip(counts, expected))
    if chi2_sf_3dof(x) < P_FLOOR:
        raise CheckError(f"chi-square {x:.3f} (3 dof) below p-floor {P_FLOOR:g}")
    m = _SUMMARY.search(err)
    if m is None:
        raise CheckError(f"no count summary on stderr: {err[-200:]!r}")
    if [int(g) for g in m.groups()[:5]] != [n, *counts]:
        raise CheckError(f"stderr summary {m.group(0)!r} disagrees with file counts {counts}")
    e_hat = (counts[0] + counts[3] - counts[1] - counts[2]) / n
    _close("E_hat", float(m.group(6)), e_hat, 1e-8)
    _close("stderr", float(m.group(7)), _pm1_stderr(e_hat, n), 1e-6 * _pm1_stderr(e_hat, n))


def _check_bell(p: dict, out: bytes, err: str) -> None:
    r = json.loads(out)
    a, a2, b, b2 = p["angles"]
    v, n = p["v"], p["n"]
    got_angles = (r["angles"]["a"], r["angles"]["a_prime"], r["angles"]["b"], r["angles"]["b_prime"])
    for name, got, want in zip(("a", "a'", "b", "b'"), got_angles, p["angles"]):
        _close(name, got, want, 1e-8)
    es = [v * math.cos(x - y) for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))]
    s_exact = es[0] + es[1] + es[2] - es[3]
    _close("S_exact", r["S_exact"], s_exact, 2e-8)
    sigma = math.sqrt(sum(1.0 - e * e for e in es) / (n - 1))
    _close("S_hat", r["S_hat"], s_exact, Z_MAX * sigma)
    _close("stderr", r["stderr"], sigma, 0.1 * sigma)
    if (r["n_per_setting"], r["seed"], r["visibility"]) != (n, p["seed"], float(format(v, ".9g"))):
        raise CheckError("n_per_setting, seed or visibility not echoed")
    if r["violation"] != (r["S_hat"] - 2.0 > 3.0 * r["stderr"]):
        raise CheckError("violation flag disagrees with S_hat and stderr")


def _grid_rows(p: dict, out: bytes, header: str) -> list[tuple[float, list[float]]]:
    """(exact grid delta, parsed fields) per row, after checking the printed delta."""
    text = out.decode()
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    head, *rows = text[:-1].split("\n")
    if head != header:
        raise CheckError(f"header {head!r}, want {header!r}")
    if len(rows) != p["steps"]:
        raise CheckError(f"{len(rows)} rows, want {p['steps']}")
    step = (p["hi"] - p["lo"]) / (p["steps"] - 1)
    table = []
    for i, row in enumerate(rows):
        fields = [float(x) for x in row.split(",")]
        delta = p["lo"] + i * step
        _close(f"row {i} delta", fields[0], delta, 1e-8 * max(1.0, abs(delta)))
        table.append((delta, fields))
    return table


def _check_sweep(p: dict, out: bytes, err: str) -> None:
    mc = "n" in p
    header = "delta,E_exact,p_pp,p_pm,p_mp,p_mm,pA_plus,pB_plus" + (",E_hat,stderr" if mc else "")
    v = p["v"]
    for i, (d, f) in enumerate(_grid_rows(p, out, header)):
        e = v * math.cos(d)
        _close(f"row {i} E_exact", f[1], e, 2e-9)
        for name, got, want in zip(("p_pp", "p_pm", "p_mp", "p_mm"), f[2:6], _joint(v, d)):
            _close(f"row {i} {name}", got, want, 2e-9)
        _close(f"row {i} sum p", sum(f[2:6]), 1.0, 4e-9)
        _close(f"row {i} pA_plus", f[6], 0.5, 1e-9)
        _close(f"row {i} pB_plus", f[7], 0.5, 1e-9)
        if mc:
            n = p["n"]
            _close(f"row {i} E_hat", f[8], e, Z_MAX * _pm1_stderr(e, n))
            want = _pm1_stderr(f[8], n)
            _close(f"row {i} stderr", f[9], want, 1e-6 * want + 1e-12)


def _check_marginals(p: dict, out: bytes, err: str) -> None:
    for i, (_, f) in enumerate(_grid_rows(p, out, "delta,pA_plus,pA_minus,pB_plus,pB_minus")):
        for name, got in zip(("pA_plus", "pA_minus", "pB_plus", "pB_minus"), f[1:]):
            _close(f"row {i} {name}", got, 0.5, 1e-9)


def _check_premeasure(p: dict, out: bytes, err: str) -> None:
    r = json.loads(out)
    theta = p["theta"]
    _close("theta", r["theta"], theta, 1e-8)
    _close("both_clicked_prob", r["both_clicked_prob"], 0.0, 1e-12)
    _close("iff_violation_prob", r["iff_violation_prob"], 0.0, 1e-12)
    re_c, im_c = r["correlation_coherence"]
    _close("coherence re", re_c, math.cos(-theta) / 2.0, 1e-8)
    _close("coherence im", im_c, math.sin(-theta) / 2.0, 1e-8)
    _close("coherence modulus", r["correlation_coherence_modulus"], 0.5, 1e-9)
    _close("P(A1,D1)", r["joint_probs"]["A1"]["D1"], 0.5, 1e-9)
    _close("P(A2,D2)", r["joint_probs"]["A2"]["D2"], 0.5, 1e-9)
    for k, c in enumerate(r["subsystem_coherence"]):
        _close(f"subsystem coherence {k}", c, 0.0, 1e-12)


CHECKS = {
    "sample": _check_sample,
    "bell": _check_bell,
    "sweep_mc": _check_sweep,
    "sweep": _check_sweep,
    "marginals": _check_marginals,
    "premeasure": _check_premeasure,
}


def check(op: Op, out: bytes, err: str) -> None:
    """Raise CheckError (or a parse error) unless the op's output is right."""
    CHECKS[op.kind](op.params, out, err)
