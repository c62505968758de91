"""Benchmark of the biphoton command line.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it needs ``src/biphoton``). With
``--trace 0`` one closed-loop client runs the workload's commands as child
processes, one at a time, and reports the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` the same generated commands run
in-process through ``biphoton.cli.main``, once plain and once with spans
around the package's public functions, followed by a replay of the op's
inputs through every library layer; the per-layer metrics come from those
spans. Every output is checked against the closed-form physics. The last
stdout line is one JSON object: correct, attempted, failed, metrics.

A manifest of each run (machine, versions, seed, every op's argv and the
sha256 of its output) is written to ``perfbench/runs/``, and the spans of
the latest traced run of each workload next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from contextlib import redirect_stderr
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_REPS = 9
REPLAY_EVENTS = 20_000  # per sampling call in the library replay
REPLAY_POINTS = 64  # grid points per sweep in the library replay
MEMORY_EVENTS = 100_000  # sample_events size measured under tracemalloc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], scratch: Path):
    """Run `python -m biphoton ARGS`; return wall s, exit code, its rusage, stderr."""
    with open(scratch / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "biphoton", *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return wall, proc.returncode, usage, text


def finish(op: workloads.Op, out: Path, code: int, err: str) -> dict:
    """Digest and check an op's output, then delete it."""
    data = out.read_bytes() if out.exists() else b""
    rec = {
        "kind": op.kind, "argv": list(op.argv), "exit": code, "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(), "events": op.events,
        "points": op.points, "error": None,
    }
    if code != 0:
        rec["error"] = f"exit {code}: {err.strip()[-300:]}"
    else:
        try:
            workloads.check(op, data, err)
        except Exception as exc:  # any malformed output is this op's failure
            rec["error"] = f"{type(exc).__name__}: {exc}"
    out.unlink(missing_ok=True)
    return rec


def timed_ops(workload: str, seed: int, seconds: float):
    """Whole cycles of ops until `seconds` have passed since the first one."""
    t_start = time.perf_counter()
    for cycle in workloads.cycles(workload, seed):
        if time.perf_counter() - t_start >= seconds:
            return
        yield from cycle


def kind_median(records: list[dict], value) -> float:
    """Mean over op kinds of each kind's median, so mixed workloads weigh kinds equally."""
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["kind"]].append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


# ------------------------------------------------------------ untraced run


def run_untraced(workload: str, seed: int, seconds: float, scratch: Path):
    setup = []
    for _ in range(SETUP_REPS):
        wall, code, _, err = run_child(["--help"], scratch)
        if code != 0:
            raise SystemExit(f"biphoton --help exited {code}: {err.strip()[-300:]}")
        setup.append(wall)
    records = []
    out = scratch / "out"
    for op in timed_ops(workload, seed, seconds):
        wall, code, usage, err = run_child(op.command(str(out)), scratch)
        rec = finish(op, out, code, err)
        rec.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024)
        records.append(rec)
    busy = sum(r["wall_s"] for r in records)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s": kind_median(records, lambda r: r["wall_s"]),
        "points_per_s": sum(r["points"] for r in records) / busy,
        "output_mb_per_s": sum(r["bytes"] for r in records) / 1e6 / busy,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "success_pct": 100.0 * sum(r["error"] is None for r in records) / len(records),
    }
    info = {
        "events_per_s": sum(r["events"] for r in records) / busy,
        "error_rate": sum(r["error"] is not None for r in records) / len(records),
        "job_s_samples": len(records),
        "setup_samples_s": setup,
    }
    return records, metrics, info


# -------------------------------------------------------------- traced run


def import_package():
    sys.path.insert(0, str(SRC))
    import biphoton.cli  # noqa: F401  (imports every layer)

    where = Path(sys.modules["biphoton"].__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"imported biphoton from {where}, not from {SRC}")
    return sys.modules["biphoton"]


def call_main(bp, args: list[str]) -> tuple[int, str]:
    with redirect_stderr(io.StringIO()) as err:
        try:
            code = bp.cli.main(args)
        except Exception as exc:  # an uncaught error is a failed op, as in a child
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, err.getvalue()


def replay(bp, op: workloads.Op) -> None:
    """Drive every library layer once with this op's inputs at fixed sizes."""
    phi_a, phi_b, v, seed = op.replay
    vis = bp.Visibility(v)
    j = bp.joint_distribution(bp.PhaseSettings(phi_a, phi_b), vis)
    bp.SplitMix64(seed).doubles(REPLAY_EVENTS)
    bp.estimate_correlation(bp.sample_events(j, REPLAY_EVENTS, seed))
    s = bp.ChshSettings(phi_a, phi_a + math.pi / 2, phi_b + math.pi / 4, phi_b - math.pi / 4)
    bp.chsh(s, vis)
    bp.bell_experiment(s, vis, REPLAY_EVENTS // 4, seed)
    grid = [phi_b + (phi_a - phi_b) * k / (REPLAY_POINTS - 1) for k in range(REPLAY_POINTS)]
    bp.sweep_correlation(grid, vis)
    bp.no_signaling_check(phi_a, grid, vis)
    bp.correlation_report(bp.premeasure(phi_a - phi_b))


def bytes_per_event(bp, op: workloads.Op) -> float:
    """tracemalloc peak of one sample_events call, per event."""
    phi_a, phi_b, v, seed = op.replay
    j = bp.joint_distribution(bp.PhaseSettings(phi_a, phi_b), bp.Visibility(v))
    tracemalloc.start()
    try:
        events = bp.sample_events(j, MEMORY_EVENTS, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del events
    return peak / MEMORY_EVENTS


def run_traced(workload: str, seed: int, seconds: float, scratch: Path):
    bp = import_package()
    tracer = tracing.Tracer()
    first = next(workloads.cycles(workload, seed))[0]
    mem = bytes_per_event(bp, first)
    records = []
    out = scratch / "out"
    for i, op in enumerate(timed_ops(workload, seed, seconds)):
        args = op.command(str(out))
        rec, error = {}, None
        # Alternate which run goes first so neither always gets the warm cache.
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                with tracer.install(), tracer.root(i, "cli.main") as span:
                    code, err = call_main(bp, args)
                wall = (span[tracing.END] - span[tracing.START]) / 1e9
            else:
                t0 = time.perf_counter()
                code, err = call_main(bp, args)
                wall = time.perf_counter() - t0
            result = finish(op, out, code, err)
            if rec and result["sha256"] != rec["sha256"]:
                error = error or "traced and untraced outputs differ"
            error = error or result["error"]
            rec.update(result, **{"traced_s" if traced else "untraced_s": wall})
        rec["error"] = error
        with tracer.install(), tracer.root(i, "replay"):
            replay(bp, op)
        records.append(rec)
    spans_path = RUNS / f"spans-{workload}.jsonl"
    tracer.dump(spans_path)
    metrics, self_s = layer_metrics(tracer, records, mem)
    info = {"spans": len(tracer.spans), "spans_file": spans_path.name}
    info.update({f"self_s[{name}]": value for name, value in sorted(self_s.items())})
    return records, metrics, info


def layer_metrics(tracer: tracing.Tracer, records: list[dict], mem: float):
    """Per-layer metrics, and the total self time of each span name."""
    S, E, N, W, P = tracing.START, tracing.END, tracing.NAME, tracing.WORK, tracing.PARENT
    self_ns = tracer.self_ns()
    dur, work, self_total = defaultdict(int), defaultdict(int), defaultdict(int)
    cli_work = defaultdict(int)  # work done inside cli.main, i.e. by the program itself
    for rec in tracer.spans:
        dur[rec[N]] += rec[E] - rec[S]
        work[rec[N]] += rec[W]
        self_total[rec[N]] += self_ns[id(rec)]
        top = rec
        while top[P] is not None:
            top = top[P]
        if top[N] == "cli.main":
            cli_work[rec[N]] += rec[W]
        if rec[N] == "cli.main":
            records[rec[tracing.OP]]["self_s"] = self_ns[id(rec)] / 1e9
    ops = len(records)

    def ns_per(name):
        return dur[name] / work[name]

    metrics = {
        "rng.doubles_ns_per_draw": ns_per("rng.SplitMix64.doubles"),
        "rng.draws": cli_work["rng.SplitMix64.doubles"] / ops,
        "optics.joint_distribution_us": ns_per("optics.joint_distribution") / 1e3,
        "optics.joint_calls": cli_work["optics.joint_distribution"] / ops,
        "analysis.sweep_us_per_point": ns_per("analysis.sweep_correlation") / 1e3,
        "analysis.chsh_us": ns_per("analysis.chsh") / 1e3,
        "analysis.no_signaling_us_per_point": ns_per("analysis.no_signaling_check") / 1e3,
        "montecarlo.sample_events_ns_per_event": ns_per("montecarlo.sample_events"),
        "montecarlo.bytes_per_event": mem,
        "montecarlo.estimate_ns_per_event": ns_per("montecarlo.estimate_correlation"),
        "montecarlo.bell_experiment_s": ns_per("montecarlo.bell_experiment") * 1e6 / 1e9,
        "montecarlo.events": cli_work["montecarlo.sample_events"] / ops,
        "premeasure.report_us": (dur["premeasure.premeasure"] + dur["premeasure.correlation_report"])
        / work["premeasure.correlation_report"] / 1e3,
        "cli.main_s": kind_median(records, lambda r: r["traced_s"]),
        "cli.self_s": kind_median(records, lambda r: r["self_s"]),
        "cli.output_bytes": statistics.fmean(r["bytes"] for r in records),
        "trace.overhead_s": kind_median(records, lambda r: r["traced_s"] - r["untraced_s"]),
    }
    return metrics, {name: ns / 1e9 for name, ns in self_total.items()}


# ---------------------------------------------------------------- manifest


def git_commit() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "biphoton" / "__main__.py").is_file():
        print(f"no biphoton sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RUNS))
    try:
        run = run_traced if args.trace else run_untraced
        records, metrics, info = run(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    failed = sum(r["error"] is not None for r in records)
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "metrics": metrics, "info": info,
        "ops": records,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RUNS / name).write_text(json.dumps(manifest, indent=1) + "\n")

    for m in declared:
        print(f"{m['name']:40s} {metrics[m['name']]:16.6g} {m['unit']}")
    for key, value in info.items():
        if isinstance(value, (int, float)):
            print(f"{key:40s} {value:16.6g}  (not gated)")
    for r in records:
        if r["error"] is not None:
            print(f"FAILED {r['kind']}: {r['error']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
