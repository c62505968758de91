"""In-memory spans around calls into the biphoton package's public functions.

The benchmark does not change the package: while a traced call runs, the
functions listed in WRAPPED are swapped, in every biphoton module that
binds them, for wrappers that record a span. A span is
``[op, parent, name, start_ns, end_ns, work]``; ``parent`` is the enclosing
span object, or None for a root. A call made from a worker thread (the
``--threads`` pool) has no open span in its own thread, so its parent is
the innermost open span of the thread that started the op.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager

# (module, attribute, work units of one call from its positional arguments)
WRAPPED = (
    ("rng", "SplitMix64.doubles", lambda a: a[1]),
    ("optics", "joint_distribution", lambda a: 1),
    ("analysis", "chsh", lambda a: 1),
    ("analysis", "sweep_correlation", lambda a: len(a[0])),
    ("analysis", "no_signaling_check", lambda a: len(a[1])),
    ("montecarlo", "sample_events", lambda a: a[1]),
    ("montecarlo", "estimate_correlation", lambda a: len(a[0])),
    ("montecarlo", "bell_experiment", lambda a: 4 * a[2]),
    ("premeasure", "premeasure", lambda a: 1),
    ("premeasure", "correlation_report", lambda a: 1),
)

OP, PARENT, NAME, START, END, WORK = range(6)


class Tracer:
    """Collects spans in memory; install() patches the package while tracing."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._local = threading.local()
        self._main_stack: list[list] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, work: int = 1):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        rec = [self.op, parent, name, time.perf_counter_ns(), 0, work]
        stack.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(rec)

    @contextmanager
    def root(self, op: int, name: str):
        """Open the top span of op `op` on the calling thread."""
        self.op = op
        self._main_stack = self._stack()
        with self.span(name) as rec:
            yield rec

    def _wrap(self, name: str, fn, work):
        def traced(*args, **kwargs):
            with self.span(name, work(args)):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Route the package's public calls through span wrappers, then restore."""
        modules = [m for k, m in sys.modules.items() if k == "biphoton" or k.startswith("biphoton.")]
        undo = []
        for mod_name, attr, work in WRAPPED:
            owner = sys.modules[f"biphoton.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{mod_name}.{attr}", original, work))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(f"{mod_name}.{attr}", original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        undo.append((mod, key, original))
        try:
            yield
        finally:
            for target, key, original in reversed(undo):
                setattr(target, key, original)

    # ------------------------------------------------------------ analysis

    def self_ns(self) -> dict[int, int]:
        """Self time of each span (by id()): its duration minus what its children cover."""
        children: dict[int, list[list]] = {}
        for rec in self.spans:
            if rec[PARENT] is not None:
                children.setdefault(id(rec[PARENT]), []).append(rec)
        out = {}
        for rec in self.spans:
            covered, reach = 0, rec[START]
            for c in sorted(children.get(id(rec), ()), key=lambda c: c[START]):
                lo, hi = max(c[START], reach), min(c[END], rec[END])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[id(rec)] = rec[END] - rec[START] - covered
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line; ids are positions in the file."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                parent = index[id(rec[PARENT])] if rec[PARENT] is not None else None
                fh.write(json.dumps({
                    "id": i, "op": rec[OP], "parent": parent, "name": rec[NAME],
                    "start_ns": rec[START], "end_ns": rec[END], "work": rec[WORK],
                }) + "\n")
