"""In-memory span recorder and the layer boundaries it wraps.

A span is ``(id, parent, op, name, layer, t0, t1, tid, attrs)``.  ``op``
names the benchmark operation the span ran under (a read, an epoch, ...);
server spans carry none.  The parent is the span open in the caller's
context when the span started: a
``contextvars`` variable, so nesting is right across asyncio tasks, and
``ThreadPoolExecutor.submit`` is wrapped while tracing is on so pool
tasks inherit the submitting span (``run_batch`` -> ``execute`` on a pool
thread is still a parent/child pair).

Tracing is installed by patching the public entry points listed in
``BENCH_TARGETS`` / ``SERVER_TARGETS`` and removed by restoring them, so
an untraced stretch runs the program's own functions, unwrapped.  All of
this lives in the benchmark: the program under test is not modified.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)


def _execute_attrs(args, kwargs) -> dict:
    from repro.perf.machine import traffic_bytes

    plan, A = args[0], args[1]
    X = args[2] if len(args) > 2 else kwargs.get("X")
    Y = args[3] if len(args) > 3 else kwargs.get("Y")
    d = (X if X is not None else Y).shape[1]
    return {
        "pattern": plan.op_pattern.name,
        "nnz": int(A.nnz),
        "d": int(d),
        "eq4_bytes": int(traffic_bytes(A, d, fused=True)),
    }


def _window_attrs(args, kwargs) -> dict:
    return {"size": int(args[1]), "waits_ms": [float(w) for w in args[2]]}


# (module, class or None for a module function, attribute, span name, layer, attrs)
_CORE = [("repro.runtime.plan", "KernelPlan", "execute", "core.execute", "core", _execute_attrs)]
_RUNTIME = [
    ("repro.runtime.runtime", "KernelRuntime", "run", "runtime.run", "runtime", None),
    ("repro.runtime.runtime", "KernelRuntime", "run_batch", "runtime.run_batch", "runtime", None),
    ("repro.runtime.runtime", "EpochStream", "run_on", "runtime.run_on", "runtime", None),
    ("repro.runtime.runtime", "EpochStream", "step", "runtime.step", "runtime", None),
    # KernelRuntime.plan resolves build_plan through its module globals.
    ("repro.runtime.runtime", None, "build_plan", "runtime.build_plan", "runtime", None),
]
BENCH_TARGETS = _CORE + _RUNTIME + [
    ("repro.sparse.csr", "CSRMatrix", "select_rows", "sparse.select_rows", "sparse", None),
    ("repro.apps.sampling", "NegativeSampler", "sample", "apps.sample", "apps", None),
    ("repro.apps.force2vec", "Force2Vec", "train_epoch", "apps.train_epoch", "apps", None),
    ("repro.serve.wire", "WireClient", "send_kernel", "serve.client_send", "serve", None),
    ("repro.serve.wire", "WireClient", "recv", "serve.client_recv", "serve", None),
    ("repro.serve.client", "ServeClient", "mutate", "serve.client_mutate", "serve", None),
    ("repro.serve.client", "ServeClient", "kernel", "serve.client_kernel", "serve", None),
]
SERVER_TARGETS = _CORE + _RUNTIME + [
    ("repro.runtime.dynamic", "DynamicGraph", "apply_edges", "runtime.apply_edges", "runtime", None),
    ("repro.sparse.delta", "DeltaCSR", "apply", "sparse.delta_apply", "sparse", None),
    ("repro.serve.registry", "ModelRegistry", "mutate_graph", "serve.mutate_graph", "serve", None),
    ("repro.serve.server", "KernelServer", "shutdown", "serve.shutdown", "serve", None),
    ("repro.serve.coalescer", "CoalescerStats", "record_window", "serve.window", "serve", _window_attrs),
]


class Recorder:
    """Keeps spans in memory; :meth:`install` / :meth:`uninstall` patch the
    targets in and out.  ``spans`` is appended from many threads (a list
    append is atomic under the interpreter lock)."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self._targets: Sequence[tuple] = ()

    # ------------------------------------------------------------------ #
    def _record(self, name, layer, parent, sid, t0, t1, attrs) -> None:
        self.spans.append(
            {
                "id": sid,
                "parent": parent,
                "op": _OP.get(),
                "name": name,
                "layer": layer,
                "t0": t0,
                "t1": t1,
                "tid": threading.get_ident(),
                "attrs": attrs,
            }
        )

    def add(self, name: str, layer: str, t0: float, t1: float, **attrs) -> None:
        """Record a span timed by the caller (the benchmark's own ops)."""
        self._record(name, layer, _CURRENT.get(), next(self._ids), t0, t1, attrs)

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Tag the spans recorded inside with ``op_id`` (no-op untraced)."""
        token = _OP.set(op_id) if self._patches else None
        try:
            yield
        finally:
            if token is not None:
                _OP.reset(token)

    def _wrap(self, fn: Callable, name: str, layer: str, attrs_fn) -> Callable:
        rec = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent, sid = _CURRENT.get(), next(rec._ids)
                token = _CURRENT.set(sid)
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    _CURRENT.reset(token)
                    rec._record(name, layer, parent, sid, t0, t1, {})

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, sid = _CURRENT.get(), next(rec._ids)
            attrs = attrs_fn(args, kwargs) if attrs_fn is not None else {}
            token = _CURRENT.set(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _CURRENT.reset(token)
                rec._record(name, layer, parent, sid, t0, t1, attrs)

        return wrapper

    def install(self, targets: Sequence[tuple]) -> None:
        if self._patches:
            return
        self._targets = targets
        for module_name, cls_name, attr, name, layer, attrs_fn in targets:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, layer, attrs_fn))
            self._patches.append((owner, attr, original))
        original_submit = ThreadPoolExecutor.__dict__["submit"]

        def submit(executor, fn, /, *args, **kwargs):
            return original_submit(
                executor, contextvars.copy_context().run, fn, *args, **kwargs
            )

        ThreadPoolExecutor.submit = submit
        self._patches.append((ThreadPoolExecutor, "submit", original_submit))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks untraced."""
        installed = bool(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install(self._targets)


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Spans of one process, indexed by parent for self-time queries."""

    def __init__(self, spans: Sequence[dict]) -> None:
        self.spans = list(spans)
        self.children: Dict[Optional[int], List[dict]] = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name: str, since: float = float("-inf")) -> List[dict]:
        return [s for s in self.spans if s["name"] == name and s["t0"] >= since]

    def _covered(self, span: dict, match: Callable[[dict], bool]) -> float:
        """Length of ``span`` covered by its nearest descendants that
        ``match`` (clipped to the span; children on other threads overlap,
        so this is an interval union, not a sum)."""
        intervals, stack = [], list(self.children.get(span["id"], ()))
        while stack:
            child = stack.pop()
            if match(child):
                intervals.append((max(child["t0"], span["t0"]), min(child["t1"], span["t1"])))
            else:
                stack.extend(self.children.get(child["id"], ()))
        return union_length(i for i in intervals if i[1] > i[0])

    def self_time(self, span: dict) -> float:
        """Duration minus the part its direct children cover."""
        return span["t1"] - span["t0"] - self._covered(span, lambda c: True)

    def net_of_layer(self, span: dict, layer: str) -> float:
        """Duration minus the part covered by descendants in ``layer``."""
        return span["t1"] - span["t0"] - self._covered(span, lambda c: c["layer"] == layer)


def unattributed(spans: Sequence[dict], since: float) -> tuple:
    """``(op seconds not inside any other span, op seconds)`` summed over the
    benchmark's client threads: the trace's blind spot inside ops."""
    by_tid: Dict[int, List[dict]] = {}
    for s in spans:
        if s["t0"] >= since:
            by_tid.setdefault(s["tid"], []).append(s)
    blind = total = 0.0
    for group in by_tid.values():
        ops = [(s["t0"], s["t1"]) for s in group if s["name"] == "bench.op"]
        if not ops:
            continue
        op_len = union_length(ops)
        inner = [(s["t0"], s["t1"]) for s in group if s["name"] != "bench.op"]
        # Covered = |ops ∩ inner| = |ops| + |inner| - |ops ∪ inner|.
        covered = op_len + union_length(inner) - union_length(ops + inner)
        blind += op_len - covered
        total += op_len
    return blind, total
