"""In-memory span tracer for the nil3trans layers.

``install`` wraps, at run time, every public function that each layer
module of ``nil3trans`` defines, in every ``nil3trans`` namespace that binds
it (``families`` and ``verify`` import the kernels by name).  It also wraps
``nil3trans.ode.solve_ivp`` and ``Trajectory.__call__``.  A wrapper records
one span per call: name, start, end, parent span, operation id and thread.
Spans are kept in compact per-thread columns, summarised when the run ends
and written out with ``Tracer.write``.  Counters that need a call's arguments or result (ODE steps, shape
samples, exported bytes) are taken in the same wrappers.

Self time is a span's duration minus the time its children on the same
thread cover.  A span opened on a thread with no open span (the verify
suites' pool workers) takes the current operation as its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("core", "surface", "ode", "families", "asymptotics", "exports",
          "verify", "cli")
OP_SPAN = "bench.op"


class _ThreadBuffer:
    """Span columns and counters of one thread."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list = []
        self.counters: Counter = Counter()
        self.sid = array("i")
        self.parent = array("i")
        self.name = array("H")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._ids = itertools.count(1)
        self._thread_ids = itertools.count()
        self._local = threading.local()
        self._buffers: list = []
        self.active = False
        self.op = 0
        self.op_span = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(next(self._thread_ids))
            self._local.buf = buf
            self._buffers.append(buf)
        return buf

    def wrap(self, fn, name: str, call=None):
        """Return a recording wrapper around ``fn``.

        ``call(fn, args, kwargs, counters)`` performs the call when a counter
        needs the arguments or the result.
        """
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            buf = tracer.buffer()
            sid = next(tracer._ids)
            stack = buf.stack
            parent = stack[-1] if stack else tracer.op_span
            stack.append(sid)
            t0 = perf_counter()
            try:
                if call is None:
                    return fn(*args, **kwargs)
                return call(fn, args, kwargs, buf.counters)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record(buf, sid, parent, nid, t0, t1)

        return wrapper

    def _record(self, buf, sid, parent, nid, t0, t1):
        buf.sid.append(sid)
        buf.parent.append(parent)
        buf.name.append(nid)
        buf.op.append(self.op)
        buf.t0.append(t0)
        buf.t1.append(t1)

    @contextmanager
    def operation(self, op_id: int):
        """Trace the body as operation ``op_id`` under its own root span."""
        buf = self.buffer()
        sid = next(self._ids)
        self.op, self.op_span = op_id, sid
        buf.stack.append(sid)
        self.active = True
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.active = False
            buf.stack.pop()
            self._record(buf, sid, 0, self.name_id(OP_SPAN), t0, t1)

    def counters(self) -> Counter:
        total: Counter = Counter()
        for buf in self._buffers:
            total.update(buf.counters)
        return total

    def columns(self) -> dict:
        """All spans as numpy columns, one row per span."""
        bufs = [b for b in self._buffers if len(b.sid)]
        cols = {key: np.concatenate([np.frombuffer(getattr(b, key), dtype=dtype)
                                     for b in bufs])
                for key, dtype in (("sid", np.int32), ("parent", np.int32),
                                   ("name", np.uint16), ("op", np.int32),
                                   ("t0", np.float64), ("t1", np.float64))}
        cols["thread"] = np.concatenate([np.full(len(b.sid), b.index, dtype=np.int32)
                                         for b in bufs])
        return cols

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        cols = self.columns()
        n = len(cols["sid"])
        dur = cols["t1"] - cols["t0"]
        pos = np.full(int(cols["sid"].max()) + 1, -1, dtype=np.int64)
        pos[cols["sid"]] = np.arange(n)
        pidx = pos[cols["parent"]]
        has = pidx >= 0
        same = has & (cols["thread"][np.where(has, pidx, 0)] == cols["thread"])
        own = dur - np.bincount(pidx[same], weights=dur[same], minlength=n)
        k = len(self.names)
        calls = np.bincount(cols["name"], minlength=k)
        incl = np.bincount(cols["name"], weights=dur, minlength=k)
        selfs = np.bincount(cols["name"], weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def write(self, path) -> None:
        """Save every span (columns plus the name table) as an .npz file."""
        np.savez(path, names=np.array(self.names), **self.columns())

    def threads(self) -> int:
        """Number of distinct threads that recorded a span."""
        return sum(1 for b in self._buffers if len(b.sid))


# ---------------------------------------------------------------------------
# counter-taking calls


def _call_integrate(fn, args, kwargs, counters):
    """Count every evaluation of the problem's right-hand side."""
    problem = args[0] if args else kwargs["problem"]
    rhs = problem.rhs

    def counted(t, y):
        counters["ode.rhs_calls"] += 1
        return rhs(t, y)

    problem.rhs = counted
    try:
        traj = fn(*args, **kwargs)
    finally:
        problem.rhs = rhs
    if traj.termination == "step_underflow":
        counters["ode.step_underflow"] += 1
    return traj


def _call_solve_ivp(fn, args, kwargs, counters):
    res = fn(*args, **kwargs)
    counters["ode.nfev"] += int(res.nfev)
    counters["ode.steps"] += len(res.t) - 1
    return res


def _call_dense(fn, args, kwargs, counters):
    counters["ode.dense_points"] += int(np.size(args[1] if len(args) > 1 else kwargs["t"]))
    return fn(*args, **kwargs)


def _call_shape(fn, args, kwargs, counters):
    shape = fn(*args, **kwargs)
    counters["surface.samples"] += int(np.size(shape.H))
    return shape


def _call_text(fn, args, kwargs, counters):
    text = fn(*args, **kwargs)
    counters["exports.bytes"] += len(text.encode("utf-8"))
    return text


_SPECIAL_CALLS = {
    "ode.integrate": _call_integrate,
    "surface.graph_shape": _call_shape,
    "surface.patch_shape": _call_shape,
}


def _special_call(name: str):
    if name in _SPECIAL_CALLS:
        return _SPECIAL_CALLS[name]
    if name.startswith("exports.") and name.endswith("_text"):
        return _call_text
    return None


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer in every namespace binding them."""
    package = importlib.import_module("nil3trans")
    modules = {layer: importlib.import_module(f"nil3trans.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrappers[obj] = tracer.wrap(obj, name, _special_call(name))
    for ns in (package, *modules.values()):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(ns, attr, wrappers[obj])

    ode = modules["ode"]
    ode.solve_ivp = tracer.wrap(ode.solve_ivp, "scipy.solve_ivp", _call_solve_ivp)
    ode.Trajectory.__call__ = tracer.wrap(ode.Trajectory.__call__,
                                          "ode.Trajectory.__call__", _call_dense)
