"""Spans around ctxseg's public functions, installed from outside the package.

Nothing here edits ctxseg: every hook replaces a module attribute with a
wrapper and `Patches.restore` puts the original back. Python resolves a
module-level name at call time, so a wrapper set on the module a caller reads
the name from (``ctxseg.diffcore`` for ``dc.conv2d``, ``ctxseg.train`` for the
names train.py imported) sees every call.
"""

from __future__ import annotations

import gc
import inspect
import time
from collections import Counter

clock = time.perf_counter

# Spans whose nested diffcore op calls are counted (graph nodes per call).
OP_COUNTING_SCOPES = ("model.forward", "model.cross_attention")


class Patches:
    """Module attributes replaced for the life of a `with` block."""

    def __init__(self):
        self._saved = []

    def set(self, module, name, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def restore(self) -> None:
        # Last in, first out, so an attribute wrapped twice ends at its original.
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer:
    """Nested spans, aggregated by name as each one closes.

    A span covers the wrapped call only. Its self time is its duration minus
    the full time of its child spans, wrapper bookkeeping included, so self
    times never count the tracer. The bookkeeping itself lies in no span.
    Inside `scope` (the train step), self times are also kept per span name
    and the bookkeeping is summed as `scope_uncovered_s`, so that the scope's
    duration can be checked against their total.
    """

    def __init__(self, scope: str = "train.step"):
        self.scope = scope
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()          # free-form counters: FLOPs, bytes, ...
        self.open = Counter()            # name -> spans of that name now open
        self.scope_self_s = Counter()    # name -> self seconds inside scope
        self.scope_uncovered_s = 0.0
        self._stack = []                 # [name, t_enter, t0, child_s]

    def enter(self, name: str) -> None:
        t_enter = clock()
        self.open[name] += 1
        frame = [name, t_enter, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = clock()

    def exit(self) -> None:
        t1 = clock()
        name, t_enter, t0, child_s = self._stack.pop()
        self.open[name] -= 1
        dur = t1 - t0
        own = dur - child_s
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += own
        in_scope = self.open[self.scope] > 0
        if in_scope or name == self.scope:
            self.scope_self_s[name] += own
        t_exit = clock()
        if in_scope:
            self.scope_uncovered_s += (t0 - t_enter) + (t_exit - t1)
        if self._stack:
            self._stack[-1][3] += t_exit - t_enter

    def abandon_open_spans(self) -> None:
        """Drop spans left open by an exception that unwound past them."""
        for name, *_ in self._stack:
            self.open[name] -= 1
        self._stack.clear()

    def call(self, name: str, fn, args, kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()


def wrap(tracer: Tracer, name: str, fn):
    """`fn` timed as span `name`."""
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapper


def _timed_backward(tracer: Tracer, name: str, closure):
    def backward_closure():
        tracer.call(name, closure, (), {})
    backward_closure.traced = True
    return backward_closure


def wrap_op(tracer: Tracer, op_name: str, fn, difftensor_cls, on_call=None):
    """Diffcore op `fn` timed as ``diffcore.<op>.fwd``; the backward closure
    on the node it returns is timed as ``diffcore.<op>.bwd``.

    An op built from other ops (mean_all) returns a node whose closure the
    inner op already wrapped; that closure stays with the inner op.
    """
    fwd_name = f"diffcore.{op_name}.fwd"
    bwd_name = f"diffcore.{op_name}.bwd"

    def wrapper(*args, **kwargs):
        for scope in OP_COUNTING_SCOPES:
            if tracer.open[scope]:
                tracer.counts[scope + ".ops"] += 1
        if on_call is not None:
            on_call(tracer, args, kwargs)
        out = tracer.call(fwd_name, fn, args, kwargs)
        if isinstance(out, difftensor_cls):
            closure = out._backward
            if closure is not None and not getattr(closure, "traced", False):
                out._backward = _timed_backward(tracer, bwd_name, closure)
        return out
    return wrapper


def public_functions(module) -> list:
    """Names of the functions `module` defines itself, without a leading _."""
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__ == module.__name__
                  and not name.startswith("_"))


def conv2d_shape_counts(tracer: Tracer, args, kwargs) -> None:
    """FLOPs and column-matrix bytes of one conv2d forward, from its shapes."""
    x, weight = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    n, cin, h, w = x.data.shape
    cout, _, k, _ = weight.data.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    rows, depth = n * oh * ow, cin * k * k
    tracer.counts["diffcore.conv2d.flops"] += 2 * rows * depth * cout
    tracer.counts["diffcore.conv2d.cols_bytes"] += rows * depth * x.data.itemsize


class GcWatch:
    """Collector pauses and objects collected, from `gc.callbacks`.

    Only observes: the thresholds and the collection schedule stay as the
    program left them.
    """

    def __init__(self):
        self.pause_s = 0.0
        self.collected = 0
        self._t0 = None

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = clock()
        elif self._t0 is not None:
            self.pause_s += clock() - self._t0
            self.collected += info.get("collected", 0)
            self._t0 = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False


def layer_shares(tracer: Tracer) -> dict:
    """Share of the scope's time held by each layer (the first dotted part of
    a span name) as self time, and by no span ("unattributed")."""
    total = tracer.total_s[tracer.scope]
    if not total:
        return {}
    shares = Counter()
    for name, seconds in tracer.scope_self_s.items():
        shares[name.split(".", 1)[0]] += seconds / total
    shares["unattributed"] = tracer.scope_uncovered_s / total
    return dict(sorted(shares.items()))
