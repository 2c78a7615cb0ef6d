"""Dense differentiable arrays with reverse-mode gradient propagation.

A DiffTensor wraps a numpy array. An operation in `ctxseg.diffcore.ops` hands
its output's gradient closure to `DiffTensor._node`, which keeps the closure
and the parent links only when some parent requires a gradient, so a forward
pass over tensors that need none records no graph. `backward()` runs the
closures once each in reverse topological order and consumes the graph as it
goes: an interior node that the caller does not hold is freed, with its data,
gradient and closure, as soon as its own closure has run. A node the caller
holds keeps its `.data` and `.grad`. A parameter's `.grad` adds up over
`backward` calls until `adamw_step` applies it and releases it. Arithmetic
is float32 by default; `set_verify(True)` switches new tensors to float64
for gradient verification.

Importing this module on glibc fixes two malloc thresholds (see
`_keep_freed_heap`), so a process that imports ctxseg keeps up to 64 MiB of
freed heap resident after its peak.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from ..errors import GraphError, ShapeError

_DTYPE = np.float32

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed activation memory in the glibc heap instead of returning
    it to the OS, so the next train step or `evaluate` call reuses it.

    With glibc's default, dynamic thresholds, every call faults its buffers
    in again. Measured after two warm-up calls on the default model: a
    batch-4 `full` train step took 770–2180 minor page faults, ≈2500 once
    `backward` freed each node as it passed it (which made the step slower
    than keeping the graph whole), and a 16-image `evaluate` took ≈4600.
    With these two thresholds fixed, the median of each is 0. Every array up
    to 32 MiB (glibc's 64-bit maximum; a default step's largest is 2 MiB)
    comes from the heap, and up to 64 MiB of free heap top stays mapped.
    `M_TOP_PAD` alone left 0 or ≈4700 faults per step, depending on how the
    process had allocated before. Off glibc this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()


def set_verify(enabled: bool) -> None:
    """Switch the arithmetic dtype for tensors created from here on."""
    global _DTYPE
    _DTYPE = np.float64 if enabled else np.float32


class DiffTensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_spent")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_DTYPE)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None
        self._spent = False

    @classmethod
    def _node(cls, data, parents, backward) -> "DiffTensor":
        # Internal fast path for op outputs: data is already in the active
        # dtype, so skip the cast. The one place that decides whether a node
        # records: with no parent requiring a gradient, the closure (which
        # refers back to the node) is dropped, so reference counting frees
        # the node once nothing else holds it.
        t = cls.__new__(cls)
        t.data = data
        t.grad = None
        t.requires_grad = any(p.requires_grad for p in parents)
        t._parents = tuple(parents) if t.requires_grad else ()
        t._backward = backward if t.requires_grad else None
        t._spent = False
        return t

    def accum_grad(self, g) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # a copy of the first gradient, never a view of the caller's array
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def __repr__(self):
        return f"DiffTensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def backward(loss: DiffTensor) -> None:
    """Accumulate d(loss)/d(t) into `t.grad` for every requires_grad ancestor.

    Backward consumes the graph. Each interior node is visited exactly once
    and, once its closure has run, drops its closure and parent links (the
    closure refers back to the node; breaking that cycle lets reference
    counting free the graph instead of the cyclic collector, which runs too
    rarely to bound memory). The topological list lets go of each node as its
    closure runs, so a node that the caller does not hold is freed, with its
    `.data` and `.grad`, before the next closure runs: the graph shrinks as
    backward proceeds instead of staying whole until it returns. A node the
    caller holds (the loss, a model's logits) keeps its `.data` and `.grad`.
    A leaf's `.grad` stays, adding to any gradient already there, until
    `adamw_step` applies and releases it. A loss that needs no gradient
    changes nothing. Running backward a second time through the same graph
    raises GraphError.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo = _topological(loss)
    if any(t._spent for t in topo):
        raise GraphError("backward was already run through this graph")

    loss.accum_grad(np.ones_like(loss.data))
    while topo:
        t = topo.pop()
        if t._backward is not None:
            t._backward()
            t._spent = True
            t._backward = None
            t._parents = ()


def _topological(loss: DiffTensor) -> list:
    """The requires_grad ancestors of `loss`, each after all of its parents.
    A function of its own, so that no loop variable outlives the walk and
    holds an interior node through backward."""
    topo: list[DiffTensor] = []
    visited: set[int] = set()
    stack: list[tuple[DiffTensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return topo
