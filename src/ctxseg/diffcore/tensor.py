"""Dense differentiable arrays with reverse-mode gradient propagation.

A DiffTensor wraps a numpy array. An operation in `ctxseg.diffcore.ops` hands
its output's gradient closure to `DiffTensor._node`, which keeps the closure
and the parent links only when some parent requires a gradient, so a forward
pass over tensors that need none records no graph. `backward()` runs the
closures once each in reverse topological order. Arithmetic is float32 by
default; `set_verify(True)` switches new tensors to float64 for gradient
verification.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError, ShapeError

_DTYPE = np.float32


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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"DiffTensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def backward(loss: DiffTensor) -> None:
    """Accumulate d(loss)/d(t) into `t.grad` for every requires_grad ancestor.

    Each interior node is visited exactly once; running backward a second time
    through the same graph raises GraphError. A node drops its closure and its
    parent links once its closure has run: the closure refers back to the
    node, and breaking that cycle lets reference counting free the graph
    instead of the cyclic collector, which runs too rarely to bound memory.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        # Constant loss: gradients of a constant are zero everywhere; nothing to do.
        return

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

    if any(t._spent for t in topo):
        raise GraphError("backward was already run through this graph")

    loss.accum_grad(np.ones_like(loss.data))
    for t in reversed(topo):
        if t._backward is not None:
            t._backward()
            t._spent = True
            t._backward = None
            t._parents = ()
