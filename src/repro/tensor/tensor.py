"""The core autograd :class:`Tensor`.

Design follows the micrograd pattern: each op builds a closure that knows
how to push gradients to its inputs; ``backward()`` runs them in reverse
topological order.  Each op additionally

* charges simulated time to the tensor's device (roofline cost x the
  active framework profile), and
* registers the result's *logical* bytes in the device memory ledger
  (actual bytes x ``work_scale``), which is how simulated OOM happens.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AutogradError, PlacementError
from repro.tensor.context import charge, cost_only_active, placeholder

ArrayLike = Union[np.ndarray, float, int, Sequence]

_grad_enabled = True

FLOAT_DTYPE = np.float32


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference / updates)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _noop_backward(out: "Tensor") -> None:
    return None


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Returns ``grad`` itself when nothing was broadcast, so a caller can
    tell a pass-through (``result is grad``) from a freshly reduced buffer.
    """
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _matmul_shape(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    """The shape of ``np.matmul`` of operands shaped ``a`` and ``b``."""
    cols = b[-1:] if len(b) > 1 else ()
    return np.broadcast_shapes(a[:-2], b[:-2]) + a[-2:-1] + cols


def _reduced_shape(shape: Tuple[int, ...], axis: Optional[int],
                   keepdims: bool) -> Tuple[int, ...]:
    """The shape of reducing an array shaped ``shape`` over ``axis``."""
    if axis is None:
        return (1,) * len(shape) if keepdims else ()
    axis %= len(shape)
    return shape[:axis] + ((1,) if keepdims else ()) + shape[axis + 1:]


def _merge_placement(*tensors: "Tensor"):
    """Resolve (device, work_scale) for an op over ``tensors``.

    Tensors without a device (plain test math) are placement-agnostic.
    Mixing two *different* devices is the classic "expected all tensors on
    the same device" error both real frameworks raise.
    """
    device = None
    scale = 1.0
    for t in tensors:
        scale = max(scale, t.work_scale)
        if t.device is None:
            continue
        if device is None:
            device = t.device
        elif device is not t.device:
            raise PlacementError(
                f"tensors on different devices: {device.name} vs {t.device.name}"
            )
    return device, scale


class Tensor:
    """A numpy array with a device, logical work scale, and autograd."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "device",
        "work_scale",
        "_backward",
        "_prev",
        "_op",
        "_alloc",
        "__weakref__",
    )

    def __init__(
        self,
        data: ArrayLike,
        device=None,
        requires_grad: bool = False,
        work_scale: float = 1.0,
        _prev: Tuple["Tensor", ...] = (),
        _op: str = "",
        _owns_memory: bool = True,
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype.kind == "f":
            arr = arr.astype(FLOAT_DTYPE, copy=False)
        elif arr.dtype.kind in "iub":
            arr = arr.astype(np.int64, copy=False)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.device = device
        self.work_scale = float(work_scale)
        self._backward: Callable[["Tensor"], None] = _noop_backward
        self._prev: Tuple[Tensor, ...] = _prev if _grad_enabled else ()
        self._op = _op
        self._alloc = None
        if device is not None and _owns_memory and arr.nbytes > 0:
            logical = int(arr.nbytes * self.work_scale)
            self._alloc = device.memory.alloc(logical, label=_op or "tensor")
            weakref.finalize(self, device.memory.release, self._alloc)

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def logical_nbytes(self) -> int:
        return int(self.data.nbytes * self.work_scale)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dev = self.device.name if self.device is not None else "host"
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, device={dev})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _result(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        op: str,
        owns_memory: bool = True,
    ) -> "Tensor":
        device, scale = _merge_placement(*parents)
        out = Tensor(
            data,
            device=device,
            requires_grad=any(p.requires_grad for p in parents),
            work_scale=scale,
            _prev=tuple(p for p in parents if p.requires_grad),
            _op=op,
            _owns_memory=owns_memory,
        )
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into ``self.grad``, which this tensor owns.

        ``fresh=True`` is the caller's promise that it computed ``grad`` for
        this call and keeps no other reference to it or to a view of it: the
        first touch then adopts the buffer instead of copying it.  Anything
        that may alias another array (``out.grad`` itself, a reshape or
        slice of it) is copied, so no two tensors ever share a
        ``.grad`` buffer and later touches can add in place.
        """
        if self.grad is not None:
            np.add(self.grad, grad, out=self.grad)
        elif fresh:
            self.grad = np.asarray(grad, dtype=FLOAT_DTYPE)
        else:
            self.grad = np.array(grad, dtype=FLOAT_DTYPE)  # always a copy

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=FLOAT_DTYPE), device=None, _owns_memory=False)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = (placeholder(np.broadcast_shapes(self.shape, other.shape))
                    if cost_only_active() else self.data + other.data)
        out = Tensor._result(out_data, (self, other), "add")
        n = out.data.size
        charge(out.device, "add", "elementwise", flops=n, bytes_moved=12 * n, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                for parent in (self, other):
                    if parent.requires_grad:
                        grad = _unbroadcast(out.grad, parent.shape)
                        parent._accumulate(grad, fresh=grad is not out.grad)
                charge(out.device, "add.bwd", "elementwise", flops=n, bytes_moved=12 * n,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = (placeholder(np.broadcast_shapes(self.shape, other.shape))
                    if cost_only_active() else self.data * other.data)
        out = Tensor._result(out_data, (self, other), "mul")
        n = out.data.size
        charge(out.device, "mul", "elementwise", flops=n, bytes_moved=12 * n, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape), fresh=True)
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape), fresh=True)
                charge(out.device, "mul.bwd", "elementwise", flops=2 * n, bytes_moved=16 * n,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        out_data = (placeholder(np.broadcast_shapes(self.shape, other.shape))
                    if cost_only_active() else self.data / other.data)
        out = Tensor._result(out_data, (self, other), "div")
        n = out.data.size
        charge(out.device, "div", "elementwise", flops=n, bytes_moved=12 * n, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad / other.data, self.shape), fresh=True)
                if other.requires_grad:
                    grad_other = -out.grad * self.data / (other.data * other.data)
                    other._accumulate(_unbroadcast(grad_other, other.shape), fresh=True)
                charge(out.device, "div.bwd", "elementwise", flops=3 * n, bytes_moved=16 * n,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar powers are supported")
        out_data = placeholder(self.shape) if cost_only_active() else self.data ** exponent
        out = Tensor._result(out_data, (self,), "pow")
        n = out.data.size
        charge(out.device, "pow", "elementwise", flops=2 * n, bytes_moved=8 * n, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1), fresh=True)
                charge(out.device, "pow.bwd", "elementwise", flops=3 * n, bytes_moved=12 * n,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        out_data = (placeholder(_matmul_shape(self.shape, other.shape))
                    if cost_only_active() else self.data @ other.data)
        out = Tensor._result(out_data, (self, other), "matmul")
        m = int(np.prod(self.shape[:-1]))
        k = self.shape[-1]
        n = other.shape[-1] if other.ndim > 1 else 1
        flops = 2.0 * m * k * n
        moved = 4.0 * (m * k + k * n + m * n)
        charge(out.device, "matmul", "gemm", flops=flops, bytes_moved=moved, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                if self.requires_grad:
                    grad_self = out.grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(grad_self, self.shape), fresh=True)
                if other.requires_grad:
                    grad_other = np.swapaxes(self.data, -1, -2) @ out.grad
                    other._accumulate(_unbroadcast(grad_other, other.shape), fresh=True)
                charge(out.device, "matmul.bwd", "gemm", flops=2 * flops, bytes_moved=2 * moved,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor._result(self.data.reshape(shape), (self,), "reshape", owns_memory=False)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                self._accumulate(out.grad.reshape(self.shape))
            out._backward = _backward
        return out

    def index_select(self, index: np.ndarray) -> "Tensor":
        """Gather rows: ``out[i] = self[index[i]]`` (PyG-style gather)."""
        index = np.asarray(index)
        out_data = (placeholder(index.shape + self.shape[1:])
                    if cost_only_active() else self.data[index])
        out = Tensor._result(out_data, (self,), "index_select")
        moved = out.data.nbytes * 2
        charge(out.device, "index_select", "index", bytes_moved=moved, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                grad = np.zeros_like(self.data, dtype=FLOAT_DTYPE)
                # Arbitrary caller-supplied index: no sorted-segment
                # structure to reduceat over.
                np.add.at(grad, index, out.grad)
                self._accumulate(grad, fresh=True)
                charge(out.device, "index_select.bwd", "index", bytes_moved=2 * moved,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    def __getitem__(self, key) -> "Tensor":
        if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
            return self.index_select(key)
        out = Tensor._result(self.data[key], (self,), "slice", owns_memory=False)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                grad = np.zeros_like(self.data, dtype=FLOAT_DTYPE)
                grad[key] = out.grad
                self._accumulate(grad, fresh=True)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = (placeholder(_reduced_shape(self.shape, axis, keepdims))
                    if cost_only_active() else self.data.sum(axis=axis, keepdims=keepdims))
        out = Tensor._result(out_data, (self,), "sum")
        n = self.data.size
        charge(out.device, "sum", "reduce", flops=n, bytes_moved=4 * n, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                grad = out.grad
                if axis is not None and not keepdims:
                    grad = np.expand_dims(grad, axis)
                self._accumulate(np.broadcast_to(grad, self.shape))
                charge(out.device, "sum.bwd", "elementwise", bytes_moved=4 * n,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = (placeholder(_reduced_shape(self.shape, axis, keepdims))
                    if cost_only_active() else self.data.max(axis=axis, keepdims=keepdims))
        out = Tensor._result(out_data, (self,), "max")
        n = self.data.size
        charge(out.device, "max", "reduce", flops=n, bytes_moved=4 * n, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                expanded = out.data if keepdims or axis is None else np.expand_dims(out.data, axis)
                grad_out = out.grad if keepdims or axis is None else np.expand_dims(out.grad, axis)
                mask = (self.data == expanded).astype(FLOAT_DTYPE)
                mask /= np.maximum(mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum(), 1.0)
                self._accumulate(np.multiply(mask, grad_out, out=mask), fresh=True)
                charge(out.device, "max.bwd", "elementwise", flops=2 * n, bytes_moved=8 * n,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # pointwise nonlinearities used pervasively by GNN layers
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = placeholder(self.shape) if cost_only_active() else np.exp(self.data)
        out = Tensor._result(out_data, (self,), "exp")
        n = out.data.size
        charge(out.device, "exp", "elementwise", flops=4 * n, bytes_moved=8 * n, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                self._accumulate(out.grad * out.data, fresh=True)
                charge(out.device, "exp.bwd", "elementwise", flops=n, bytes_moved=8 * n,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out_data = placeholder(self.shape) if cost_only_active() else np.log(self.data)
        out = Tensor._result(out_data, (self,), "log")
        n = out.data.size
        charge(out.device, "log", "elementwise", flops=4 * n, bytes_moved=8 * n, scale=out.work_scale)

        if out.requires_grad:
            def _backward(out: "Tensor") -> None:
                self._accumulate(out.grad / self.data, fresh=True)
                charge(out.device, "log.bwd", "elementwise", flops=n, bytes_moved=8 * n,
                       scale=out.work_scale)
            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # autograd driver
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor."""
        if not self.requires_grad:
            raise AutogradError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise AutogradError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data, dtype=FLOAT_DTYPE)
        topo: List[Tensor] = []
        visited = set()
        # Iterative DFS to avoid recursion limits on deep graphs.
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.asarray(grad, dtype=FLOAT_DTYPE).reshape(self.shape).copy()
        for node in reversed(topo):
            if node.grad is not None:
                node._backward(node)
        # Free the graph (torch's retain_graph=False behaviour): the root
        # usually outlives this call, and through ``_prev`` and the
        # closures it would keep every intermediate's device memory
        # pinned.  The tape itself holds no reference cycle -- a closure
        # gets its output tensor as an argument instead of capturing it
        # -- so refcounting also frees a graph that never reaches
        # backward(), e.g. one abandoned by an out-of-memory error.
        for node in topo:
            node._backward = _noop_backward
            node._prev = ()

    def zero_grad(self) -> None:
        self.grad = None


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cat() of empty sequence")
    if cost_only_active():
        shape = list(tensors[0].shape)
        shape[axis] = sum(t.shape[axis] for t in tensors)
        data = placeholder(tuple(shape))
    else:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor._result(data, tuple(tensors), "cat")
    charge(out.device, "cat", "index", bytes_moved=2 * data.nbytes, scale=out.work_scale)

    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward(out: "Tensor") -> None:
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * data.ndim
                    idx[axis] = slice(lo, hi)
                    t._accumulate(out.grad[tuple(idx)])
        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    expanded = [t.reshape(*t.shape[:axis], 1, *t.shape[axis:]) for t in tensors]
    return cat(expanded, axis=axis)


def zeros(shape, device=None, requires_grad: bool = False, work_scale: float = 1.0) -> Tensor:
    return Tensor(np.zeros(shape, dtype=FLOAT_DTYPE), device=device,
                  requires_grad=requires_grad, work_scale=work_scale)


def ones(shape, device=None, requires_grad: bool = False, work_scale: float = 1.0) -> Tensor:
    return Tensor(np.ones(shape, dtype=FLOAT_DTYPE), device=device,
                  requires_grad=requires_grad, work_scale=work_scale)
