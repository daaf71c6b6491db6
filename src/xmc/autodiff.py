"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: each op returns a fresh :class:`Tensor`, built by
:func:`node`, that remembers its parents and a closure propagating the output
gradient to them. ``backward`` replays the recorded graph in reverse creation
order, which is a valid topological order because operands always exist
before their result.

Scope is deliberately small: 2-D matrices and vectors, matmul, a row-wise bias
add, relu and row normalization. Losses are single fused nodes with
closed-form backward passes (``models.cross_entropy``,
``contrastive.info_nce``), built on the numpy kernel :func:`logsumexp_row`.
Gradients accumulate into ``.grad`` buffers; callers zero them between steps.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

import numpy as np

from .errors import DegenerateInputError, DimensionError, UsageError

__all__ = ["Tensor", "backward", "zero_grads", "node", "matmul", "add_bias",
           "relu", "l2_normalize", "logsumexp_row"]

NORM_EPS = 1e-12

_node_ids = itertools.count()


class Tensor:
    """A float64 array, an optional gradient buffer, and graph bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_nid")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._nid = next(_node_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to ``.grad``. The first gradient is taken over, not
        copied, and later ones are added into it in place. So a backward
        closure passes either a fresh array or its own output gradient,
        which ``backward`` drops once the closure returns; none keeps ``g``."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def node(data: np.ndarray, parents: tuple[Tensor, ...],
         backward: Callable[[np.ndarray], None]) -> Tensor:
    """The result of an op: records ``parents`` and the ``backward`` closure,
    which receives the output gradient, iff some parent requires grad."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every tensor the scalar ``loss`` depends on.

    Repeated calls without zeroing accumulate gradients on leaf tensors.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    seen: set[int] = set()
    nodes: list[Tensor] = []
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)

    loss.grad = np.ones_like(loss.data)
    # Reverse creation order visits every node after all of its consumers.
    for t in sorted(nodes, key=lambda n: n._nid, reverse=True):
        if t._backward is None:
            continue
        if t.grad is not None:
            t._backward(t.grad)
            t.grad = None  # interior grads are consumed; leaves keep theirs


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (M, K) and a (K, N) tensor."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def back(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return node(a.data @ b.data, (a, b), back)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken to be 0."""
    mask = a.data > 0.0

    def back(g: np.ndarray) -> None:
        a._accumulate(g * mask)

    return node(np.where(mask, a.data, 0.0), (a,), back)


def add_bias(m: Tensor, b: Tensor) -> Tensor:
    """Add a length-N bias vector to every row of an (M, N) matrix."""
    if m.data.ndim != 2 or b.data.ndim != 1 or m.shape[1] != b.shape[0]:
        raise DimensionError(f"add_bias: matrix {m.shape} vs bias {b.shape}")

    def back(g: np.ndarray) -> None:
        if m.requires_grad:
            m._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return node(m.data + b.data[None, :], (m, b), back)


def logsumexp_row(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log(sum(exp(x))) of an (M, N) array, stabilized by subtracting
    the row max, and the row softmax, which is its gradient."""
    if x.ndim != 2:
        raise DimensionError(f"logsumexp_row: expected a matrix, got shape {x.shape}")
    mx = x.max(axis=1, keepdims=True)
    ex = np.exp(x - mx)
    sums = ex.sum(axis=1, keepdims=True)
    return (mx + np.log(sums)).reshape(-1), ex / sums


def l2_normalize(m: Tensor) -> Tensor:
    """Scale each row of an (M, N) matrix to unit Euclidean norm."""
    if m.data.ndim != 2:
        raise DimensionError(f"l2_normalize: expected a matrix, got shape {m.shape}")
    norms = np.sqrt((m.data * m.data).sum(axis=1))
    bad = np.nonzero(norms <= NORM_EPS)[0]
    if bad.size:
        raise DegenerateInputError(f"l2_normalize: row {bad[0]} has near-zero norm")
    out = m.data / norms[:, None]

    def back(g: np.ndarray) -> None:
        dots = (g * m.data).sum(axis=1)
        m._accumulate(g / norms[:, None] - m.data * (dots / norms**3)[:, None])

    return node(out, (m,), back)
