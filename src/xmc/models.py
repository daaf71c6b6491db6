"""Encoders, classifier heads, the SGD optimizer, and checkpoint IO.

Both branches are plain MLPs (affine layers with relu between, none after
the last), and a classifier head is a one-layer MLP. Every labelled chain,
the vision teacher's included, trains through ``train_classifier``; the
teacher is then frozen and only ever serves as a fixed key encoder.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import autodiff as ad
from .errors import InputError, NumericError, XmcError
from .seeding import rng_for

CHECKPOINT_MAGIC = b"XMCK"
CHECKPOINT_VERSION = 2
_CHECKPOINT_HEADER = struct.Struct("<4sHBH")  # magic, version, frozen, layer count
SGD_BLOCK = 1 << 15  # weight-gradient elements sgd_step forms per pass: the block stays in L2


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def _n_params(dims: list[int]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _views(dims: list[int], vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The per-layer weights and biases of an MLP as views into one flat
    vector, laid out as the checkpoint body: each layer's (fan_in, fan_out)
    weight, then its bias."""
    ws, bs, off = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        end = off + fan_in * fan_out
        ws.append(vec[off:end].reshape(fan_in, fan_out))
        bs.append(vec[end:end + fan_out])
        off = end + fan_out
    return ws, bs


@dataclass(eq=False)
class EncoderModel:
    """An MLP encoder: dims[0] -> ... -> dims[-1], relu between layers. Its
    parameters are one float64 vector ``data``, with ``weights`` and
    ``biases`` as views. ``grad`` is what ``autodiff.backward`` assigns and
    ``sgd_step`` uses once: per layer, the pair (layer input ``a``, loss
    gradient ``g`` at its output), whose weight gradient is ``a.T @ g``."""

    dims: list[int]
    data: np.ndarray
    frozen: bool = False
    grad: list | None = field(default=None, init=False, repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = _views(self.dims, self.data)

    @property
    def embed_dim(self) -> int:
        return self.dims[-1]

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Embed a (B, input_dim) batch. Also returns each layer's input,
        which ``autodiff.backward`` needs."""
        h, acts = x, []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            acts.append(h)
            h = h @ w
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h, acts

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        """The embedding alone, for feature extraction and metrics."""
        return self.forward(x)[0]

    def freeze(self) -> None:
        self.frozen = True
        self.grad = None

    def copy(self) -> "EncoderModel":
        """Independent, trainable deep copy."""
        return EncoderModel(list(self.dims), self.data.copy())


def init_encoder(dims: list[int], seed: int) -> EncoderModel:
    """Build an MLP with Xavier-uniform weights and zero biases."""
    rng = rng_for(seed, "encoder-init")
    model = EncoderModel(list(dims), np.zeros(_n_params(dims)))
    for w in model.weights:
        w[:] = xavier_uniform(rng, *w.shape)
    return model


def init_head(embed_dim: int, n_classes: int) -> EncoderModel:
    """A one-layer model from embeddings to class logits. Heads start at
    zero: at the small head learning rates the learned update direction, not
    a random init, must decide the argmax."""
    dims = [embed_dim, n_classes]
    return EncoderModel(dims, np.zeros(_n_params(dims)))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of (B, C) logits against integer labels,
    and its gradient (softmax - one-hot(labels)) / B."""
    rows = np.arange(len(labels))
    lse, sums = ad.logsumexp_row(d := logits.copy())  # the loss below reads the logits
    d /= sums
    c = 1.0 / len(rows)
    d *= c
    d[rows, labels] -= c
    return float(np.add.reduce(lse - logits[rows, labels]) / len(rows)), d


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """SGD with momentum and decoupled-from-nothing classic weight decay."""

    lr: float
    momentum: float
    weight_decay: float
    velocities: list[np.ndarray] = field(default_factory=list)


def make_optimizer(params: list[EncoderModel], lr: float, momentum: float,
                   weight_decay: float) -> OptimizerState:
    return OptimizerState(
        lr=lr, momentum=momentum, weight_decay=weight_decay,
        velocities=[np.zeros_like(p.data) for p in params])


def sgd_step(params: list[EncoderModel], state: OptimizerState,
             lr: float | None = None) -> None:
    """v <- momentum*v + (g + wd*p); p <- p - lr*v on each model's parameter
    vector. The gradient g is formed here, never whole: for each layer's
    ``(a, g)`` pair, one block of rows of ``a.T @ g`` at a time (about
    ``SGD_BLOCK`` elements, the last followed by the bias gradient
    ``g.sum(0)`` as in the flat layout) into one scratch per layer, each
    applied to its slice of p and v while it is in cache. No block is one
    row long: numpy would send it to gemv, which rounds differently from the
    gemm of the whole product. The pairs are then cleared."""
    if lr is not None:
        state.lr = float(lr)
    for p, v in zip(params, state.velocities):
        off = 0
        for (a, g), w in zip(p.grad, p.weights):
            fan_in, fan_out = w.shape
            rows = max(2, SGD_BLOCK // fan_out)
            buf = np.empty((min(rows, fan_in) + 2) * fan_out)  # + a merged row, the bias
            for r0 in range(0, max(fan_in - 1, 1), rows):
                r1 = r0 + rows if r0 + rows < fan_in - 1 else fan_in
                n = (r1 - r0) * fan_out
                gb = buf[:n + (fan_out if r1 == fan_in else 0)]
                np.matmul(a[:, r0:r1].T, g, out=gb[:n].reshape(r1 - r0, fan_out))
                if r1 == fan_in:
                    g.sum(axis=0, out=gb[n:])
                vb, pb = v[off:off + gb.size], p.data[off:off + gb.size]
                off += gb.size
                if state.weight_decay:
                    gb += state.weight_decay * pb
                vb *= state.momentum
                vb += gb
                np.multiply(vb, state.lr, out=gb)
                pb -= gb
        p.grad = None


def cosine_lr(t: int, total: int, base: float) -> float:
    """base * 0.5 * (1 + cos(pi * t / total)) for 0 <= t <= total."""
    return base * 0.5 * (1.0 + math.cos(math.pi * t / total))


# ---------------------------------------------------------------------------
# the training loop and its supervised use (every labelled chain)
# ---------------------------------------------------------------------------

def fit(chain: list[EncoderModel], inputs: np.ndarray,
        loss: Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]], *,
        epochs: int, batch_size: int, lr: float, momentum: float,
        weight_decay: float, order_rng: np.random.Generator, cosine: bool
        ) -> Iterator[tuple[int, float, float]]:
    """Minibatch SGD through a chain of models, the first fed ``inputs``;
    yields ``(epoch, lr, mean loss)`` after each epoch.

    ``loss(out, sel)`` gets the chain's output for the samples ``sel`` and
    returns the mean loss and its gradient with respect to ``out``. Each
    epoch visits the samples in a fresh ``order_rng`` permutation. The lr is
    constant, or follows :func:`cosine_lr` over the epochs when ``cosine``.
    A chain that holds a frozen model is refused before any step.
    """
    if any(model.frozen for model in chain):
        raise XmcError("cannot train a frozen model")
    opt = make_optimizer(chain, lr, momentum, weight_decay)
    n = len(inputs)
    for epoch in range(epochs):
        order = order_rng.permutation(n)
        epoch_lr = cosine_lr(epoch, epochs, lr) if cosine else lr
        total = 0.0
        for start in range(0, n, batch_size):
            sel = order[start:start + batch_size]
            h, acts = inputs[sel], []
            for model in chain:
                h, a = model.forward(h)
                acts.append(a)
            value, g = loss(h, sel)
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss at epoch {epoch}, sample {start}")
            for i in reversed(range(len(chain))):
                g = ad.backward(chain[i], acts[i], g, input_grad=i > 0)
            sgd_step(chain, opt, lr=epoch_lr)
            total += value * len(sel)
        yield epoch, epoch_lr, total / n


def train_classifier(chain: list[EncoderModel], inputs: np.ndarray, labels: np.ndarray, *,
                     epochs: int, lr: float, momentum: float, weight_decay: float,
                     batch_size: int, seed: int) -> list[tuple[int, float, float]]:
    """:func:`fit` of ``chain`` on softmax cross-entropy against ``labels`` in
    the seed's "classifier-order" stream; returns its (epoch, lr, loss) rows.
    With n training rows X and n < fan_in, fit trains u = q^T W1 on X q, q an
    orthonormal basis of their span, and then W1 <- a W1 + q (u - a u0); else
    the chain itself. SGD moves W1 by X_sel^T g, in that span, and outside it
    weight decay alone scales W1, by a: the same trajectory up to rounding."""
    first, n, trained = chain[0], len(inputs), chain
    if n < first.input_dim:
        q, w1 = np.linalg.qr(inputs.T)[0], first.weights[0]
        u0, inputs = q.T @ w1, inputs @ q
        trained = [EncoderModel([q.shape[1], *first.dims[1:]], np.concatenate(
            [u0.ravel(), first.data[w1.size:]]), frozen=first.frozen), *chain[1:]]
    history = list(fit(trained, inputs, lambda logits, sel: cross_entropy(logits, labels[sel]),
                       epochs=epochs, batch_size=batch_size, lr=lr, momentum=momentum,
                       weight_decay=weight_decay,
                       order_rng=rng_for(seed, "classifier-order"), cosine=False))
    if trained is not chain:
        a, b = 1.0, 0.0  # W1's scale outside the span, and its velocity's
        for _ in range(epochs * math.ceil(n / batch_size)):  # one per step, at a constant lr
            b = momentum * b + weight_decay * a
            a -= lr * b
        w1 *= a
        w1 += q @ (trained[0].weights[0] - a * u0)
        first.data[w1.size:] = trained[0].data[u0.size:]
    return history


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: EncoderModel) -> None:
    """Layout: magic, version u16, frozen u8, layer count u16, dims u32 each,
    then the parameter vector (per layer, weight then bias) as little-endian
    f64. Round-trips bit-exactly."""
    from .runio import atomic_write_bytes
    atomic_write_bytes(path, [
        _CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, int(model.frozen),
                                len(model.weights)),
        struct.pack(f"<{len(model.dims)}I", *model.dims),
        np.ascontiguousarray(model.data, "<f8")])


def load_checkpoint(path) -> EncoderModel:
    """The model in the checkpoint file at ``path``. The header and the dims
    are checked against the file's size before the body is read, straight
    into the parameter vector."""
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_CHECKPOINT_HEADER.size)
        if len(head) >= 4 and head[:4] != CHECKPOINT_MAGIC:
            raise InputError("not a checkpoint file (bad magic)")
        if len(head) < _CHECKPOINT_HEADER.size:
            raise InputError("checkpoint truncated")
        _, version, frozen, n_layers = _CHECKPOINT_HEADER.unpack(head)
        if version != CHECKPOINT_VERSION:
            raise InputError(f"unsupported checkpoint version {version}")
        if frozen > 1 or n_layers < 1:
            raise InputError(f"bad checkpoint header (frozen {frozen}, {n_layers} layers)")
        raw = f.read(4 * (n_layers + 1))
        if len(raw) < 4 * (n_layers + 1):
            raise InputError("checkpoint truncated")
        dims = list(struct.unpack(f"<{n_layers + 1}I", raw))
        if min(dims) < 1:
            raise InputError(f"checkpoint layer dims must be positive, got {dims}")
        body, count = size - f.tell(), _n_params(dims)
        if body != 8 * count:
            raise InputError("checkpoint truncated" if body < 8 * count
                             else "checkpoint has trailing bytes")
        data = np.empty(count, "<f8")
        if f.readinto(data) != body:
            raise InputError("checkpoint truncated")
    if not np.isfinite(data).all():
        raise InputError("checkpoint has a non-finite parameter")
    return EncoderModel(dims, data, frozen=bool(frozen))
