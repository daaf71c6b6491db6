"""InfoNCE loss, the FIFO negative-key queue, and contrastive pre-training.

The trainable radar branch is pulled toward its paired image key and pushed
away from a queue of past image keys; the frozen vision branch provides the
keys and never receives gradients. The queue decouples the negative count K
from the batch size.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import autodiff as ad
from .config import ContrastiveSection
from .datagen import Dataset, heatmap_inputs, image_inputs
from .errors import InputError, XmcError
from .models import EncoderModel, fit, init_encoder
from .seeding import derive_seed, rng_for

UNIT_NORM_TOL = 1e-6


class NegativeQueue:
    """Fixed-capacity FIFO ring of key vectors.

    With ``unit_check`` (the default) every inserted key must be unit-norm;
    the raw-score mutual-information critic runs with the check disabled.
    """

    def __init__(self, capacity: int, unit_check: bool = True):
        if capacity < 1:
            raise InputError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.unit_check = unit_check
        self._buf: np.ndarray | None = None
        self._count = 0

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def enqueue(self, keys: np.ndarray) -> None:
        """Insert a (B, D) block of keys, evicting the B oldest when full. A
        block larger than the queue leaves only its newest ``capacity`` keys."""
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 2:
            raise XmcError(f"enqueue expects a (B, D) block, got shape {keys.shape}")
        keys = keys[-self.capacity:]
        if self.unit_check:
            norms = np.sqrt((keys * keys).sum(axis=1))
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise XmcError("queue keys must be unit-norm")
        if self._buf is None:
            self._buf = np.zeros((self.capacity, keys.shape[1]))
        elif self._buf.shape[1] != keys.shape[1]:
            raise XmcError(
                f"key dim {keys.shape[1]} does not match queue dim {self._buf.shape[1]}")
        start, n = self._count % self.capacity, len(keys)
        head = min(n, self.capacity - start)  # rows that fit before the wrap
        self._buf[start:start + head] = keys[:head]
        self._buf[:n - head] = keys[head:]
        self._count += n

    def snapshot(self) -> np.ndarray:
        """Current entries, oldest first."""
        if self._buf is None:
            return np.zeros((0, 0))
        if self._count <= self.capacity:
            return self._buf[:self._count].copy()
        p = self._count % self.capacity
        return np.vstack([self._buf[p:], self._buf[:p]])


def info_nce(q: np.ndarray, k_plus: np.ndarray, queue: NegativeQueue,
             tau: float) -> tuple[float, np.ndarray]:
    """Mean contrastive loss over the batch, and its gradient dq.

    Per row: -log( exp(q.k+/tau) / (exp(q.k+/tau) + sum_i exp(q.ki-/tau)) ),
    evaluated as a stabilized logsumexp over the (K+1)-way scores. Gradients
    reach q only; the positive keys and the queue are constants. With
    P = softmax - one-hot(0) over the scores, dq = P @ [k+, N] / (B tau).
    Rows must be unit-norm iff the queue checks its keys for unit norm.
    """
    if tau <= 0.0:
        raise InputError(f"temperature must be > 0, got {tau}")
    if len(queue) == 0:
        raise XmcError("info_nce needs a non-empty negative queue")
    if q.ndim != 2 or k_plus.shape != q.shape:
        raise XmcError(f"q {q.shape} and k_plus {k_plus.shape} must be equal (B, D) shapes")
    negatives = queue.snapshot()
    if negatives.shape[1] != q.shape[1]:
        raise XmcError(
            f"queue dim {negatives.shape[1]} does not match embedding dim {q.shape[1]}")
    if queue.unit_check:  # enqueue has checked the queued keys
        for name, block in (("q", q), ("k_plus", k_plus)):
            norms = np.sqrt((block * block).sum(axis=1))
            if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
                raise XmcError(f"info_nce: {name} rows are not unit-norm")

    inv_tau = 1.0 / tau
    pos = (q * k_plus).sum(axis=1)
    # one (B, K+1) buffer holds the scores, then logsumexp_row's softmax
    scores = np.empty((len(pos), len(negatives) + 1))
    scores[:, 0] = pos
    np.matmul(q, negatives.T, out=scores[:, 1:])
    scores *= inv_tau
    lse, d = ad.logsumexp_row(scores)
    c = 1.0 / len(pos)
    d *= c
    d *= inv_tau
    d[:, 0] -= c * inv_tau
    return (float((lse - pos * inv_tau).mean()),
            d[:, 1:] @ negatives + d[:, :1] * k_plus)


def encode_keys(vision: EncoderModel, images_flat: np.ndarray,
                batch: int = 256) -> np.ndarray:
    """Unit-norm vision-branch keys for a stack of flattened images. The
    vision branch is frozen, so keys are computed once."""
    out = np.empty((len(images_flat), vision.embed_dim))
    for start in range(0, len(images_flat), batch):
        block = vision.forward_numpy(images_flat[start:start + batch])
        norms = np.sqrt((block * block).sum(axis=1, keepdims=True))
        out[start:start + batch] = block / np.maximum(norms, ad.NORM_EPS)
    return out


def warm_start(queue: NegativeQueue, keys: np.ndarray, batch: int) -> int:
    """Fill the queue from the leading ceil(capacity / batch) batches of
    ``keys``, so the first losses are measured against a full complement of
    negatives. Returns the number of leading keys used."""
    used = math.ceil(queue.capacity / batch) * batch
    queue.enqueue(keys[:used])
    return used


def pretrain(dataset: Dataset, vision: EncoderModel, cfg: ContrastiveSection,
             seed: int, hidden: Sequence[int], embed_dim: int
             ) -> tuple[EncoderModel, list[tuple[int, float, float]]]:
    """Label-free contrastive pre-training of a radar encoder with ``hidden``
    layers and ``embed_dim`` outputs, seeded by ``seed``.

    Per epoch: shuffle the contrastive split; per batch: encode and
    normalize queries, compute InfoNCE against the paired keys and the
    queue, enqueue the batch keys, then step SGD under a cosine schedule.
    The queue is warm-started from the first batches of epoch 0. Returns the
    encoder and :func:`fit`'s ``(epoch, lr, mean loss)`` per epoch.
    """
    if not vision.frozen:
        raise XmcError("the vision encoder must be frozen before pre-training")
    idx = dataset.contrastive_idx
    if len(idx) < cfg.queue_size:
        raise InputError(
            f"contrastive split ({len(idx)}) smaller than the queue ({cfg.queue_size})")
    pixels = math.prod(dataset.images.shape[1:])
    if vision.input_dim != pixels:
        raise InputError(f"vision checkpoint takes {vision.input_dim} inputs, but the "
                         f"images have {pixels} pixels")
    if vision.embed_dim != embed_dim:
        raise InputError(f"vision embed dim {vision.embed_dim} != configured {embed_dim}")

    heat = heatmap_inputs(dataset.heatmaps[idx])
    keys = encode_keys(vision, image_inputs(dataset.images[idx]))
    radio = init_encoder([heat.shape[1], *hidden, embed_dim], derive_seed(seed, "radio"))
    queue = NegativeQueue(cfg.queue_size)
    order_rng = rng_for(seed, "batch-order")
    first_order = order_rng.permutation(len(idx))
    warm_start(queue, keys[first_order], cfg.batch_size)

    def loss(raw: np.ndarray, sel: np.ndarray) -> tuple[float, np.ndarray]:
        q, normalize_back = ad.l2_normalize(raw)
        # enqueue only after scoring: a batch is never its own negatives
        value, dq = info_nce(q, keys[sel], queue, cfg.tau)
        queue.enqueue(keys[sel])
        return value, normalize_back(dq)

    return radio, list(fit(
        [radio], heat, loss, epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
        momentum=cfg.momentum, weight_decay=cfg.weight_decay, order_rng=order_rng,
        cosine=True, first_order=first_order))
