"""InfoNCE loss, the FIFO negative-key queue, the one InfoNCE trainer and
contrastive pre-training.

The trainable radar branch is pulled toward its paired image key and pushed
away from a queue of past image keys; the frozen vision branch provides the
keys and never receives gradients. The queue decouples the negative count K
from the batch size.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .config import ContrastiveSection
from .datagen import Dataset
from .errors import InputError, NumericError
from .models import EncoderModel, fit, init_encoder
from .seeding import derive_seed, rng_for


class NegativeQueue:
    """FIFO window over the rows of a fixed key table: the indices of the
    newest ``capacity`` rows enqueued."""

    def __init__(self, keys: np.ndarray, capacity: int):
        self.keys = keys
        self.capacity = int(capacity)
        self._rows = np.zeros(0, dtype=np.int64)

    def enqueue(self, rows: np.ndarray) -> None:
        """Append key-table rows, evicting the oldest beyond ``capacity``. A
        block larger than the queue leaves only its newest ``capacity`` rows."""
        self._rows = np.concatenate([self._rows, rows])[-self.capacity:]

    def snapshot(self) -> np.ndarray:
        """The keys of the current entries, oldest first."""
        return np.take(self.keys, self._rows, axis=0)


def info_nce(q: np.ndarray, k_plus: np.ndarray, negatives: np.ndarray,
             tau: float) -> tuple[float, Callable[[], np.ndarray]]:
    """Mean contrastive loss over the batch, and a closure that forms its gradient dq.

    Per row: -log( exp(q.k+/tau) / (exp(q.k+/tau) + sum_i exp(q.ki-/tau)) ),
    a stabilized logsumexp over the (K+1)-way scores against the (K, D)
    ``negatives``. Only q gets a gradient. The kernel leaves the exponentials
    e and returns the row sums, which divide the (B, D) GEMM result, not the
    (B, K+1) softmax: dq = (e[:, 1:] @ N / sums + (e[:, :1] / sums - 1) k+) / (tau B).
    At tau = 1 (the MI critic's) 1/tau scales nothing.
    """
    inv_tau = 1.0 / tau
    pos = (q * k_plus).sum(axis=1)
    # one (B, K+1) buffer holds the scores, then logsumexp_row's exponentials
    e = np.empty((len(pos), len(negatives) + 1))
    e[:, 0] = pos
    np.matmul(q, negatives.T, out=e[:, 1:])
    if tau != 1.0:
        e *= inv_tau
        pos *= inv_tau
    lse, sums = ad.logsumexp_row(e)
    def grad() -> np.ndarray:
        dq = e[:, 1:] @ negatives
        dq /= sums
        dq += (e[:, :1] / sums - 1.0) * k_plus
        dq *= inv_tau / len(pos)
        return dq
    return float(np.add.reduce(lse - pos) / len(pos)), grad


def encode_keys(vision: EncoderModel, images_flat: np.ndarray,
                batch: int = 256) -> np.ndarray:
    """Unit-norm vision-branch keys for a stack of flattened images. The
    vision branch is frozen, so keys are computed once; an image it embeds
    to a zero or non-finite vector is a NumericError."""
    out = np.empty((len(images_flat), vision.embed_dim))
    for start in range(0, len(images_flat), batch):
        block = vision.forward_numpy(images_flat[start:start + batch])
        norms = np.sqrt((block * block).sum(axis=1, keepdims=True))
        bad = np.nonzero(~((norms > ad.NORM_EPS) & (norms < np.inf)))[0]
        if bad.size:
            raise NumericError(f"the vision encoder embeds image {start + bad[0]} "
                               f"to a vector of norm {norms[bad[0], 0]}")
        out[start:start + batch] = block / norms
    return out


def fit_to_keys(model: EncoderModel, inputs: np.ndarray, keys: np.ndarray,
                cfg: ContrastiveSection, seed: int, tag: str, normalize: bool
                ) -> tuple[list[tuple[int, float, float]], int]:
    """The one InfoNCE trainer: :func:`fit` of ``model`` with each row of
    ``inputs`` scored against its row of ``keys`` and a FIFO queue of
    ``cfg.queue_size`` earlier keys, under a cosine lr, in the ``(seed, tag)``
    order stream. Queries are l2-normalized iff ``normalize``. The queue is
    warm-started from the leading ceil(K/B) batches of epoch 0. Returns fit's
    ``(epoch, lr, mean loss)`` per epoch and the rows the warm start used."""
    queue = NegativeQueue(keys, cfg.queue_size)
    warm = math.ceil(cfg.queue_size / cfg.batch_size) * cfg.batch_size
    queue.enqueue(rng_for(seed, tag).permutation(len(keys))[:warm])

    def loss(out: np.ndarray, sel: np.ndarray) -> tuple[float, np.ndarray]:
        q, back = ad.l2_normalize(out) if normalize else (out, lambda dq: dq)
        # scored before it is enqueued, yet a row can meet its own key among the negatives:
        # in epoch 0's warm-start batches, and just after each epoch boundary
        value, grad = info_nce(q, keys[sel], queue.snapshot(), cfg.tau)
        queue.enqueue(sel)
        return value, back(grad())

    # a fresh stream: its epoch-0 permutation is the one the queue was warmed from
    return list(fit([model], inputs, loss, epochs=cfg.epochs, batch_size=cfg.batch_size,
                    lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay,
                    order_rng=rng_for(seed, tag), cosine=True)), warm


def pretrain(dataset: Dataset, vision: EncoderModel, cfg: ContrastiveSection,
             seed: int, hidden: Sequence[int]
             ) -> tuple[EncoderModel, list[tuple[int, float, float]]]:
    """Label-free contrastive pre-training, seeded by ``seed``, of a radar
    encoder with ``hidden`` layers that embeds to the teacher's width: its
    normalized queries against the frozen ``vision`` keys, by :func:`fit_to_keys`.
    Returns the encoder and the trainer's per-epoch history."""
    idx = dataset.contrastive_idx
    if len(idx) < cfg.queue_size:
        raise InputError(
            f"contrastive split ({len(idx)}) smaller than the queue ({cfg.queue_size})")

    # the keys first: the images and the teacher's activations are freed before the heatmaps
    keys = encode_keys(vision, dataset.image_inputs(idx))
    heat = dataset.heatmap_inputs(idx)
    radio = init_encoder([heat.shape[1], *hidden, vision.embed_dim], derive_seed(seed, "radio"))
    return radio, fit_to_keys(radio, heat, keys, cfg, seed, "batch-order", normalize=True)[0]
