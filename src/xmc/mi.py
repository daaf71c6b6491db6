"""Contrastive mutual-information lower-bound estimation.

A critic trained with the (K+1)-way contrastive loss bounds the mutual
information between paired signals: MI >= ln(K) - loss. The bound is checked
against correlated Gaussians whose MI is known in closed form; the critic's
held-out loss, not its training loss, feeds the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contrastive import NegativeQueue, info_nce, warm_start
from .datagen import GaussianPairConfig, analytic_mi, gen_gaussian_pairs
from .errors import DomainError
from .models import fit, init_encoder
from .seeding import derive_seed, rng_for


def mi_lower_bound(mean_loss: float, k: int) -> float:
    """ln(k) - mean_loss, in nats. May be negative; callers may clamp for
    reporting but the raw value is what the bound says."""
    if k < 1:
        raise DomainError(f"negative count k must be >= 1, got {k}")
    if mean_loss < 0.0:
        raise DomainError(f"mean loss must be >= 0, got {mean_loss}")
    return math.log(k) - mean_loss


@dataclass(frozen=True)
class MiCriticConfig:
    """Critic and training settings for the Gaussian-pair estimator.

    Critics are affine maps over [v, v^2] features (no relu): the Gaussian
    log density ratio is a quadratic form, so the optimal critic lies inside
    this family exactly, while a purely bilinear critic caps well below the
    true MI at high correlation. Scores are raw dot products (tau = 1, no
    normalization); a temperature would be absorbed into the weights anyway.
    """

    embed_dim: int = 8
    batch_size: int = 128
    epochs: int = 40
    lr: float = 0.05
    momentum: float = 0.9
    holdout_fraction: float = 1.0 / 3.0
    tau: float = 1.0


@dataclass(frozen=True)
class MiEstimate:
    """One estimator run: bound = ln(K) - held-out mean loss."""

    k_negatives: int
    mean_loss: float
    mi_lower_bound: float
    true_mi: float | None = None

    def __post_init__(self):
        expected = mi_lower_bound(self.mean_loss, self.k_negatives)
        if abs(self.mi_lower_bound - expected) > 1e-12:
            raise DomainError("mi_lower_bound must equal ln(k) - mean_loss")


def quadratic_features(v: np.ndarray) -> np.ndarray:
    """[v, v^2] per coordinate; spans the Gaussian optimal critic."""
    return np.concatenate([v, v * v], axis=1)


def estimate_mi_gaussian(pair_cfg: GaussianPairConfig, critic: MiCriticConfig,
                         k: int, epochs: int | None = None) -> MiEstimate:
    """Train a contrastive critic on Gaussian pairs and return the bound.

    The query encoder is trained; the key encoder stays at its random init
    because the contrastive loss detaches keys. For affine critics this does
    not shrink the reachable score family. Held-out pairs are scored against
    a queue of previously seen held-out keys, mirroring training conditions.
    A batch larger than the queue enqueues only its newest ``k`` keys, the
    ones FIFO eviction would keep.
    """
    if k < 1:
        raise DomainError(f"negative count k must be >= 1, got {k}")
    n_epochs = critic.epochs if epochs is None else int(epochs)
    x, y = gen_gaussian_pairs(pair_cfg)
    x, y = quadratic_features(x), quadratic_features(y)
    n_hold = max(k + critic.batch_size, int(round(critic.holdout_fraction * pair_cfg.count)))
    if n_hold + k + critic.batch_size > pair_cfg.count:
        raise DomainError(
            f"count {pair_cfg.count} too small for queue {k} plus holdout {n_hold}")
    x_train, y_train = x[:-n_hold], y[:-n_hold]
    x_hold, y_hold = x[-n_hold:], y[-n_hold:]

    q_enc = init_encoder([x.shape[1], critic.embed_dim],
                         derive_seed(pair_cfg.seed, "mi-query"))
    k_enc = init_encoder([y.shape[1], critic.embed_dim],
                         derive_seed(pair_cfg.seed, "mi-key"), trainable=False)

    keys_train = k_enc.forward_numpy(y_train)
    queue = NegativeQueue(k, unit_check=False)
    order_rng = rng_for(pair_cfg.seed, "mi-order")
    first_order = order_rng.permutation(len(x_train))
    warm_start(queue, keys_train[first_order], critic.batch_size)

    def critic_loss(q: np.ndarray, sel: np.ndarray) -> tuple[float, np.ndarray]:
        value, dq = info_nce(q, keys_train[sel], queue, critic.tau)
        queue.enqueue(keys_train[sel][-k:])
        return value, dq

    for _ in fit([q_enc], x_train, critic_loss, epochs=n_epochs, batch_size=critic.batch_size,
                 lr=critic.lr, momentum=critic.momentum, weight_decay=0.0,
                 order_rng=order_rng, cosine=True, first_order=first_order):
        pass

    # Held-out evaluation: warm a fresh queue from leading held-out batches,
    # then score the remainder, enqueueing each batch after it is scored.
    keys_hold = k_enc.forward_numpy(y_hold)
    q_hold = q_enc.forward_numpy(x_hold)
    eval_queue = NegativeQueue(k, unit_check=False)
    warm = warm_start(eval_queue, keys_hold, critic.batch_size)

    total, count = 0.0, 0
    for start in range(warm, n_hold, critic.batch_size):
        sel = slice(start, min(start + critic.batch_size, n_hold))
        loss, _ = info_nce(q_hold[sel], keys_hold[sel], eval_queue, critic.tau)
        m = q_hold[sel].shape[0]
        total += loss * m
        count += m
        eval_queue.enqueue(keys_hold[sel][-k:])
    mean_loss = total / count
    return MiEstimate(
        k_negatives=k,
        mean_loss=mean_loss,
        mi_lower_bound=mi_lower_bound(mean_loss, k),
        true_mi=analytic_mi(pair_cfg.rho, pair_cfg.dim),
    )
