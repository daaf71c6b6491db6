"""Contrastive mutual-information lower-bound estimation.

A critic trained with the (K+1)-way contrastive loss over K negatives bounds
the mutual information between paired signals: MI >= ln(K+1) - loss. The
bound is checked against correlated Gaussians whose MI is known in closed
form; the critic's held-out loss, not its training loss, feeds the bound.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ContrastiveSection, MiSection
from .contrastive import fit_to_keys, info_nce
from .errors import InputError
from .models import init_encoder
from .seeding import derive_seed, rng_for


def gen_gaussian_pairs(dim: int, rho: float, count: int,
                       seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw (count, dim) arrays x, y of per-coordinate bivariate normal
    pairs: zero mean, unit variance, corr(x_ij, y_ij) = rho, independent
    across coordinates and samples."""
    rng = rng_for(seed, "gaussian-pairs")
    x = rng.standard_normal((count, dim))
    noise = rng.standard_normal((count, dim))
    y = rho * x + math.sqrt(1.0 - rho**2) * noise
    return x, y


def analytic_mi(rho: float, dim: int) -> float:
    """Exact MI in nats of the pair distribution: -(dim/2) ln(1 - rho^2)."""
    return -0.5 * dim * math.log1p(-rho * rho)


def mi_lower_bound(mean_loss: float, k: int) -> float:
    """ln(k + 1) - mean_loss in nats; k counts the negatives. May be negative;
    callers may clamp for reporting but the raw value is what the bound says."""
    return math.log(k + 1) - mean_loss


# Critics are affine maps over [v, v^2] features (no relu): the Gaussian
# log density ratio is a quadratic form, so the optimal critic lies inside
# this family exactly, while a purely bilinear critic caps well below the
# true MI at high correlation. Scores are raw dot products (TAU = 1, no
# normalization); a temperature would be absorbed into the weights anyway.
TAU = 1.0
HOLDOUT_FRACTION = 1.0 / 3.0  # of the pairs, held out to score the bound


def quadratic_features(v: np.ndarray) -> np.ndarray:
    """[v, v^2] per coordinate; spans the Gaussian optimal critic."""
    return np.concatenate([v, v * v], axis=1)


def estimate_mi_gaussian(critic: MiSection, rho: float,
                         seed: int) -> tuple[float, float, float]:
    """Train a contrastive critic on ``critic.pair_count`` Gaussian pairs of
    ``critic.dim`` coordinates at correlation ``rho``, against a queue of
    K = ``critic.queue_size`` negatives. Returns the held-out mean loss, the
    bound ln(K + 1) - that loss and the analytic MI of the pairs.

    The query encoder is trained; the key encoder stays at its random init
    because the contrastive loss detaches keys. For affine critics this does
    not shrink the reachable score family. Held-out pairs are scored against
    a queue of previously seen held-out keys, mirroring training conditions.
    """
    k = critic.queue_size
    x, y = gen_gaussian_pairs(critic.dim, rho, critic.pair_count, seed)
    x, y = quadratic_features(x), quadratic_features(y)
    n_hold = max(k + critic.batch_size, int(round(HOLDOUT_FRACTION * critic.pair_count)))
    if n_hold + k + critic.batch_size > critic.pair_count:
        raise InputError(
            f"count {critic.pair_count} too small for queue {k} plus holdout {n_hold}")
    x_train, y_train = x[:-n_hold], y[:-n_hold]
    x_hold, y_hold = x[-n_hold:], y[-n_hold:]

    q_enc = init_encoder([x.shape[1], critic.embed_dim], derive_seed(seed, "mi-query"))
    k_enc = init_encoder([y.shape[1], critic.embed_dim], derive_seed(seed, "mi-key"))
    k_enc.freeze()

    train = ContrastiveSection(tau=TAU, queue_size=k, batch_size=critic.batch_size,
                               epochs=critic.epochs, lr=critic.lr,
                               momentum=critic.momentum, weight_decay=0.0)
    _, warm = fit_to_keys(q_enc, x_train, k_enc.forward_numpy(y_train), train, seed,
                          "mi-order", normalize=False)

    # Held-out evaluation: the leading ``warm`` held-out pairs only fill the
    # queue; each later batch is scored against the k held-out keys before it.
    # The gradient closure is dropped at once: it would hold the scores to the next call.
    keys_hold = k_enc.forward_numpy(y_hold)
    q_hold = q_enc.forward_numpy(x_hold)
    total, count = 0.0, 0
    for start in range(warm, n_hold, critic.batch_size):
        sel = slice(start, min(start + critic.batch_size, n_hold))
        loss = info_nce(q_hold[sel], keys_hold[sel], keys_hold[start - k:start], TAU)[0]
        m = q_hold[sel].shape[0]
        total += loss * m
        count += m
    mean_loss = total / count
    return mean_loss, mi_lower_bound(mean_loss, k), analytic_mi(rho, critic.dim)
