"""Labelled chains (vision teacher, probe, fine-tune, baseline), sweeps, projection.

The protocol mirrors common practice: freeze the pre-trained features and
train a linear softmax classifier; or fine-tune encoder and head together;
or train everything from scratch as the supervised reference; the teacher
trains on its own split. Each trains through ``models.train_classifier``:
with fewer labelled rows than inputs, the first layer trains in the rows'
span, where all its gradient lies, equal to full-width SGD up to rounding;
else the chain trains as it is. Label-fraction and queue-size sweeps
aggregate means and standard deviations over seeds.

Test-split hygiene: training code receives a :class:`TaskSplit` whose test
(or teacher holdout) labels are private; the only way to touch them is
through scoring methods, and no test-side forward pass is ever backpropagated.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import EvalSection, ExperimentConfig, VisionSection
from .contrastive import pretrain
from .datagen import Dataset, N_CLASSES
from .errors import InputError, NumericError
from .models import EncoderModel, init_encoder, init_head, train_classifier
from .seeding import derive_seed, rng_for


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------

@dataclass
class TaskSplit:
    """Train inputs+labels and test inputs; test labels stay private."""

    train_inputs: np.ndarray
    train_labels: np.ndarray
    test_inputs: np.ndarray
    _test_labels: np.ndarray

    def test_accuracy(self, predictions: np.ndarray) -> float:
        return float((predictions == self._test_labels).mean())


def make_task_split(dataset: Dataset) -> TaskSplit:
    """Downstream task data: the contrastive-split samples carry the labels
    a task builder may buy; the vision slice is excluded throughout."""
    tr = dataset.contrastive_idx
    te = dataset.test_idx
    return TaskSplit(
        train_inputs=dataset.heatmap_inputs(tr),
        train_labels=dataset.labels[tr],
        test_inputs=dataset.heatmap_inputs(te),
        _test_labels=dataset.labels[te],
    )


def stratified_label_subset(labels: np.ndarray, fraction: float,
                            seed: int) -> np.ndarray:
    """Indices of ceil(fraction * N) labels, per-class counts within +-1."""
    n = len(labels)
    total = math.ceil(fraction * n)
    classes = np.flatnonzero(np.bincount(labels))  # np.unique would import numpy.ma
    if total < len(classes):
        raise InputError(
            f"{total} labels cannot cover {len(classes)} classes")
    pools = {c: np.nonzero(labels == c)[0] for c in classes}
    # even allocation, capped by pool size, remainder redistributed so the
    # counts stay within +-1 whenever the pools allow it
    base, extra = divmod(total, len(classes))
    want = {c: min(base + (1 if j < extra else 0), len(pools[c]))
            for j, c in enumerate(classes)}
    deficit = total - sum(want.values())
    while deficit > 0:
        spare = [c for c in classes if want[c] < len(pools[c])]
        for c in spare[:deficit]:
            want[c] += 1
        deficit = total - sum(want.values())
    rng = rng_for(seed, "label-subset")
    picked = []
    for c in classes:
        pool = pools[c]
        picked.extend(pool[rng.permutation(len(pool))[:want[c]]])
    return np.sort(np.asarray(picked, dtype=np.int64))


# ---------------------------------------------------------------------------
# the labelled chains
# ---------------------------------------------------------------------------

def _standardizer(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = features.mean(axis=0)
    sd = np.maximum(features.std(axis=0), 1e-8)
    return mu, sd


def _train_and_score(encoder: EncoderModel | None, split: TaskSplit, fraction: float,
                     epochs: int, cfg: EvalSection | VisionSection, seed: int,
                     train_tag: str) -> tuple[float, list[float]]:
    """Train a zero-initialised head, and ``encoder`` with it unless that is
    None (then the split's inputs are features), on a stratified label
    subsample of the split (at fraction 1.0 every row, in order); then score
    them on the split's test part, in one forward pass that no gradient
    touches. Returns the test accuracy and the per-epoch train losses."""
    sel = stratified_label_subset(split.train_labels, fraction,
                                  derive_seed(seed, "subsample", fraction))
    head = init_head(split.train_inputs.shape[1] if encoder is None else encoder.embed_dim,
                     N_CLASSES)
    chain = [head] if encoder is None else [encoder, head]
    losses = [loss for _, _, loss in train_classifier(
        chain, split.train_inputs[sel], split.train_labels[sel], epochs=epochs, lr=cfg.lr,
        momentum=cfg.momentum, weight_decay=cfg.weight_decay, batch_size=cfg.batch_size,
        seed=derive_seed(seed, train_tag))]
    logits = reduce(lambda h, model: model.forward_numpy(h), chain, split.test_inputs)
    return split.test_accuracy(logits.argmax(axis=1)), losses


def linear_probe(encoder: EncoderModel, split: TaskSplit, fraction: float,
                 cfg: EvalSection, seed: int) -> tuple[float, list[float]]:
    """Train only a linear head on frozen features from a stratified label
    subsample; the encoder is never updated. Features are standardized with
    statistics of the (label-free) full train split. Returns the test
    accuracy and the per-epoch train losses."""
    feats_train = encoder.forward_numpy(split.train_inputs)
    feats_test = encoder.forward_numpy(split.test_inputs)
    mu, sd = _standardizer(feats_train)
    features = dataclasses.replace(split, train_inputs=(feats_train - mu) / sd,
                                   test_inputs=(feats_test - mu) / sd)
    return _train_and_score(None, features, fraction, cfg.probe_epochs, cfg, seed,
                            "probe-train")


def finetune(encoder: EncoderModel, split: TaskSplit, fraction: float,
             cfg: EvalSection, seed: int) -> tuple[float, list[float], EncoderModel]:
    """Same protocol as the probe but the encoder trains too; operates on a
    copy so the pre-trained encoder can be reused across fractions. Returns
    the test accuracy, the per-epoch train losses and the tuned copy."""
    tuned = encoder.copy()
    return (*_train_and_score(tuned, split, fraction, cfg.finetune_epochs, cfg, seed,
                              "finetune-train"), tuned)


def supervised_baseline(split: TaskSplit, fraction: float, cfg: EvalSection,
                        seed: int, hidden: Sequence[int],
                        embed_dim: int) -> tuple[float, list[float]]:
    """End-to-end supervised training of a fresh encoder, with ``hidden``
    layers and ``embed_dim`` outputs, plus a head on the labeled fraction.
    Returns the test accuracy and the per-epoch train losses."""
    encoder = init_encoder([split.train_inputs.shape[1], *hidden, embed_dim],
                           derive_seed(seed, "baseline-encoder"))
    return _train_and_score(encoder, split, fraction, cfg.baseline_epochs, cfg, seed,
                            "baseline-train")


def pretrain_vision(dataset: Dataset, cfg: VisionSection, *, hidden: Sequence[int],
                    embed_dim: int, seed: int) -> tuple[EncoderModel, float | None, list[float]]:
    """Train the vision teacher on image -> class over the vision split, less a
    "vision-holdout" slice that scores it as the test split scores the other
    chains, then freeze it. Returns the frozen encoder, its holdout accuracy
    and the per-epoch train losses. Mode "random-frozen" freezes the fresh init
    as a no-signal ablation teacher; it gathers no row, and its accuracy is None."""
    model = init_encoder([math.prod(dataset.images.shape[1:]), *hidden, embed_dim],
                         derive_seed(seed, "vision-encoder"))
    if cfg.mode == "random-frozen":
        model.freeze()
        return model, None, []
    n = len(dataset.vision_idx)
    if n == 0:
        raise InputError("the vision split is empty; there is nothing to train the teacher on")
    n_hold = max(1, int(round(cfg.holdout_fraction * n)))
    order = dataset.vision_idx[rng_for(seed, "vision-holdout").permutation(n)]
    hold, train = order[:n_hold], order[n_hold:]
    if len(train) == 0:
        raise InputError(f"the vision holdout takes all {n} samples of the "
                         f"vision split; none are left to fit")
    split = TaskSplit(dataset.image_inputs(train), dataset.labels[train],
                      dataset.image_inputs(hold), dataset.labels[hold])
    accuracy, losses = _train_and_score(model, split, 1.0, cfg.epochs, cfg, seed, "vision-train")
    model.freeze()
    return model, accuracy, losses


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def aggregate_arms(rows: list[tuple]) -> list[tuple]:
    """One (arm, axis value, mean, std, n) row per (arm, axis value) of the
    (axis value, arm, seed, accuracy) arm rows, in (arm, axis value) order:
    the mean and standard deviation of its accuracies over seeds, taken in
    the order the rows come in."""
    groups: dict[tuple, list[float]] = {}
    for value, arm, _, accuracy in rows:
        groups.setdefault((arm, value), []).append(accuracy)
    return [(arm, value, float(np.mean(accs)), float(np.std(accs)), len(accs))
            for (arm, value), accs in sorted(groups.items())]


def feasible_fractions(fractions: list[float], n_train: int) -> list[float]:
    """Drop fractions that cannot place one label in every class."""
    floor = N_CLASSES / n_train
    kept = [f for f in fractions if math.ceil(f * n_train) >= N_CLASSES]
    if not kept:
        raise InputError(f"no feasible fractions; need at least {floor:.4f}")
    return kept


def label_sweep_seed(dataset: Dataset, vision: EncoderModel, cfg: ExperimentConfig,
                     fractions: list[float], seed: int) -> list[tuple]:
    """One seed of the label sweep: pre-train once, then run the fine-tune
    and supervised arms at every fraction, sharing each fraction's label
    subsample between the two arms. Only the accuracies are kept. The task
    split is built after pre-training, so its inputs are not held beside
    pre-training's own. Returns one (fraction, arm, seed, accuracy) row per
    arm and fraction."""
    encoder, _ = pretrain(dataset, vision, cfg.contrastive, seed, cfg.encoder_hidden,
                          cfg.embed_dim)
    split = make_task_split(dataset)
    out = []
    for fraction in fractions:
        ft, _, _ = finetune(encoder, split, fraction, cfg.eval, seed)
        sup, _ = supervised_baseline(split, fraction, cfg.eval, seed,
                                     hidden=cfg.encoder_hidden, embed_dim=cfg.embed_dim)
        out += [(fraction, "fine-tune", seed, ft), (fraction, "supervised", seed, sup)]
    return out


def queue_sweep_arm(dataset: Dataset, vision: EncoderModel, cfg: ExperimentConfig,
                    k: int, seed: int) -> tuple:
    """One (K, seed) arm: full pre-training plus a fraction-1.0 linear probe,
    scored by accuracy alone. As in the label sweep, the task split is built
    after pre-training. Returns the row (K, "linear-probe", seed, accuracy)."""
    contrastive = dataclasses.replace(cfg.contrastive, queue_size=k)
    encoder, _ = pretrain(dataset, vision, contrastive, seed, cfg.encoder_hidden,
                          cfg.embed_dim)
    accuracy, _ = linear_probe(encoder, make_task_split(dataset), 1.0, cfg.eval, seed)
    return (k, "linear-probe", seed, accuracy)


# ---------------------------------------------------------------------------
# 2-D projection
# ---------------------------------------------------------------------------

def project_2d(features: np.ndarray) -> np.ndarray:
    """Mean-centered projection onto the top-2 principal directions.

    Sign convention: each component's first nonzero loading is positive, so
    the projection is deterministic.
    """
    if not np.isfinite(features).all():
        raise NumericError("project_2d: the features hold a non-finite value")
    centered = features - features.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[0] <= 1e-12:
        raise NumericError("features have rank 0 after centering")
    coords = np.zeros((len(features), 2))
    for comp in range(min(2, vt.shape[0])):
        loading = vt[comp]
        nz = np.nonzero(np.abs(loading) > 1e-12)[0]
        if nz.size and loading[nz[0]] < 0:
            loading = -loading
        coords[:, comp] = centered @ loading
    return coords


def cluster_separation(coords: np.ndarray, labels: np.ndarray) -> float:
    """Mean inter-class centroid distance over mean intra-class spread."""
    centroids, spreads = [], []
    for c in np.flatnonzero(np.bincount(labels)):
        block = coords[labels == c]
        centroid = block.mean(axis=0)
        centroids.append(centroid)
        spreads.append(np.sqrt(((block - centroid) ** 2).sum(axis=1)).mean())
    centroids = np.asarray(centroids)
    dists = [np.linalg.norm(a - b)
             for i, a in enumerate(centroids) for b in centroids[i + 1:]]
    spread = float(np.mean(spreads))
    if spread <= 0.0:
        raise NumericError("zero intra-class spread")
    return float(np.mean(dists)) / spread
