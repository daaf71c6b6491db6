"""Downstream evaluation: probes, fine-tuning, baselines, sweeps, projection.

The protocol mirrors common practice: freeze the pre-trained features and
train a linear softmax classifier; or fine-tune encoder and head together;
or train everything from scratch as the supervised reference. Label-fraction
and queue-size sweeps aggregate means and standard deviations over seeds.

Test-split hygiene: training code receives a :class:`TaskSplit` whose test
labels are private; the only way to touch them is through scoring methods,
and no test-side forward pass is ever backpropagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contrastive import ContrastiveConfig, pretrain
from .datagen import Dataset, N_CLASSES, heatmap_inputs
from .errors import ConfigError, DegenerateInputError, StratificationError, UsageError
from .models import (
    EncoderModel,
    init_encoder,
    init_head,
    train_classifier,
)
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
        return float((np.asarray(predictions) == self._test_labels).mean())

    def test_labels_for_reporting(self) -> np.ndarray:
        """Labels for plots/CSV emission only; never feed these to training."""
        return self._test_labels.copy()


def make_task_split(dataset: Dataset) -> TaskSplit:
    """Downstream task data: the contrastive-split samples carry the labels
    a task builder may buy; the vision slice is excluded throughout."""
    tr = dataset.contrastive_idx
    te = dataset.test_idx
    return TaskSplit(
        train_inputs=heatmap_inputs(dataset.heatmaps[tr]),
        train_labels=dataset.labels[tr].astype(np.int64),
        test_inputs=heatmap_inputs(dataset.heatmaps[te]),
        _test_labels=dataset.labels[te].astype(np.int64),
    )


def stratified_label_subset(labels: np.ndarray, fraction: float,
                            seed: int) -> np.ndarray:
    """Indices of ceil(fraction * N) labels, per-class counts within +-1."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    n = len(labels)
    total = math.ceil(fraction * n)
    classes = np.unique(labels)
    if total < len(classes):
        raise StratificationError(
            f"{total} labels cannot cover {len(classes)} classes")
    pools = {c: np.nonzero(labels == c)[0] for c in classes}
    if any(len(p) == 0 for p in pools.values()):
        raise StratificationError("a class has no samples to draw from")
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
# probes and baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeadConfig:
    """Classifier-training settings shared by probe, fine-tune and baseline."""

    probe_epochs: int = 32
    finetune_epochs: int = 32
    baseline_epochs: int = 128
    lr: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 8


@dataclass
class ProbeResult:
    label_fraction: float
    mode: str                        # linear-probe | fine-tune | supervised-baseline
    test_accuracy: float
    test_loss_curve: list[tuple[int, float]]
    seed: int
    best_epoch: int                  # epoch with minimum test loss (early-stop report)

    @property
    def best_test_loss(self) -> float:
        return self.test_loss_curve[self.best_epoch][1]


def _standardizer(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = features.mean(axis=0)
    sd = np.maximum(features.std(axis=0), 1e-8)
    return mu, sd


def _train_and_score(mode: str, encoder: EncoderModel | None,
                     train_inputs: np.ndarray, test_inputs: np.ndarray,
                     split: TaskSplit, fraction: float, epochs: int,
                     cfg: HeadConfig, seed: int, train_tag: str) -> ProbeResult:
    """Train a zero-initialised head, and ``encoder`` with it unless that is
    None (then the inputs are features), on a stratified label subsample;
    then score them on the test split."""
    sel = stratified_label_subset(split.train_labels, fraction,
                                  derive_seed(seed, "subsample", fraction))
    head = init_head(train_inputs.shape[1] if encoder is None else encoder.embed_dim,
                     N_CLASSES)
    run = train_classifier(
        encoder, head, train_inputs[sel], split.train_labels[sel],
        epochs=epochs, lr=cfg.lr, momentum=cfg.momentum,
        weight_decay=cfg.weight_decay, batch_size=cfg.batch_size,
        seed=derive_seed(seed, train_tag),
        test_inputs=test_inputs, test_labels=split.test_labels_for_reporting())
    feats = test_inputs if encoder is None else encoder.forward_numpy(test_inputs)
    accuracy = split.test_accuracy(head.forward_numpy(feats).argmax(axis=1))
    best = int(np.argmin(run.test_loss)) if run.test_loss else 0
    return ProbeResult(label_fraction=fraction, mode=mode, test_accuracy=accuracy,
                       test_loss_curve=list(enumerate(run.test_loss)), seed=seed,
                       best_epoch=best)


def linear_probe(encoder: EncoderModel, split: TaskSplit, fraction: float,
                 cfg: HeadConfig, seed: int) -> ProbeResult:
    """Train only a linear head on frozen features from a stratified label
    subsample; the encoder is never updated. Features are standardized with
    statistics of the (label-free) full train split."""
    feats_train = encoder.forward_numpy(split.train_inputs)
    feats_test = encoder.forward_numpy(split.test_inputs)
    mu, sd = _standardizer(feats_train)
    return _train_and_score("linear-probe", None, (feats_train - mu) / sd,
                            (feats_test - mu) / sd, split, fraction,
                            cfg.probe_epochs, cfg, seed, "probe-train")


def finetune(encoder: EncoderModel, split: TaskSplit, fraction: float,
             cfg: HeadConfig, seed: int) -> tuple[ProbeResult, EncoderModel]:
    """Same protocol as the probe but the encoder trains too; operates on a
    copy so the pre-trained encoder can be reused across fractions."""
    tuned = encoder.copy(trainable=True)
    result = _train_and_score("fine-tune", tuned, split.train_inputs, split.test_inputs,
                              split, fraction, cfg.finetune_epochs, cfg, seed,
                              "finetune-train")
    return result, tuned


def supervised_baseline(split: TaskSplit, fraction: float, cfg: HeadConfig,
                        seed: int, hidden: tuple[int, ...] = (256, 256),
                        embed_dim: int = 128) -> ProbeResult:
    """End-to-end supervised training of a fresh encoder plus head on the
    labeled fraction."""
    encoder = init_encoder([split.train_inputs.shape[1], *hidden, embed_dim],
                           derive_seed(seed, "baseline-encoder"))
    return _train_and_score("supervised-baseline", encoder, split.train_inputs,
                            split.test_inputs, split, fraction, cfg.baseline_epochs,
                            cfg, seed, "baseline-train")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    value: float
    mean_accuracy: float
    std_accuracy: float
    n_seeds: int


@dataclass
class SweepTable:
    axis: str          # "K" or "label_fraction"
    arm: str
    rows: list[SweepRow] = field(default_factory=list)


@dataclass
class ArmResult:
    axis_value: float
    arm: str
    seed: int
    accuracy: float


def aggregate_arms(axis: str, arm: str, details: list[ArmResult]) -> SweepTable:
    table = SweepTable(axis=axis, arm=arm)
    for value in sorted({d.axis_value for d in details}):
        accs = [d.accuracy for d in details if d.axis_value == value]
        table.rows.append(SweepRow(value=value,
                                   mean_accuracy=float(np.mean(accs)),
                                   std_accuracy=float(np.std(accs)),
                                   n_seeds=len(accs)))
    return table


def feasible_fractions(fractions: list[float], n_train: int) -> list[float]:
    """Drop fractions that cannot place one label in every class."""
    floor = N_CLASSES / n_train
    kept = [f for f in fractions if math.ceil(f * n_train) >= N_CLASSES]
    if not kept:
        raise ConfigError(f"no feasible fractions; need at least {floor:.4f}")
    return kept


def label_sweep_seed(dataset: Dataset, vision: EncoderModel,
                     base_cfg: ContrastiveConfig, head_cfg: HeadConfig,
                     fractions: list[float], seed: int) -> list[ArmResult]:
    """One seed of the label sweep: pre-train once, then run the fine-tune
    and supervised arms at every fraction, sharing each fraction's label
    subsample between the two arms."""
    split = make_task_split(dataset)
    cfg = ContrastiveConfig(**{**base_cfg.__dict__, "seed": seed})
    pre = pretrain(dataset, vision, cfg)
    out: list[ArmResult] = []
    for fraction in fractions:
        ft, _ = finetune(pre.encoder, split, fraction, head_cfg, seed)
        sup = supervised_baseline(split, fraction, head_cfg, seed,
                                  hidden=cfg.hidden, embed_dim=cfg.embed_dim)
        out.append(ArmResult(fraction, "fine-tune", seed, ft.test_accuracy))
        out.append(ArmResult(fraction, "supervised", seed, sup.test_accuracy))
    return out


def queue_sweep_arm(dataset: Dataset, vision: EncoderModel,
                    base_cfg: ContrastiveConfig, head_cfg: HeadConfig,
                    k: int, seed: int) -> ArmResult:
    """One (K, seed) arm: full pre-training plus a fraction-1.0 linear probe.
    Arms with K below the batch size shrink the batch to K so the queue can
    always hold one batch."""
    split = make_task_split(dataset)
    cfg = ContrastiveConfig(**{**base_cfg.__dict__, "seed": seed,
                               "queue_size": k,
                               "batch_size": min(base_cfg.batch_size, k)})
    pre = pretrain(dataset, vision, cfg)
    probe = linear_probe(pre.encoder, split, 1.0, head_cfg, seed)
    return ArmResult(float(k), "linear-probe", seed, probe.test_accuracy)


# ---------------------------------------------------------------------------
# 2-D projection
# ---------------------------------------------------------------------------

def project_2d(features: np.ndarray) -> np.ndarray:
    """Mean-centered projection onto the top-2 principal directions.

    Sign convention: each component's first nonzero loading is positive, so
    the projection is deterministic.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or len(feats) < 3:
        raise UsageError(f"project_2d needs at least 3 feature rows, got {feats.shape}")
    centered = feats - feats.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[0] <= 1e-12:
        raise DegenerateInputError("features have rank 0 after centering")
    coords = np.zeros((len(feats), 2))
    for comp in range(min(2, vt.shape[0])):
        loading = vt[comp]
        nz = np.nonzero(np.abs(loading) > 1e-12)[0]
        if nz.size and loading[nz[0]] < 0:
            loading = -loading
        coords[:, comp] = centered @ loading
    return coords


def cluster_separation(coords: np.ndarray, labels: np.ndarray) -> float:
    """Mean inter-class centroid distance over mean intra-class spread."""
    coords = np.asarray(coords, dtype=np.float64)
    labels = np.asarray(labels)
    centroids, spreads = [], []
    for c in np.unique(labels):
        block = coords[labels == c]
        centroid = block.mean(axis=0)
        centroids.append(centroid)
        spreads.append(np.sqrt(((block - centroid) ** 2).sum(axis=1)).mean())
    centroids = np.asarray(centroids)
    dists = [np.linalg.norm(a - b)
             for i, a in enumerate(centroids) for b in centroids[i + 1:]]
    spread = float(np.mean(spreads))
    if spread <= 0.0:
        raise DegenerateInputError("zero intra-class spread")
    return float(np.mean(dists)) / spread
