"""Probe protocol, sweeps bookkeeping, and the 2-D projection."""

import math

import numpy as np
import pytest

from xmc import autodiff as ad
from xmc.datagen import SimulatorConfig, make_dataset
from xmc.errors import ConfigError, DegenerateInputError, StratificationError, UsageError
from xmc.evaluation import (
    HeadConfig,
    TaskSplit,
    aggregate_arms,
    ArmResult,
    cluster_separation,
    feasible_fractions,
    finetune,
    linear_probe,
    make_task_split,
    project_2d,
    stratified_label_subset,
    supervised_baseline,
)
from xmc.models import init_encoder, init_head

FAST_HEAD = HeadConfig(probe_epochs=32, finetune_epochs=8, baseline_epochs=8,
                       batch_size=8)


def separable_split(n_per_class: int = 40, d: int = 16, seed: int = 0,
                    spread: float = 0.05) -> TaskSplit:
    """Four tight, far-apart feature clusters; a hand linear rule (nearest
    one-hot axis) classifies them perfectly, so a probe must reach 1.0."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c in range(4):
        center = np.zeros(d)
        center[c] = 3.0
        feats.append(center + spread * rng.normal(size=(n_per_class, d)))
        labels.extend([c] * n_per_class)
    feats = np.vstack(feats)
    labels = np.asarray(labels)
    order = rng.permutation(len(labels))
    feats, labels = feats[order], labels[order]
    cut = len(labels) // 2
    # hand-rule sanity: argmax coordinate equals the label
    assert (feats.argmax(axis=1) == labels).all()
    return TaskSplit(train_inputs=feats[:cut], train_labels=labels[:cut],
                     test_inputs=feats[cut:], _test_labels=labels[cut:])


class IdentityEncoder:
    """Passes features through; stands in for a frozen encoder in probes."""

    def __init__(self, d):
        self.embed_dim = d
        self.frozen = True

    def forward_numpy(self, x):
        return np.asarray(x, dtype=np.float64)


class TestStratifiedSubset:
    def test_counts_within_one(self):
        labels = np.repeat(np.arange(4), 25)
        sel = stratified_label_subset(labels, 0.1, seed=1)
        counts = np.bincount(labels[sel], minlength=4)
        assert counts.sum() == math.ceil(0.1 * 100)
        assert counts.max() - counts.min() <= 1

    def test_ceil_semantics(self):
        labels = np.repeat(np.arange(4), 300)
        sel = stratified_label_subset(labels, 0.01, seed=2)
        assert len(sel) == 12

    def test_too_small_fraction_raises(self):
        labels = np.repeat(np.arange(4), 25)
        with pytest.raises(StratificationError):
            stratified_label_subset(labels, 0.01, seed=3)  # 1 label < 4 classes

    def test_fraction_domain(self):
        with pytest.raises(ConfigError):
            stratified_label_subset(np.zeros(10, dtype=int), 0.0, seed=4)

    def test_feasible_fractions_filter(self):
        assert feasible_fractions([0.001, 0.01, 1.0], 1200) == [0.01, 1.0]
        with pytest.raises(ConfigError):
            feasible_fractions([0.0001], 1000)


class TestExtractFeatures:
    """Features are the encoder's forward_numpy output."""

    def test_deterministic_and_sized(self):
        enc = init_encoder([12, 8, 6], seed=5)
        x = np.random.default_rng(5).normal(size=(9, 12))
        a = enc.forward_numpy(x)
        assert a.shape == (9, 6)
        assert a.tobytes() == enc.forward_numpy(x).tobytes()

    def test_zero_encoder_gives_zero_features(self):
        enc = init_encoder([5, 4], seed=6)
        enc.weights[0][:] = 0.0
        out = enc.forward_numpy(np.ones((3, 5)))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))


class TestLinearProbe:
    def test_perfect_on_separable_clusters(self):
        split = separable_split()
        r = linear_probe(IdentityEncoder(16), split, 1.0, FAST_HEAD, seed=7)
        assert r.test_accuracy == 1.0
        assert r.mode == "linear-probe"

    def test_chance_on_random_features(self):
        rng = np.random.default_rng(8)
        n = 400
        split = TaskSplit(train_inputs=rng.normal(size=(n, 32)),
                          train_labels=np.tile(np.arange(4), n // 4),
                          test_inputs=rng.normal(size=(n, 32)),
                          _test_labels=np.tile(np.arange(4), n // 4))
        r = linear_probe(IdentityEncoder(32), split, 1.0, FAST_HEAD, seed=8)
        assert abs(r.test_accuracy - 0.25) < 0.07

    def test_loss_curve_well_formed(self):
        split = separable_split()
        r = linear_probe(IdentityEncoder(16), split, 0.5, FAST_HEAD, seed=9)
        assert len(r.test_loss_curve) == FAST_HEAD.probe_epochs
        assert all(math.isfinite(v) for _, v in r.test_loss_curve)
        assert r.best_epoch == min(range(len(r.test_loss_curve)),
                                   key=lambda i: r.test_loss_curve[i][1])

    def test_probe_is_reproducible(self):
        split = separable_split()
        a = linear_probe(IdentityEncoder(16), split, 1.0, FAST_HEAD, seed=10)
        b = linear_probe(IdentityEncoder(16), split, 1.0, FAST_HEAD, seed=10)
        assert a.test_accuracy == b.test_accuracy
        assert a.test_loss_curve == b.test_loss_curve


@pytest.fixture(scope="module")
def tiny_task():
    ds = make_dataset(SimulatorConfig(), 240, seed=20)
    return make_task_split(ds)


class TestFinetuneAndBaseline:
    def test_finetune_changes_encoder(self, tiny_task):
        enc = init_encoder([tiny_task.train_inputs.shape[1], 32, 16], seed=21)
        before = enc.param_bytes()
        result, tuned = finetune(enc, tiny_task, 1.0, FAST_HEAD, seed=21)
        assert enc.param_bytes() == before          # original untouched
        assert tuned.param_bytes() != before        # the copy trained
        assert result.mode == "fine-tune"

    def test_baseline_runs_and_is_deterministic(self, tiny_task):
        a = supervised_baseline(tiny_task, 1.0, FAST_HEAD, seed=22,
                                hidden=(32,), embed_dim=16)
        b = supervised_baseline(tiny_task, 1.0, FAST_HEAD, seed=22,
                                hidden=(32,), embed_dim=16)
        assert a.test_accuracy == b.test_accuracy
        assert a.mode == "supervised-baseline"

    def test_tiny_fraction_uses_few_labels_and_underperforms(self):
        # 4 labels total vs all labels: sanity direction
        ds = make_dataset(SimulatorConfig(), 400, seed=20)
        split = make_task_split(ds)
        cfg = HeadConfig(baseline_epochs=128, batch_size=4)
        lo = supervised_baseline(split, 4 / len(split.train_labels),
                                 cfg, seed=23, hidden=(64,), embed_dim=32)
        hi = supervised_baseline(split, 1.0, cfg, seed=23,
                                 hidden=(64,), embed_dim=32)
        assert lo.test_accuracy < hi.test_accuracy

    def test_softmax_head_rows_sum_to_one(self, tiny_task):
        x = tiny_task.train_inputs[:50]
        head = init_head(x.shape[1], 4)
        w = head.weights[0]
        w[:] = np.random.default_rng(0).normal(size=w.shape) * 20
        _, probs = ad.logsumexp_row(head.forward_numpy(x))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestSweepPlumbing:
    def test_aggregate_means_and_stds(self):
        details = [ArmResult(8.0, "x", s, a)
                   for s, a in [(0, 0.5), (1, 0.7), (2, 0.6)]]
        details += [ArmResult(32.0, "x", s, a)
                    for s, a in [(0, 0.8), (1, 0.8), (2, 0.8)]]
        table = aggregate_arms("K", "x", details)
        assert [r.value for r in table.rows] == [8.0, 32.0]
        assert math.isclose(table.rows[0].mean_accuracy, 0.6)
        assert math.isclose(table.rows[1].std_accuracy, 0.0, abs_tol=1e-12)
        assert all(r.n_seeds == 3 for r in table.rows)


class TestProjection:
    def test_centered_2d_features_recovered_up_to_rotation(self):
        rng = np.random.default_rng(30)
        feats = rng.normal(size=(50, 2)) @ np.diag([3.0, 1.0])
        feats -= feats.mean(axis=0)
        coords = project_2d(feats)
        # distances between points are preserved by an orthogonal map
        d_orig = np.linalg.norm(feats[:10, None] - feats[None, :10], axis=2)
        d_proj = np.linalg.norm(coords[:10, None] - coords[None, :10], axis=2)
        np.testing.assert_allclose(d_proj, d_orig, atol=1e-9)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(31)
        feats = rng.normal(size=(40, 6))
        a = project_2d(feats)
        b = project_2d(feats.copy())
        np.testing.assert_array_equal(a, b)

    def test_rank_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            project_2d(np.ones((10, 4)))

    def test_needs_three_rows(self):
        with pytest.raises(UsageError):
            project_2d(np.eye(2))

    def test_cluster_separation_orders_structured_above_noise(self):
        rng = np.random.default_rng(33)
        labels = np.repeat(np.arange(4), 50)
        centers = rng.normal(size=(4, 2)) * 5
        clustered = centers[labels] + rng.normal(size=(200, 2))
        noise = rng.normal(size=(200, 2))
        assert cluster_separation(clustered, labels) > cluster_separation(noise, labels)
