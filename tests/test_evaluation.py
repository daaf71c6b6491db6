"""Probe protocol, sweeps bookkeeping, and the 2-D projection."""

import math

import numpy as np
import pytest

from xmc import autodiff as ad
from xmc import evaluation as ev
from xmc import models
from xmc.config import (ContrastiveSection, DatagenSection, EvalSection, ExperimentConfig,
                        VisionSection)
from xmc.datagen import make_dataset
from xmc.errors import InputError, NumericError
from xmc.evaluation import (
    TaskSplit,
    aggregate_arms,
    cluster_separation,
    feasible_fractions,
    finetune,
    linear_probe,
    make_task_split,
    project_2d,
    stratified_label_subset,
    supervised_baseline,
)
from xmc.models import EncoderModel, fit, init_encoder, init_head, train_classifier
from xmc.seeding import rng_for

FAST_HEAD = EvalSection(probe_epochs=32, finetune_epochs=8, baseline_epochs=8,
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
        with pytest.raises(InputError, match="^1 labels cannot cover 4 classes$"):
            stratified_label_subset(labels, 0.01, seed=3)  # 1 label < 4 classes

    def test_feasible_fractions_filter(self):
        assert feasible_fractions([0.001, 0.01, 1.0], 1200) == [0.01, 1.0]
        with pytest.raises(InputError, match="^no feasible fractions; need at least 0.0040$"):
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
        accuracy, _ = linear_probe(IdentityEncoder(16), split, 1.0, FAST_HEAD, seed=7)
        assert accuracy == 1.0

    def test_chance_on_random_features(self):
        rng = np.random.default_rng(8)
        n = 400
        split = TaskSplit(train_inputs=rng.normal(size=(n, 32)),
                          train_labels=np.tile(np.arange(4), n // 4),
                          test_inputs=rng.normal(size=(n, 32)),
                          _test_labels=np.tile(np.arange(4), n // 4))
        accuracy, _ = linear_probe(IdentityEncoder(32), split, 1.0, FAST_HEAD, seed=8)
        assert abs(accuracy - 0.25) < 0.07

    def test_loss_curve_well_formed(self):
        """One mean train loss per epoch, falling on separable clusters."""
        split = separable_split()
        _, losses = linear_probe(IdentityEncoder(16), split, 0.5, FAST_HEAD, seed=9)
        assert len(losses) == FAST_HEAD.probe_epochs
        assert all(math.isfinite(v) for v in losses)
        assert losses[-1] < losses[0]

    def test_probe_is_reproducible(self):
        split = separable_split()
        a = linear_probe(IdentityEncoder(16), split, 1.0, FAST_HEAD, seed=10)
        b = linear_probe(IdentityEncoder(16), split, 1.0, FAST_HEAD, seed=10)
        assert a == b  # the accuracies and the train-loss curves


@pytest.fixture(scope="module")
def tiny_dataset():
    return make_dataset(DatagenSection(n=240), seed=20)


@pytest.fixture(scope="module")
def tiny_task(tiny_dataset):
    return make_task_split(tiny_dataset)


class TestFinetuneAndBaseline:
    def test_finetune_changes_encoder(self, tiny_task):
        enc = init_encoder([tiny_task.train_inputs.shape[1], 32, 16], seed=21)
        before = enc.data.tobytes()
        _, losses, tuned = finetune(enc, tiny_task, 1.0, FAST_HEAD, seed=21)
        assert enc.data.tobytes() == before          # original untouched
        assert tuned.data.tobytes() != before        # the copy trained
        assert len(losses) == FAST_HEAD.finetune_epochs

    def test_baseline_runs_and_is_deterministic(self, tiny_task):
        a = supervised_baseline(tiny_task, 1.0, FAST_HEAD, seed=22,
                                hidden=(32,), embed_dim=16)
        b = supervised_baseline(tiny_task, 1.0, FAST_HEAD, seed=22,
                                hidden=(32,), embed_dim=16)
        assert a == b  # the accuracies and the train-loss curves
        assert len(a[1]) == FAST_HEAD.baseline_epochs

    def test_tiny_fraction_uses_few_labels_and_underperforms(self):
        # 4 labels total vs all labels: sanity direction
        ds = make_dataset(DatagenSection(n=400), seed=20)
        split = make_task_split(ds)
        cfg = EvalSection(baseline_epochs=128, batch_size=4)
        lo = supervised_baseline(split, 4 / len(split.train_labels),
                                 cfg, seed=23, hidden=(64,), embed_dim=32)
        hi = supervised_baseline(split, 1.0, cfg, seed=23,
                                 hidden=(64,), embed_dim=32)
        assert lo[0] < hi[0]

    def test_softmax_head_rows_sum_to_one(self, tiny_task):
        x = tiny_task.train_inputs[:50]
        head = init_head(x.shape[1], 4)
        w = head.weights[0]
        w[:] = np.random.default_rng(0).normal(size=w.shape) * 20
        ex = head.forward_numpy(x)
        _, sums = ad.logsumexp_row(ex)
        np.testing.assert_allclose((ex / sums).sum(axis=1), 1.0, atol=1e-9)


class TestSpanTraining:
    """With fewer labelled rows than inputs, fit trains a first model of n
    inputs on the rows' coordinates in their span; the caller's model keeps
    its width, and trains."""

    @pytest.mark.parametrize("evaluation, fraction, first", [
        ("finetune", 0.1, [15, 32, 16]), ("baseline", 0.1, [15, 32, 16]),
        ("probe", 0.05, [8, 4]), ("probe", 1.0, [16, 4])])
    def test_fit_sees_the_first_layer_at_the_width_of_the_rows(self, tiny_task, monkeypatch,
                                                                 evaluation, fraction, first):
        """144 rows of 1,024 heatmap inputs: 0.1 of them buys 15 labels. The
        probe's head has 16 inputs: 8 labels train it in their span, and all
        144 train it as it is."""
        seen = []

        def spy_fit(chain, inputs, loss, **kw):
            seen.append((chain[0].dims, inputs.shape))
            return fit(chain, inputs, loss, **kw)

        monkeypatch.setattr(models, "fit", spy_fit)
        enc = init_encoder([tiny_task.train_inputs.shape[1], 32, 16], seed=29)
        before = enc.data.copy()
        if evaluation == "finetune":
            _, _, tuned = finetune(enc, tiny_task, fraction, FAST_HEAD, seed=29)
            assert tuned.dims == enc.dims and not np.array_equal(tuned.data, before)
        elif evaluation == "baseline":
            supervised_baseline(tiny_task, fraction, FAST_HEAD, seed=29, hidden=(32,),
                                embed_dim=16)
        else:
            linear_probe(enc, tiny_task, fraction, FAST_HEAD, seed=29)
        assert seen == [(first, (math.ceil(fraction * 144), first[0]))]
        assert np.array_equal(enc.data, before)


class TestVisionTeacher:
    """The teacher trains and is scored through the path of the other chains:
    on every vision row after the "vision-holdout" permutation's holdout, in
    that order, and then on the holdout alone."""

    CFG = VisionSection(epochs=2, batch_size=8)

    def run(self, dataset, monkeypatch):
        """pretrain_vision at seed 3, with each train_classifier call's chain,
        inputs and labels, and the vision rows of the holdout and of training."""
        calls = []

        def spy(chain, inputs, labels, **kw):
            calls.append((chain, inputs.copy(), labels.copy()))
            return train_classifier(chain, inputs, labels, **kw)

        monkeypatch.setattr(ev, "train_classifier", spy)
        result = ev.pretrain_vision(dataset, self.CFG, hidden=[32], embed_dim=16, seed=3)
        n = len(dataset.vision_idx)
        n_hold = max(1, int(round(self.CFG.holdout_fraction * n)))
        order = dataset.vision_idx[rng_for(3, "vision-holdout").permutation(n)]
        return result, calls, order[:n_hold], order[n_hold:]

    def test_trains_on_the_rows_after_the_holdout_in_their_order(self, tiny_dataset,
                                                                 monkeypatch):
        _, [(_, inputs, labels)], hold, train = self.run(tiny_dataset, monkeypatch)
        np.testing.assert_array_equal(inputs, tiny_dataset.image_inputs(train))
        np.testing.assert_array_equal(labels, tiny_dataset.labels[train])
        held = {row.tobytes() for row in tiny_dataset.image_inputs(hold)}
        assert len(held) == len(hold) and not held & {row.tobytes() for row in inputs}

    def test_the_accuracy_is_the_frozen_chains_on_the_holdout(self, tiny_dataset,
                                                              monkeypatch):
        (teacher, accuracy, losses), [(chain, _, _)], hold, _ = self.run(tiny_dataset,
                                                                         monkeypatch)
        assert chain[0] is teacher and teacher.frozen and len(losses) == self.CFG.epochs
        logits = chain[1].forward_numpy(
            teacher.forward_numpy(tiny_dataset.image_inputs(hold)))
        assert accuracy == float((logits.argmax(axis=1) == tiny_dataset.labels[hold]).mean())


class TestOneTestPass:
    """Each evaluation trains first, then forwards the test split once
    through each model of its chain: nothing is scored on the test split
    while it trains."""

    @pytest.mark.parametrize("evaluation", ["probe", "finetune", "baseline"])
    def test_each_model_forwards_the_test_rows_once(self, tiny_task, monkeypatch,
                                                    evaluation):
        n_test = len(tiny_task.test_inputs)
        assert n_test not in (FAST_HEAD.batch_size, len(tiny_task.train_labels))
        enc = init_encoder([tiny_task.train_inputs.shape[1], 32, 16], seed=28)
        run = {"probe": lambda: linear_probe(enc, tiny_task, 1.0, FAST_HEAD, 28),
               "finetune": lambda: finetune(enc, tiny_task, 1.0, FAST_HEAD, 28),
               "baseline": lambda: supervised_baseline(tiny_task, 1.0, FAST_HEAD, 28,
                                                       hidden=(32,), embed_dim=16)}
        seen = []
        forward = EncoderModel.forward

        def spy(model, x):
            if len(x) == n_test:
                seen.append((model, x))
            return forward(model, x)

        monkeypatch.setattr(EncoderModel, "forward", spy)
        run[evaluation]()
        [(first, x), (head, _)] = seen
        assert first is not head and head.dims == [16, 4]
        np.testing.assert_array_equal(x, tiny_task.test_inputs)

    def test_sweep_arms_run_one_test_forward_pass_each(self, tiny_dataset, monkeypatch):
        """Each fine-tune, baseline and probe arm of a sweep passes the test
        split through its encoder once: the final accuracy pass. Each sweep
        builds its task split only after pre-training has returned."""
        test_inputs = make_task_split(tiny_dataset).test_inputs
        width = test_inputs.shape[1]
        events = []

        def stub_pretrain(ds, vision, cfg, seed, hidden, embed_dim):
            events.append("pretrain")
            return init_encoder([width, *hidden, embed_dim], seed=seed), []

        monkeypatch.setattr(ev, "pretrain", stub_pretrain)
        monkeypatch.setattr(ev, "make_task_split",
                            lambda ds: events.append("split") or make_task_split(ds))
        passes = []
        forward = EncoderModel.forward

        def counting_forward(model, x):
            if x.shape == test_inputs.shape and np.array_equal(x, test_inputs):
                passes.append(len(x))
            return forward(model, x)

        monkeypatch.setattr(EncoderModel, "forward", counting_forward)
        cfg = ExperimentConfig(encoder_hidden=[32], embed_dim=16, eval=FAST_HEAD)
        arms = ev.label_sweep_seed(tiny_dataset, None, cfg, [0.5, 1.0], seed=27)
        assert len(arms) == 4 and len(passes) == 4
        assert events == ["pretrain", "split"]
        passes.clear()
        events.clear()
        ev.queue_sweep_arm(tiny_dataset, None, cfg, k=256, seed=27)
        assert len(passes) == 1
        assert events == ["pretrain", "split"]


class TestSweepPlumbing:
    @pytest.mark.parametrize("k", [4, 8, 256])
    def test_queue_sweep_arm_keeps_the_configured_batch(self, tiny_dataset, monkeypatch, k):
        """Each queue-sweep arm varies K alone: its batch is the configured one."""
        width = make_task_split(tiny_dataset).test_inputs.shape[1]
        sections = []

        def stub_pretrain(ds, vision, cfg, seed, hidden, embed_dim):
            sections.append(cfg)
            return init_encoder([width, *hidden, embed_dim], seed=seed), []

        monkeypatch.setattr(ev, "pretrain", stub_pretrain)
        cfg = ExperimentConfig(encoder_hidden=[32], embed_dim=16, eval=FAST_HEAD,
                               contrastive=ContrastiveSection(batch_size=8))
        ev.queue_sweep_arm(tiny_dataset, None, cfg, k=k, seed=27)
        [section] = sections
        assert section.batch_size == cfg.contrastive.batch_size
        assert section.queue_size == k

    def test_aggregate_means_and_stds(self):
        details = [(32, "x", s, a) for s, a in [(0, 0.8), (1, 0.8), (2, 0.8)]]
        details += [(8, "x", s, a) for s, a in [(0, 0.5), (1, 0.7), (2, 0.6)]]
        details += [(32, "a", 0, 0.1)]
        rows = aggregate_arms(details)
        # one row per (arm, axis value), in that order
        assert [(arm, value, n) for arm, value, _, _, n in rows] == [
            ("a", 32, 1), ("x", 8, 3), ("x", 32, 3)]
        assert math.isclose(rows[1][2], 0.6)
        assert math.isclose(rows[1][3], math.sqrt(2 / 300))
        assert math.isclose(rows[2][3], 0.0, abs_tol=1e-12)


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
        with pytest.raises(NumericError, match="^features have rank 0 after centering$"):
            project_2d(np.ones((10, 4)))

    def test_cluster_separation_orders_structured_above_noise(self):
        rng = np.random.default_rng(33)
        labels = np.repeat(np.arange(4), 50)
        centers = rng.normal(size=(4, 2)) * 5
        clustered = centers[labels] + rng.normal(size=(200, 2))
        noise = rng.normal(size=(200, 2))
        assert cluster_separation(clustered, labels) > cluster_separation(noise, labels)
