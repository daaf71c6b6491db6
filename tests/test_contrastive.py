"""Queue semantics, loss identities and pre-training behaviour."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import autodiff as ad
from xmc.contrastive import (
    ContrastiveConfig,
    NegativeQueue,
    encode_keys,
    info_nce,
    pretrain,
    warm_start,
)
from xmc.datagen import SimulatorConfig, image_inputs, make_dataset
from xmc.errors import ConfigError, ContractError, UsageError
from xmc.models import init_encoder, pretrain_vision

from helpers import check_grads


def unit_rows(arr: np.ndarray) -> np.ndarray:
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def fill_queue(vectors: np.ndarray, capacity: int | None = None) -> NegativeQueue:
    q = NegativeQueue(capacity or len(vectors))
    q.enqueue(vectors)
    return q


class TestNegativeQueue:
    def test_fifo_trace(self):
        vecs = unit_rows(np.random.default_rng(0).normal(size=(6, 3)))
        q = NegativeQueue(4)
        q.enqueue(vecs[0:2])
        q.enqueue(vecs[2:4])
        q.enqueue(vecs[4:6])
        np.testing.assert_array_equal(q.snapshot(), vecs[2:6])

    def test_warmup_no_eviction(self):
        vecs = unit_rows(np.random.default_rng(1).normal(size=(4, 3)))
        q = NegativeQueue(8)
        q.enqueue(vecs)
        assert len(q) == 4
        np.testing.assert_array_equal(q.snapshot(), vecs)

    def test_full_batch_replaces_queue(self):
        rng = np.random.default_rng(2)
        q = NegativeQueue(4)
        q.enqueue(unit_rows(rng.normal(size=(4, 3))))
        fresh = unit_rows(rng.normal(size=(4, 3)))
        q.enqueue(fresh)
        np.testing.assert_array_equal(q.snapshot(), fresh)

    def test_oversized_batch_rejected(self):
        with pytest.raises(UsageError):
            NegativeQueue(2).enqueue(unit_rows(np.ones((3, 2))))

    def test_non_unit_keys_rejected(self):
        with pytest.raises(ContractError):
            NegativeQueue(4).enqueue(np.ones((2, 3)))

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=30),
           st.integers(min_value=5, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_deque_model(self, batch_sizes, capacity):
        rng = np.random.default_rng(12345)
        q = NegativeQueue(capacity)
        model: deque = deque(maxlen=capacity)
        for b in batch_sizes:
            keys = unit_rows(rng.normal(size=(b, 4)))
            q.enqueue(keys)
            model.extend(keys)
            assert len(q) <= capacity
            np.testing.assert_array_equal(q.snapshot(), np.array(model))


class TestWarmStart:
    def test_fills_from_the_leading_batches(self):
        keys = unit_rows(np.random.default_rng(3).normal(size=(10, 3)))
        q = NegativeQueue(5)
        assert warm_start(q, keys, 2) == 6  # ceil(5 / 2) batches of 2
        np.testing.assert_array_equal(q.snapshot(), keys[1:6])

    def test_batch_larger_than_the_queue_keeps_its_newest_keys(self):
        keys = unit_rows(np.random.default_rng(4).normal(size=(10, 3)))
        q = NegativeQueue(3)
        assert warm_start(q, keys, 4) == 4
        np.testing.assert_array_equal(q.snapshot(), keys[1:4])


class TestInfoNce:
    def test_uniform_scores_give_log_k_plus_one(self):
        for k in (1, 7, 255):
            v = np.zeros((1, 4))
            v[0, 0] = 1.0
            queue = fill_queue(np.repeat(v, k, axis=0), k)
            loss, _ = info_nce(v, v.copy(), queue, tau=0.3)
            assert math.isclose(loss, math.log(k + 1), abs_tol=1e-9)

    def test_saturated_positive(self):
        # score gap of 20 tau-units: s+ = 1, s- = -1, tau = 0.1
        e = np.zeros((1, 4))
        e[0, 0] = 1.0
        queue = fill_queue(np.repeat(-e, 256, axis=0), 256)
        loss, _ = info_nce(e, e.copy(), queue, tau=0.1)
        expected = math.log(1.0 + 256 * math.exp(-20.0))
        assert loss < 1e-6
        assert math.isclose(loss, expected, rel_tol=1e-6)

    def test_single_negative_hand_value(self):
        # s+ = 1, s- = 0, tau = 1 -> ln(1 + e^-1)
        q = np.array([[1.0, 0.0]])
        k_plus = np.array([[1.0, 0.0]])
        neg = np.array([[0.0, 1.0]])
        loss, _ = info_nce(q, k_plus, fill_queue(neg, 1), tau=1.0)
        assert math.isclose(loss, math.log(1 + math.exp(-1)), rel_tol=1e-12)

    def test_empty_queue_rejected(self):
        v = unit_rows(np.ones((1, 3)))
        with pytest.raises(UsageError):
            info_nce(v, v, NegativeQueue(4), tau=1.0)

    def test_non_unit_inputs_rejected(self):
        v = unit_rows(np.ones((1, 3)))
        queue = fill_queue(v.copy(), 1)
        with pytest.raises(ContractError):
            info_nce(2.0 * v, v, queue, tau=1.0)

    def test_loss_positive_and_below_uniform_reference(self):
        rng = np.random.default_rng(3)
        k = 32
        queue = fill_queue(unit_rows(rng.normal(size=(k, 8))), k)
        q = unit_rows(rng.normal(size=(5, 8)))
        loss, _ = info_nce(q, q.copy(), queue, tau=0.5)
        assert 0.0 < loss
        # own key as positive scores highest on average: below ln(K+1) + slack
        assert loss < math.log(k + 1) + 1.0

    def test_strictly_decreasing_in_positive_score(self):
        rng = np.random.default_rng(4)
        queue = fill_queue(unit_rows(rng.normal(size=(16, 8))), 16)
        base = unit_rows(rng.normal(size=(1, 8)))
        losses = []
        for mix in (0.0, 0.5, 1.0):
            k_plus = unit_rows(mix * base + (1 - mix) * unit_rows(rng.normal(size=(1, 8))) * 0.3)
            # raise q.k+ by moving k+ toward q while negatives stay fixed
            losses.append(info_nce(base, k_plus, queue, tau=0.2)[0])
        assert losses[0] > losses[1] > losses[2]

    def test_invariant_to_queue_order(self):
        rng = np.random.default_rng(5)
        keys = unit_rows(rng.normal(size=(8, 4)))
        q = unit_rows(rng.normal(size=(3, 4)))
        a, _ = info_nce(q, q.copy(), fill_queue(keys, 8), tau=0.4)
        b, _ = info_nce(q, q.copy(), fill_queue(keys[::-1].copy(), 8), tau=0.4)
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_batched_equals_mean_of_per_sample(self):
        rng = np.random.default_rng(6)
        keys = unit_rows(rng.normal(size=(16, 6)))
        queue = fill_queue(keys, 16)
        q = unit_rows(rng.normal(size=(4, 6)))
        k_plus = unit_rows(rng.normal(size=(4, 6)))
        batched, _ = info_nce(q, k_plus, queue, tau=0.3)
        singles = [info_nce(q[i:i + 1], k_plus[i:i + 1], queue, tau=0.3)[0]
                   for i in range(4)]
        assert abs(batched - float(np.mean(singles))) < 1e-12

    def test_gradient_reaches_query_only(self):
        """The returned gradient is the query's: the keys and the queue are
        constants, and none of them is changed."""
        rng = np.random.default_rng(7)
        q = unit_rows(rng.normal(size=(3, 5)))
        k_plus = unit_rows(rng.normal(size=(3, 5)))
        queue = fill_queue(unit_rows(rng.normal(size=(8, 5))), 8)
        before = (q.copy(), k_plus.copy(), queue.snapshot())
        _, dq = info_nce(q, k_plus, queue, tau=0.2)
        assert dq.shape == q.shape and np.abs(dq).max() > 0
        for was, now in zip(before, (q, k_plus, queue.snapshot())):
            np.testing.assert_array_equal(was, now)

    @pytest.mark.parametrize("k", [1, 11])
    def test_gradient_through_l2_normalize_matches_finite_differences(self, k):
        """K = 1 and K > B: the closed-form backward against the fd oracle."""
        rng = np.random.default_rng(9 + k)
        raw = rng.normal(size=(4, 6))
        k_plus = unit_rows(rng.normal(size=(4, 6)))
        queue = fill_queue(unit_rows(rng.normal(size=(k, 6))), k)

        def loss():
            return info_nce(ad.l2_normalize(raw)[0], k_plus, queue, tau=0.3)[0]

        q, back = ad.l2_normalize(raw)
        grad = back(info_nce(q, k_plus, queue, tau=0.3)[1])
        check_grads(loss, [(raw, grad)])

    def test_raw_scores_skip_the_unit_check(self):
        # the MI critic's queue holds raw keys; q and k+ then need not be unit
        queue = NegativeQueue(2, unit_check=False)
        queue.enqueue(np.array([[0.0, 2.0], [3.0, 0.0]]))
        q, k_plus = np.array([[2.0, 0.0]]), np.array([[1.0, 1.0]])
        loss, _ = info_nce(q, k_plus, queue, tau=1.0)
        assert math.isclose(loss, math.log(1 + math.exp(-2) + math.exp(4)), rel_tol=1e-12)


class TestContrastiveConfig:
    def test_queue_must_cover_batch(self):
        with pytest.raises(ConfigError):
            ContrastiveConfig(queue_size=16, batch_size=64)

    def test_tau_positive(self):
        with pytest.raises(ConfigError):
            ContrastiveConfig(tau=0.0)


@pytest.fixture(scope="module")
def toy_setup():
    """Small dataset plus frozen teacher for fast pre-training runs."""
    ds = make_dataset(SimulatorConfig(), 320, seed=31)
    teacher = pretrain_vision(
        image_inputs(ds.images[ds.vision_idx]),
        ds.labels[ds.vision_idx].astype(np.int64),
        hidden=[64], embed_dim=32, n_classes=4, epochs=30, lr=0.01,
        momentum=0.9, weight_decay=1e-4, batch_size=16, holdout_fraction=0.2,
        seed=31).model
    return ds, teacher


TOY_CFG = dict(tau=0.07, queue_size=64, batch_size=16, epochs=8, lr=0.03,
               momentum=0.9, weight_decay=1e-4, hidden=(64,), embed_dim=32)


class TestPretrain:
    def test_requires_frozen_vision(self, toy_setup):
        ds, _ = toy_setup
        live = init_encoder([ds.images.shape[1] * ds.images.shape[2], 64, 32], seed=1)
        with pytest.raises(ContractError):
            pretrain(ds, live, ContrastiveConfig(seed=0, **TOY_CFG))

    def test_queue_larger_than_split_rejected(self, toy_setup):
        ds, teacher = toy_setup
        big = dict(TOY_CFG, queue_size=4096, batch_size=16)
        with pytest.raises(ConfigError):
            pretrain(ds, teacher, ContrastiveConfig(seed=0, **big))

    def test_first_epoch_near_uniform_and_learning_happens(self, toy_setup):
        """Epoch 0 starts at the untrained encoder's loss; training ends below ln(K+1).

        ln(K+1) is the InfoNCE loss when all K+1 scores are equal. It is a
        lower bound on the loss of a query that carries no information
        about its key, not that loss's expected value: per sample,
        logsumexp(s) >= ln(K+1) + mean(s) (Jensen), and with no information
        the positive score s_0 has the same expectation as mean(s), so
        E[loss] = E[logsumexp(s) - s_0] >= ln(K+1), with equality only for
        equal scores. Random unit queries against unit keys give scores of
        spread about 1/(sqrt(D)*tau), so the untrained loss sits well above
        ln(K+1) at tau = 0.07. The starting level is therefore measured:
        the epoch-0 loss of a twin run with the same seed at lr = 0. It sees
        the same batches and queue, and its encoder never moves.
        """
        ds, teacher = toy_setup
        result = pretrain(ds, teacher, ContrastiveConfig(seed=0, **TOY_CFG))
        frozen = dict(TOY_CFG, epochs=1, lr=0.0)
        untrained = pretrain(ds, teacher, ContrastiveConfig(seed=0, **frozen))
        uniform = math.log(TOY_CFG["queue_size"] + 1)
        start = untrained.history[0].mean_loss
        assert uniform <= start
        assert result.history[0].mean_loss <= 1.10 * start
        assert result.history[-1].mean_loss < result.history[0].mean_loss
        assert result.history[-1].mean_loss < uniform

    def test_same_seed_identical_history(self, toy_setup):
        ds, teacher = toy_setup
        cfg = ContrastiveConfig(seed=5, **TOY_CFG)
        a = pretrain(ds, teacher, cfg)
        b = pretrain(ds, teacher, cfg)
        assert [h.mean_loss for h in a.history] == [h.mean_loss for h in b.history]
        assert a.encoder.param_bytes() == b.encoder.param_bytes()

    def test_vision_params_untouched(self, toy_setup):
        ds, teacher = toy_setup
        before = teacher.param_bytes()
        pretrain(ds, teacher, ContrastiveConfig(seed=2, **TOY_CFG))
        assert teacher.param_bytes() == before

    def test_history_lr_follows_cosine(self, toy_setup):
        ds, teacher = toy_setup
        result = pretrain(ds, teacher, ContrastiveConfig(seed=3, **TOY_CFG))
        lrs = [h.lr for h in result.history]
        assert lrs[0] == TOY_CFG["lr"]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestEncodeKeys:
    def test_keys_are_unit_norm(self, toy_setup):
        ds, teacher = toy_setup
        keys = encode_keys(teacher, image_inputs(ds.images[:10]))
        np.testing.assert_allclose(np.linalg.norm(keys, axis=1), 1.0, atol=1e-9)

    def test_encoding_is_deterministic(self, toy_setup):
        ds, teacher = toy_setup
        imgs = image_inputs(ds.images[:10])
        a = encode_keys(teacher, imgs, batch=4)
        b = encode_keys(teacher, imgs, batch=4)
        assert a.tobytes() == b.tobytes()

    def test_batch_size_changes_only_rounding(self, toy_setup):
        ds, teacher = toy_setup
        imgs = image_inputs(ds.images[:10])
        np.testing.assert_allclose(encode_keys(teacher, imgs, batch=3),
                                   encode_keys(teacher, imgs, batch=100),
                                   atol=1e-12)
