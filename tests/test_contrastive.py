"""Queue semantics, loss identities and pre-training behaviour."""

import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import autodiff as ad
from xmc import contrastive
from xmc.config import ContrastiveSection, DatagenSection, VisionSection
from xmc.contrastive import NegativeQueue, encode_keys, fit_to_keys, info_nce, pretrain
from xmc.datagen import make_dataset
from xmc.errors import InputError, NumericError
from xmc.evaluation import pretrain_vision
from xmc.models import fit, init_encoder
from xmc.seeding import rng_for

from helpers import check_grads


def unit_rows(arr: np.ndarray) -> np.ndarray:
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def reference_info_nce(q, k_plus, negatives, tau):
    """InfoNCE evaluated out of place, in the float operations and order of
    ``info_nce``: concatenated scores, a scaled copy, fresh exponentials, the
    loss's ``mean``, and the gradient GEMM on the exponentials with its
    (B, D) result divided by the row sums. It scales by 1/tau at tau = 1
    too, where ``info_nce`` skips the two products with 1.0."""
    inv_tau = 1.0 / tau
    pos = (q * k_plus).sum(axis=1)
    scores = np.concatenate([pos[:, None], q @ negatives.T], axis=1) * inv_tau
    mx = scores.max(axis=1, keepdims=True)
    ex = np.exp(scores - mx)
    sums = ex.sum(axis=1, keepdims=True)
    lse = (mx + np.log(sums)).reshape(-1)
    dq = (ex[:, 1:] @ negatives / sums + (ex[:, :1] / sums - 1.0) * k_plus) \
        * (inv_tau / len(pos))
    return float((lse - pos * inv_tau).mean()), dq


def softmax_reference_dq(q, k_plus, negatives, tau):
    """InfoNCE's gradient in its textbook form, (softmax - one-hot(0)) @
    [k+, N] / (B tau): the softmax normalized before the GEMM."""
    scores = np.concatenate([(q * k_plus).sum(axis=1)[:, None], q @ negatives.T],
                            axis=1) / tau
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    d = ex / ex.sum(axis=1, keepdims=True)
    d[:, 0] -= 1.0
    d /= len(q) * tau
    return d[:, 1:] @ negatives + d[:, :1] * k_plus


def critic_batch(tau: float, batch: int = 128):
    """``batch`` queries (by default 128) against K = 256 keys of width 8,
    the MI critic's shapes: raw rows at tau = 1, else unit-norm rows."""
    rng = np.random.default_rng(int(tau * 100))
    q, k_plus, keys = (rng.normal(size=(n, 8)) for n in (batch, batch, 256))
    if tau != 1.0:
        q, k_plus, keys = unit_rows(q), unit_rows(k_plus), unit_rows(keys)
    return q, k_plus, keys


class TestNegativeQueue:
    def test_fifo_trace(self):
        vecs = unit_rows(np.random.default_rng(0).normal(size=(6, 3)))
        q = NegativeQueue(vecs, 4)
        q.enqueue(np.arange(0, 2))
        q.enqueue(np.arange(2, 4))
        q.enqueue(np.arange(4, 6))
        np.testing.assert_array_equal(q.snapshot(), vecs[2:6])

    def test_warmup_no_eviction(self):
        vecs = unit_rows(np.random.default_rng(1).normal(size=(4, 3)))
        q = NegativeQueue(vecs, 8)
        assert q.snapshot().shape == (0, 3)
        q.enqueue(np.array([2, 0, 3, 1]))
        np.testing.assert_array_equal(q.snapshot(), vecs[[2, 0, 3, 1]])

    def test_full_batch_replaces_queue(self):
        vecs = unit_rows(np.random.default_rng(2).normal(size=(8, 3)))
        q = NegativeQueue(vecs, 4)
        q.enqueue(np.arange(4))
        q.enqueue(np.arange(4, 8))
        np.testing.assert_array_equal(q.snapshot(), vecs[4:])

    def test_oversized_block_keeps_its_newest_keys(self):
        vecs = unit_rows(np.random.default_rng(5).normal(size=(3, 2)))
        q = NegativeQueue(vecs, 2)
        q.enqueue(np.arange(3))
        np.testing.assert_array_equal(q.snapshot(), vecs[1:])  # oldest first

    def test_snapshot_is_a_copy_of_the_gathered_rows(self):
        """The same bytes as ``keys[rows]``, in a fresh array per call: a later
        snapshot does not overwrite it, and writing to it changes neither the
        key table nor a later snapshot."""
        keys = np.random.default_rng(6).normal(size=(10, 3))
        before = keys.copy()
        q = NegativeQueue(keys, 4)
        q.enqueue(np.array([7, 2, 9, 2, 5]))
        snap = q.snapshot()
        assert snap.tobytes() == keys[np.array([2, 9, 2, 5])].tobytes()
        assert snap.flags.owndata and not np.shares_memory(snap, keys)
        q.enqueue(np.array([0]))
        later = q.snapshot()
        assert later.tobytes() == keys[np.array([9, 2, 5, 0])].tobytes()
        assert snap.tobytes() == keys[np.array([2, 9, 2, 5])].tobytes()
        snap[:] = 0.0
        assert keys.tobytes() == before.tobytes()
        assert later.tobytes() == keys[np.array([9, 2, 5, 0])].tobytes()

    @given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=30),
           st.integers(min_value=5, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_deque_model(self, batch_sizes, capacity):
        rng = np.random.default_rng(12345)
        keys = rng.normal(size=(50, 4))
        q = NegativeQueue(keys, capacity)
        model: deque = deque(maxlen=capacity)
        for b in batch_sizes:
            rows = rng.integers(0, len(keys), size=b)
            q.enqueue(rows)
            model.extend(rows)
            np.testing.assert_array_equal(q.snapshot(), keys[list(model)])


def first_scored_negatives(monkeypatch, keys, queue_size, batch, normalize):
    """The negatives of ``fit_to_keys``'s first ``info_nce`` call on a 3 -> 3
    linear model over ``len(keys)`` rows, with the rows used to warm the queue
    and the trainer's epoch-0 order."""
    seen = []

    def spy(q, k_plus, negatives, tau):
        seen.append(negatives.copy())
        return info_nce(q, k_plus, negatives, tau)

    monkeypatch.setattr(contrastive, "info_nce", spy)
    inputs = np.random.default_rng(len(keys)).normal(size=(len(keys), 3))
    cfg = ContrastiveSection(tau=0.5, queue_size=queue_size, batch_size=batch, epochs=1,
                             lr=0.01, momentum=0.9, weight_decay=0.0)
    _, warm = fit_to_keys(init_encoder([3, 3], seed=0), inputs, keys, cfg, seed=9,
                          tag="order", normalize=normalize)
    return seen[0], warm, rng_for(9, "order").permutation(len(keys))


class TestFitToKeys:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_queries_are_unit_rows_iff_normalize(self, monkeypatch, normalize):
        """The critic scores the model's raw outputs; pre-training scores them
        l2-normalized, and each scored query is its input row's output."""
        scored = []

        def spy(q, k_plus, negatives, tau):
            scored.append(q.copy())
            return info_nce(q, k_plus, negatives, tau)

        monkeypatch.setattr(contrastive, "info_nce", spy)
        model = init_encoder([3, 3], seed=1)
        inputs = np.random.default_rng(2).normal(size=(8, 3))
        raw = model.forward_numpy(inputs[rng_for(5, "order").permutation(8)[:4]])
        cfg = ContrastiveSection(tau=0.5, queue_size=4, batch_size=4, epochs=1, lr=0.01,
                                 momentum=0.9, weight_decay=0.0)
        fit_to_keys(model, inputs, unit_rows(inputs), cfg, seed=5, tag="order",
                    normalize=normalize)
        np.testing.assert_allclose(scored[0], unit_rows(raw) if normalize else raw,
                                   rtol=1e-12)


class TestWarmStart:
    """The trainer's first scored negatives, with and without normalized queries."""

    def test_fills_from_the_leading_batches(self, monkeypatch):
        keys = unit_rows(np.random.default_rng(3).normal(size=(10, 3)))
        for normalize in (True, False):
            negatives, warm, order = first_scored_negatives(monkeypatch, keys, 5, 2,
                                                            normalize)
            assert warm == 6  # ceil(5 / 2) batches of 2
            np.testing.assert_array_equal(negatives, keys[order[1:6]])

    def test_batch_larger_than_the_queue_keeps_its_newest_keys(self, monkeypatch):
        keys = unit_rows(np.random.default_rng(4).normal(size=(10, 3)))
        for normalize in (True, False):
            negatives, warm, order = first_scored_negatives(monkeypatch, keys, 3, 4,
                                                            normalize)
            assert warm == 4
            np.testing.assert_array_equal(negatives, keys[order[1:4]])

    @pytest.mark.parametrize("batch", [2, 5, 7], ids=["B<K", "B=K", "B>K"])
    def test_one_call_fill_matches_the_batch_by_batch_fill(self, monkeypatch, batch):
        keys = unit_rows(np.random.default_rng(6).normal(size=(12, 3)))
        for normalize in (True, False):
            negatives, warm, order = first_scored_negatives(monkeypatch, keys, 5, batch,
                                                            normalize)
            by_batch: deque = deque(maxlen=5)
            for start in range(0, warm, batch):
                by_batch.extend(order[start:start + batch])
            np.testing.assert_array_equal(negatives, keys[list(by_batch)])

    def test_pretrain_warms_from_the_leading_batches_of_fits_first_epoch(
            self, toy_setup, monkeypatch):
        """The first loss is scored against the keys of the last K of the
        first ceil(K/B)*B rows that ``fit`` visits in epoch 0."""
        ds, teacher = toy_setup
        sels, first_negatives = [], []

        def spy_fit(chain, inputs, loss, **kw):
            def spy_loss(out, sel):
                sels.append(sel.copy())
                return loss(out, sel)
            return fit(chain, inputs, spy_loss, **kw)

        def spy_info_nce(q, k_plus, negatives, tau):
            first_negatives.append(negatives.copy())
            return info_nce(q, k_plus, negatives, tau)

        monkeypatch.setattr(contrastive, "fit", spy_fit)
        monkeypatch.setattr(contrastive, "info_nce", spy_info_nce)
        toy_pretrain(ds, teacher, seed=4, batch_size=24, epochs=1)  # K = 64: 3 batches
        keys = encode_keys(teacher, ds.image_inputs(ds.contrastive_idx))
        epoch_0 = np.concatenate(sels)
        np.testing.assert_array_equal(first_negatives[0], keys[epoch_0[72 - 64:72]])


class TestInfoNce:
    def test_uniform_scores_give_log_k_plus_one(self):
        for k in (1, 7, 255):
            v = np.zeros((1, 4))
            v[0, 0] = 1.0
            loss, _ = info_nce(v, v.copy(), np.repeat(v, k, axis=0), tau=0.3)
            assert math.isclose(loss, math.log(k + 1), abs_tol=1e-9)

    def test_saturated_positive(self):
        # score gap of 20 tau-units: s+ = 1, s- = -1, tau = 0.1
        e = np.zeros((1, 4))
        e[0, 0] = 1.0
        loss, _ = info_nce(e, e.copy(), np.repeat(-e, 256, axis=0), tau=0.1)
        expected = math.log(1.0 + 256 * math.exp(-20.0))
        assert loss < 1e-6
        assert math.isclose(loss, expected, rel_tol=1e-6)

    def test_single_negative_hand_value(self):
        # s+ = 1, s- = 0, tau = 1 -> ln(1 + e^-1)
        q = np.array([[1.0, 0.0]])
        k_plus = np.array([[1.0, 0.0]])
        neg = np.array([[0.0, 1.0]])
        loss, _ = info_nce(q, k_plus, neg, tau=1.0)
        assert math.isclose(loss, math.log(1 + math.exp(-1)), rel_tol=1e-12)

    def test_loss_positive_and_below_uniform_reference(self):
        rng = np.random.default_rng(3)
        k = 32
        negatives = unit_rows(rng.normal(size=(k, 8)))
        q = unit_rows(rng.normal(size=(5, 8)))
        loss, _ = info_nce(q, q.copy(), negatives, tau=0.5)
        assert 0.0 < loss
        # own key as positive scores highest on average: below ln(K+1) + slack
        assert loss < math.log(k + 1) + 1.0

    def test_strictly_decreasing_in_positive_score(self):
        rng = np.random.default_rng(4)
        negatives = unit_rows(rng.normal(size=(16, 8)))
        base = unit_rows(rng.normal(size=(1, 8)))
        losses = []
        for mix in (0.0, 0.5, 1.0):
            k_plus = unit_rows(mix * base + (1 - mix) * unit_rows(rng.normal(size=(1, 8))) * 0.3)
            # raise q.k+ by moving k+ toward q while negatives stay fixed
            losses.append(info_nce(base, k_plus, negatives, tau=0.2)[0])
        assert losses[0] > losses[1] > losses[2]

    def test_invariant_to_queue_order(self):
        rng = np.random.default_rng(5)
        keys = unit_rows(rng.normal(size=(8, 4)))
        q = unit_rows(rng.normal(size=(3, 4)))
        a, _ = info_nce(q, q.copy(), keys, tau=0.4)
        b, _ = info_nce(q, q.copy(), keys[::-1].copy(), tau=0.4)
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_batched_equals_mean_of_per_sample(self):
        rng = np.random.default_rng(6)
        keys = unit_rows(rng.normal(size=(16, 6)))
        q = unit_rows(rng.normal(size=(4, 6)))
        k_plus = unit_rows(rng.normal(size=(4, 6)))
        batched, _ = info_nce(q, k_plus, keys, tau=0.3)
        singles = [info_nce(q[i:i + 1], k_plus[i:i + 1], keys, tau=0.3)[0]
                   for i in range(4)]
        assert abs(batched - float(np.mean(singles))) < 1e-12

    def test_gradient_reaches_query_only(self):
        """The returned gradient is the query's: the keys and the negatives
        are constants, and none of them is changed."""
        rng = np.random.default_rng(7)
        q = unit_rows(rng.normal(size=(3, 5)))
        k_plus = unit_rows(rng.normal(size=(3, 5)))
        negatives = unit_rows(rng.normal(size=(8, 5)))
        before = (q.copy(), k_plus.copy(), negatives.copy())
        dq = info_nce(q, k_plus, negatives, tau=0.2)[1]()
        assert dq.shape == q.shape and np.abs(dq).max() > 0
        for was, now in zip(before, (q, k_plus, negatives)):
            np.testing.assert_array_equal(was, now)

    @pytest.mark.parametrize("k", [1, 11])
    def test_gradient_through_l2_normalize_matches_finite_differences(self, k):
        """K = 1 and K > B: the closed-form backward against the fd oracle."""
        rng = np.random.default_rng(9 + k)
        raw = rng.normal(size=(4, 6))
        k_plus = unit_rows(rng.normal(size=(4, 6)))
        negatives = unit_rows(rng.normal(size=(k, 6)))

        def loss():
            return info_nce(ad.l2_normalize(raw)[0], k_plus, negatives, tau=0.3)[0]

        q, back = ad.l2_normalize(raw)
        grad = back(info_nce(q, k_plus, negatives, tau=0.3)[1]())
        check_grads(loss, [(raw, grad)])

    @pytest.mark.parametrize("tau, batch", [(1.0, 128), (0.07, 128), (1.0, 48), (0.07, 48)],
                             ids=["raw-tau-1", "unit-tau-0.07", "raw-tau-1-B48",
                                  "unit-tau-0.07-B48"])
    def test_matches_the_out_of_place_reference_bytes(self, tau, batch):
        """The one score buffer, the 1/tau scalings skipped at tau = 1 and
        the loss's sum divided by B change no rounding: loss and gradient
        equal the out-of-place evaluation to the byte, and no input changes.
        Dividing the (B, D) GEMM result by the row sums, not the (B, K+1)
        softmax, moves the gradient by rounding alone: it stays within
        1e-12 of its largest entry from the softmax form. B = 48 is the last
        batch of pretrain's 1,200 contrastive rows at B = 64, a batch that
        is no power of two."""
        inputs = critic_batch(tau, batch)
        before = tuple(a.copy() for a in inputs)
        loss, grad = info_nce(*inputs, tau)
        dq = grad()
        ref_loss, ref_dq = reference_info_nce(*before, tau)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert dq.tobytes() == ref_dq.tobytes()
        for was, now in zip(before, inputs):
            assert was.tobytes() == now.tobytes()
        softmax_dq = softmax_reference_dq(*before, tau)
        assert np.abs(dq - softmax_dq).max() <= 1e-12 * np.abs(dq).max()

    def test_one_score_buffer_per_call(self):
        """At the MI critic's B = 128, K = 256, D = 8, one call, its gradient
        formed, peaks at little more than its one (B, K+1) float64 score buffer."""
        inputs = critic_batch(1.0)
        info_nce(*inputs, tau=1.0)[1]()  # warm any first-call allocations
        tracemalloc.start()
        try:
            info_nce(*inputs, tau=1.0)[1]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 128 * 257 * 8


class TestContrastiveConfig:
    def test_batch_larger_than_the_queue_trains(self, toy_setup, monkeypatch):
        """A batch of 16 against a queue of 8 trains, and every step scores
        against the 8 newest keys."""
        seen = []

        def spy(q, k_plus, negatives, tau):
            seen.append(negatives.shape[0])
            return info_nce(q, k_plus, negatives, tau)

        monkeypatch.setattr(contrastive, "info_nce", spy)
        _, history = toy_pretrain(*toy_setup, seed=0, queue_size=8, batch_size=16, epochs=2)
        assert len(history) == 2
        assert all(math.isfinite(loss) for _, _, loss in history)
        assert seen and set(seen) == {8}


@pytest.fixture(scope="module")
def toy_setup():
    """Small dataset plus frozen teacher for fast pre-training runs."""
    ds = make_dataset(DatagenSection(n=320), seed=31)
    teacher, _, _ = pretrain_vision(
        ds, VisionSection(epochs=30, lr=0.01, momentum=0.9, weight_decay=1e-4,
                          batch_size=16, holdout_fraction=0.2),
        hidden=[64], embed_dim=32, seed=31)
    return ds, teacher


TOY_CFG = ContrastiveSection(tau=0.07, queue_size=64, batch_size=16, epochs=8, lr=0.03,
                             momentum=0.9, weight_decay=1e-4)


def toy_pretrain(ds, vision, seed, **changes):
    """``pretrain`` of a 64-unit radar encoder, which embeds to the teacher's
    width, under TOY_CFG with ``changes``."""
    return pretrain(ds, vision, replace(TOY_CFG, **changes), seed, hidden=(64,))


class TestPretrain:
    def test_queue_larger_than_split_rejected(self, toy_setup):
        ds, teacher = toy_setup
        with pytest.raises(InputError, match=r"^contrastive split \(\d+\) smaller than the "
                                             r"queue \(4096\)$"):
            toy_pretrain(ds, teacher, seed=0, queue_size=4096, batch_size=16)

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
        _, history = toy_pretrain(ds, teacher, seed=0)
        _, [(_, _, start)] = toy_pretrain(ds, teacher, seed=0, epochs=1, lr=0.0)
        uniform = math.log(TOY_CFG.queue_size + 1)
        losses = [loss for _, _, loss in history]
        assert uniform <= start
        assert losses[0] <= 1.10 * start
        assert losses[-1] < losses[0]
        assert losses[-1] < uniform

    def test_info_nce_gets_equal_query_and_key_shapes_and_full_width_negatives(
            self, toy_setup, monkeypatch):
        """Every step scores (B, 32) queries against their own (B, 32) keys and
        the queue's 64 keys of width 32: info_nce takes them unchecked."""
        seen = []

        def spy(q, k_plus, negatives, tau):
            seen.append((q.shape, k_plus.shape, negatives.shape))
            return info_nce(q, k_plus, negatives, tau)

        monkeypatch.setattr(contrastive, "info_nce", spy)
        toy_pretrain(*toy_setup, seed=0, epochs=1)
        assert seen
        assert all(q == k and q[1] == 32 and negatives == (TOY_CFG.queue_size, 32)
                   for q, k, negatives in seen)

    def test_the_encoder_embeds_to_the_teachers_width(self, toy_setup):
        """A teacher that embeds to 24 gives a radar encoder of 24 outputs."""
        ds, _ = toy_setup
        teacher = init_encoder([ds.images[0].size, 24], seed=8)
        teacher.freeze()
        encoder, _ = toy_pretrain(ds, teacher, seed=0, epochs=1)
        assert encoder.dims == [ds.heatmaps[0].size, 64, 24]

    def test_same_seed_identical_history(self, toy_setup):
        ds, teacher = toy_setup
        enc_a, history_a = toy_pretrain(ds, teacher, seed=5)
        enc_b, history_b = toy_pretrain(ds, teacher, seed=5)
        assert history_a == history_b
        assert enc_a.data.tobytes() == enc_b.data.tobytes()

    def test_vision_params_untouched(self, toy_setup):
        ds, teacher = toy_setup
        before = teacher.data.tobytes()
        toy_pretrain(ds, teacher, seed=2)
        assert teacher.data.tobytes() == before

    def test_history_lr_follows_cosine(self, toy_setup):
        ds, teacher = toy_setup
        _, history = toy_pretrain(ds, teacher, seed=3)
        lrs = [lr for _, lr, _ in history]
        assert lrs[0] == TOY_CFG.lr
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestEncodeKeys:
    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    def test_a_zero_or_non_finite_embedding_is_a_numeric_error(self, value):
        vision = init_encoder([4, 3], seed=0)
        vision.freeze()
        vision.data[:] = value
        with pytest.raises(NumericError, match="^the vision encoder embeds image 0 to "
                                               "a vector of norm"):
            encode_keys(vision, np.ones((2, 4)))

    def test_keys_are_unit_norm(self, toy_setup):
        ds, teacher = toy_setup
        keys = encode_keys(teacher, ds.image_inputs(np.arange(10)))
        np.testing.assert_allclose(np.linalg.norm(keys, axis=1), 1.0, atol=1e-9)

    def test_encoding_is_deterministic(self, toy_setup):
        ds, teacher = toy_setup
        imgs = ds.image_inputs(np.arange(10))
        a = encode_keys(teacher, imgs, batch=4)
        b = encode_keys(teacher, imgs, batch=4)
        assert a.tobytes() == b.tobytes()

    def test_batch_size_changes_only_rounding(self, toy_setup):
        ds, teacher = toy_setup
        imgs = ds.image_inputs(np.arange(10))
        np.testing.assert_allclose(encode_keys(teacher, imgs, batch=3),
                                   encode_keys(teacher, imgs, batch=100),
                                   atol=1e-12)
