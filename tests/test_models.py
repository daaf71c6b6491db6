"""Encoder, optimizer, schedule, vision-teacher and checkpoint tests."""

import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from xmc import autodiff as ad
from xmc import models
from xmc.config import DatagenSection, VisionSection
from xmc.datagen import make_dataset
from xmc.errors import InputError, NumericError, XmcError
from xmc.evaluation import pretrain_vision
from xmc.models import (
    SGD_BLOCK,
    EncoderModel,
    cosine_lr,
    cross_entropy,
    fit,
    init_encoder,
    init_head,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
    sgd_step,
    train_classifier,
    xavier_uniform,
)
from xmc.seeding import derive_seed, rng_for

from helpers import check_grads, dense_grad, load_overlay


class TestEncoderForward:
    def test_zero_weight_model_embeds_to_zero(self):
        m = init_encoder([6, 4, 3], seed=0)
        for w in m.weights:
            w[:] = 0.0
        out, _ = m.forward(np.random.default_rng(0).normal(size=(2, 6)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_frozen_model_gets_no_gradients(self):
        """fit, the one caller of the backward pass, refuses a frozen model."""
        m = init_encoder([5, 4, 3], seed=1)
        m.freeze()
        before = m.data.tobytes()
        x = np.random.default_rng(1).normal(size=(3, 5))
        with pytest.raises(XmcError, match="^cannot train a frozen model$") as err:
            list(fit([m], x, lambda out, sel: cross_entropy(out, sel), epochs=1,
                     order_rng=np.random.default_rng(1), **FIT_KW))
        assert err.type is XmcError
        assert m.grad is None
        assert m.data.tobytes() == before

    @staticmethod
    def gradcheck_two_layers(input_grad: bool):
        m = init_encoder([4, 6, 3], seed=2)
        x = np.random.default_rng(2).normal(size=(3, 4))
        labels = np.array([2, 0, 2])

        def f():
            return cross_entropy(m.forward(x)[0], labels)[0]

        out, acts = m.forward(x)
        dx = ad.backward(m, acts, cross_entropy(out, labels)[1], input_grad)
        check_grads(f, [(m.data, dense_grad(m))] + ([(x, dx)] if input_grad else []))

    def test_gradcheck_through_two_layer_encoder(self):
        self.gradcheck_two_layers(input_grad=False)

    def test_gradcheck_through_two_layer_encoder_with_input_grad(self):
        self.gradcheck_two_layers(input_grad=True)

    def test_gradcheck_through_encoder_and_head(self):
        """The probe/fine-tune chain: the head's input gradient feeds the
        encoder's backward."""
        rng = np.random.default_rng(8)
        enc = init_encoder([5, 6, 4], seed=8)
        head = init_encoder([4, 3], seed=9)  # random, so the head passes signal back
        x = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 1, 2])

        def f():
            return cross_entropy(head.forward_numpy(enc.forward_numpy(x)), labels)[0]

        feats, enc_acts = enc.forward(x)
        logits, head_acts = head.forward(feats)
        g = ad.backward(head, head_acts, cross_entropy(logits, labels)[1], input_grad=True)
        dx = ad.backward(enc, enc_acts, g, input_grad=True)
        check_grads(f, [(head.data, dense_grad(head)), (enc.data, dense_grad(enc)), (x, dx)])

    def test_forward_numpy_matches_graph_forward(self):
        m = init_encoder([7, 5, 4], seed=3)
        x = np.random.default_rng(3).normal(size=(6, 7))
        out, acts = m.forward(x)
        np.testing.assert_array_equal(out, m.forward_numpy(x))
        assert [a.shape for a in acts] == [(6, 7), (6, 5)]

    def test_in_place_forward_matches_the_out_of_place_reference_bytes(self):
        """The bias add and relu run in place on each fresh GEMM output: the
        output and every stored layer input equal an out-of-place forward to
        the byte, the caller's batch is kept as the first, and a second
        forward leaves the first call's arrays as they were."""
        m = init_encoder([7, 5, 6, 4], seed=12)
        m.data[:] = np.random.default_rng(12).normal(size=m.data.shape)  # non-zero biases
        x, x2 = np.random.default_rng(13).normal(size=(2, 9, 7))
        x_before = x.copy()
        out, acts = m.forward(x)
        ref_acts, h = [], x
        for i, (w, b) in enumerate(zip(m.weights, m.biases)):
            ref_acts.append(h)
            h = h @ w + b[None, :]
            if i < len(m.weights) - 1:
                h = np.maximum(h, 0.0)
        assert out.tobytes() == h.tobytes()
        assert [a.tobytes() for a in acts] == [a.tobytes() for a in ref_acts]
        assert acts[0] is x and x.tobytes() == x_before.tobytes()
        kept = [a.copy() for a in (out, *acts)]
        m.forward(x2)
        assert [a.tobytes() for a in (out, *acts)] == [a.tobytes() for a in kept]

    def test_init_is_seeded_and_xavier_bounded(self):
        a = init_encoder([10, 8], seed=4)
        b = init_encoder([10, 8], seed=4)
        np.testing.assert_array_equal(a.weights[0], b.weights[0])
        bound = math.sqrt(6.0 / 18.0)
        assert np.abs(a.weights[0]).max() <= bound
        assert np.all(a.biases[0] == 0.0)


def unit(w: float, b: float) -> EncoderModel:
    """A 1 -> 1 layer: its parameter vector is [w, b]."""
    return EncoderModel([1, 1], np.array([w, b]))


def unit_grad(gw: float, gb: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(a, g)`` pair of a 1 -> 1 layer whose weight gradient a.T @ g is
    gw and whose bias gradient g.sum(0) is gb, over two samples."""
    return [(np.array([[1.0], [0.0]]), np.array([[gw], [gb - gw]]))]


def random_grads(chain: list[EncoderModel], batch: int,
                 rng: np.random.Generator) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Random ``(a, g)`` pairs, one per layer of each model, for a batch."""
    return [[(rng.normal(size=(batch, w.shape[0])), rng.normal(size=(batch, w.shape[1])))
             for w in m.weights] for m in chain]


class TestSgd:
    def test_plain_gradient_descent(self):
        p = unit(1.0, 2.0)
        p.grad = unit_grad(0.5, -0.5)
        st = make_optimizer([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step([p], st)
        np.testing.assert_allclose(p.data, [0.95, 2.05])
        assert p.grad is None  # used once, then cleared

    def test_first_momentum_step(self):
        p = unit(2.0, 0.0)
        p.grad = unit_grad(1.0, 0.0)
        st = make_optimizer([p], lr=0.1, momentum=0.9, weight_decay=0.01)
        sgd_step([p], st)
        v = 1.0 + 0.01 * 2.0
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * v, 0.0])

    def test_two_hand_computed_steps(self):
        # scalar recurrence: v_t = m v_{t-1} + (g + wd p); p -= lr v_t
        p = unit(1.0, 0.0)
        st = make_optimizer([p], lr=0.2, momentum=0.5, weight_decay=0.1)
        p.grad = unit_grad(0.3, 0.0)
        sgd_step([p], st)
        v1 = 0.3 + 0.1 * 1.0
        p1 = 1.0 - 0.2 * v1
        np.testing.assert_allclose(p.data, [p1, 0.0])
        p.grad = unit_grad(-0.2, 0.0)
        sgd_step([p], st)
        v2 = 0.5 * v1 + (-0.2 + 0.1 * p1)
        np.testing.assert_allclose(p.data, [p1 - 0.2 * v2, 0.0])

    def test_the_optimizer_holds_one_zero_velocity_per_model(self):
        """One velocity per model, shaped like its parameter vector: sgd_step
        zips the two lists unchecked."""
        chain = [init_encoder([3, 4, 2], seed=0), init_head(2, 3)]
        st = make_optimizer(chain, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert len(st.velocities) == len(chain)
        for p, v in zip(chain, st.velocities):
            assert v.shape == p.data.shape and not v.any()

    def test_lr_zero_leaves_params_unchanged(self):
        p = unit(1.0, -1.0)
        p.grad = unit_grad(5.0, 5.0)
        st = make_optimizer([p], lr=0.0, momentum=0.9, weight_decay=0.1)
        sgd_step([p], st)
        np.testing.assert_array_equal(p.data, [1.0, -1.0])

    def test_pure_weight_decay_shrinkage(self):
        p = unit(2.0, 0.0)
        p.grad = unit_grad(0.0, 0.0)
        st = make_optimizer([p], lr=0.1, momentum=0.0, weight_decay=0.05)
        sgd_step([p], st)
        np.testing.assert_allclose(p.data, [2.0 * (1.0 - 0.1 * 0.05), 0.0])

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_three_steps_of_a_chain_match_the_reference_bytes(self, wd):
        """Each model of a two-model chain follows v = m*v + (g + wd*p);
        p = p - lr*v, computed here on fresh arrays from the dense gradient,
        to the byte. The first model spans two blocks of the step."""
        rng = np.random.default_rng(40)
        chain = [init_encoder([200, 180, 3], seed=40), init_encoder([3, 2], seed=41)]
        assert SGD_BLOCK < chain[0].data.size < 2 * SGD_BLOCK
        ref_p = [m.data.copy() for m in chain]
        ref_v = [np.zeros_like(p) for p in ref_p]
        st = make_optimizer(chain, lr=0.1, momentum=0.9, weight_decay=wd)
        for lr in (0.1, 0.05, 0.025):
            for m, pairs in zip(chain, random_grads(chain, 8, rng)):
                m.grad = pairs
            grads = [dense_grad(m) for m in chain]
            sgd_step(chain, st, lr=lr)
            for j, g in enumerate(grads):
                ref_v[j] = 0.9 * ref_v[j] + (g + wd * ref_p[j])
                ref_p[j] = ref_p[j] - lr * ref_v[j]
            assert [m.data.tobytes() for m in chain] == [p.tobytes() for p in ref_p]
            assert [v.tobytes() for v in st.velocities] == [v.tobytes() for v in ref_v]

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_step_consumes_the_gradient(self, wd):
        """Neither the parameters nor the velocity may keep a reference to
        the spent ``(a, g)`` pairs."""
        model = init_encoder([200, 180, 3], seed=42)
        assert model.data.size > SGD_BLOCK
        st = make_optimizer([model], lr=0.1, momentum=0.9, weight_decay=wd)
        (pairs,) = random_grads([model], 8, np.random.default_rng(42))
        model.grad = pairs
        sgd_step([model], st)
        assert model.grad is None
        data, velocity = model.data.copy(), st.velocities[0].copy()
        for a, g in pairs:
            a[:] = 1e6
            g[:] = 1e6
        np.testing.assert_array_equal(model.data, data)
        np.testing.assert_array_equal(st.velocities[0], velocity)


    @pytest.mark.parametrize("batch", [8, 64])
    @pytest.mark.parametrize("dims", [[1024, 256, 256, 128], [257, 128]],
                             ids=["default", "one-row-remainder"])
    def test_row_blocks_match_a_dense_step_to_the_byte(self, dims, batch):
        """Three cross-entropy steps through an encoder and a 4-class head
        match steps on the dense gradient (a.T @ g whole, then g.sum(0)) to
        the byte. The default encoder's first two layers span several row
        blocks; in [257, 128] a split every SGD_BLOCK // 128 = 256 rows would
        leave a one-row block, which numpy sends to gemv."""
        rng = np.random.default_rng(50)
        chain = [init_encoder(dims, seed=50), init_encoder([dims[-1], 4], seed=51)]
        assert chain[0].weights[0].size > SGD_BLOCK
        ref_p = [m.data.copy() for m in chain]
        ref_v = [np.zeros_like(p) for p in ref_p]
        st = make_optimizer(chain, lr=0.03, momentum=0.9, weight_decay=1e-4)
        for _ in range(3):
            feats, enc_acts = chain[0].forward(rng.normal(size=(batch, dims[0])))
            logits, head_acts = chain[1].forward(feats)
            _, g = cross_entropy(logits, rng.integers(0, 4, size=batch))
            g = ad.backward(chain[1], head_acts, g, input_grad=True)
            ad.backward(chain[0], enc_acts, g)
            grads = [dense_grad(m) for m in chain]
            sgd_step(chain, st)
            for j, g in enumerate(grads):
                ref_v[j] = 0.9 * ref_v[j] + (g + 1e-4 * ref_p[j])
                ref_p[j] = ref_p[j] - 0.03 * ref_v[j]
            assert [m.data.tobytes() for m in chain] == [p.tobytes() for p in ref_p]
            assert [v.tobytes() for v in st.velocities] == [v.tobytes() for v in ref_v]

    def test_the_whole_gradient_is_never_formed(self):
        """backward plus sgd_step on the default encoder at B = 8 peaks far
        below the 2.9 MB that its whole gradient vector would take."""
        enc = init_encoder([1024, 256, 256, 128], seed=52)
        assert 8 * enc.data.size > 2.8e6
        st = make_optimizer([enc], lr=0.03, momentum=0.9, weight_decay=1e-4)
        out, acts = enc.forward(np.random.default_rng(52).normal(size=(8, 1024)))
        g = np.full_like(out, 1.0 / 8)
        tracemalloc.start()
        try:
            ad.backward(enc, acts, g)
            sgd_step([enc], st)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak} B"


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 10, 0.03) == 0.03
        assert abs(cosine_lr(10, 10, 0.03)) < 1e-18
        assert math.isclose(cosine_lr(5, 10, 0.03), 0.015)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(t, 50, 1.0) for t in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSoftmaxAndCrossEntropy:
    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(5).normal(size=(10, 4)) * 30
        _, sums = ad.logsumexp_row(z)
        np.testing.assert_allclose((z / sums).sum(axis=1), 1.0, atol=1e-9)

    def test_cross_entropy_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 4))
        labels = np.array([0, 3, 1, 1, 2])
        grad = cross_entropy(logits, labels)[1]
        check_grads(lambda: cross_entropy(logits, labels)[0], [(logits, grad)])

    def test_cross_entropy_leaves_its_logits_unchanged(self):
        logits = np.random.default_rng(8).normal(size=(8, 4))
        before = logits.copy()
        cross_entropy(logits, np.array([0, 1, 2, 3, 3, 2, 1, 0]))
        assert logits.tobytes() == before.tobytes()

    def test_cross_entropy_matches_numpy_path(self):
        """The loss is the mean of -log softmax at the label column."""
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(8, 4))
        labels = rng.integers(0, 4, size=8)
        log_softmax = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        naive = -log_softmax[np.arange(8), labels].mean()
        assert math.isclose(cross_entropy(logits, labels)[0], naive, rel_tol=1e-12)

    @pytest.mark.parametrize("batch", [8, 5, 64])
    def test_cross_entropy_loss_matches_the_mean_form_bytes(self, batch):
        """The loss, a sum over the batch divided by B, rounds as ``mean``
        does; the gradient is unchanged."""
        rng = np.random.default_rng(batch)
        logits = rng.normal(size=(batch, 4)) * 3.0
        labels = rng.integers(0, 4, size=batch)
        rows = np.arange(batch)
        d = logits.copy()
        lse, sums = ad.logsumexp_row(d)
        ref = float((lse - logits[rows, labels]).mean())
        d /= sums
        d *= 1.0 / batch
        d[rows, labels] -= 1.0 / batch
        loss, grad = cross_entropy(logits, labels)
        assert np.float64(loss).tobytes() == np.float64(ref).tobytes()
        assert grad.tobytes() == d.tobytes()

    @pytest.mark.parametrize("batch", [8, 12])
    def test_cross_entropy_matches_the_out_of_place_bytes(self, batch):
        """Loss and gradient equal an out-of-place evaluation to the byte:
        the softmax exp(x - max) / sums, times 1/B, minus 1/B at the labels.
        So the classifiers (teacher, probe, fine-tune, baseline) train on the
        same bytes however the logsumexp kernel splits its work. B = 12 is no
        power of two."""
        rng = np.random.default_rng(100 + batch)
        logits = rng.normal(size=(batch, 4)) * 3.0
        labels = rng.integers(0, 4, size=batch)
        rows = np.arange(batch)
        mx = logits.max(axis=1, keepdims=True)
        ex = np.exp(logits - mx)
        sums = ex.sum(axis=1, keepdims=True)
        ref_loss = float(((mx + np.log(sums)).reshape(-1) - logits[rows, labels]).mean())
        ref_grad = ex / sums * (1.0 / batch)
        ref_grad[rows, labels] -= 1.0 / batch
        loss, grad = cross_entropy(logits, labels)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_uniform_logits_loss_is_log_c(self):
        labels = np.array([0, 1, 2, 3])
        loss, _ = cross_entropy(np.zeros((4, 4)), labels)
        assert math.isclose(loss, math.log(4.0), rel_tol=1e-12)


def zero_loss(out, sel):
    return 0.0, np.zeros_like(out)


FIT_KW = dict(batch_size=2, lr=0.1, momentum=0.9, weight_decay=0.0, cosine=False)


class TestFit:
    def test_non_finite_loss_names_epoch_and_sample_and_skips_the_step(self):
        enc = init_encoder([3, 4, 2], seed=30)
        x = np.random.default_rng(30).normal(size=(7, 3))
        calls = []

        def loss(out, sel):
            calls.append(enc.data.tobytes())
            # batches start at samples 0, 2, 4 and 6: call 7 is epoch 1's third
            if len(calls) == 7:
                return math.nan, np.ones_like(out)
            return cross_entropy(out, sel % 2)

        with pytest.raises(NumericError, match=r"epoch 1, sample 4"):
            list(fit([enc], x, loss, epochs=3, order_rng=np.random.default_rng(0),
                     **FIT_KW))
        assert calls[0] != calls[-1]  # earlier steps did train
        assert enc.data.tobytes() == calls[-1]

    def test_each_epoch_visits_a_fresh_rng_permutation(self):
        enc = init_encoder([3, 2], seed=31)
        x = np.random.default_rng(31).normal(size=(6, 3))
        seen = []

        def loss(out, sel):
            seen.append(sel.copy())
            return zero_loss(out, sel)

        list(fit([enc], x, loss, epochs=3, order_rng=np.random.default_rng(9),
                 **{**FIT_KW, "batch_size": 6}))
        rng = np.random.default_rng(9)
        assert [s.tolist() for s in seen] == [rng.permutation(6).tolist() for _ in range(3)]

    def test_yields_epoch_lr_and_sample_weighted_mean_loss(self):
        enc = init_encoder([3, 2], seed=32)
        x = np.zeros((5, 3))

        def loss(out, sel):  # batches of 2, 2 and 1 samples
            return float(len(sel)), np.zeros_like(out)

        constant = list(fit([enc], x, loss, epochs=2,
                            order_rng=np.random.default_rng(0), **FIT_KW))
        assert constant == [(0, 0.1, 1.8), (1, 0.1, 1.8)]
        cosine = list(fit([enc], x, loss, epochs=2, order_rng=np.random.default_rng(0),
                          **{**FIT_KW, "cosine": True}))
        assert [lr for _, lr, _ in cosine] == [cosine_lr(0, 2, 0.1), cosine_lr(1, 2, 0.1)]

    def test_frozen_model_in_the_chain_raises_before_any_step(self):
        enc = init_encoder([3, 2], seed=33)
        enc.freeze()
        head = init_encoder([2, 4], seed=34)
        before = head.data.tobytes() + enc.data.tobytes()
        calls = []

        def loss(out, sel):
            calls.append(sel)
            return zero_loss(out, sel)

        with pytest.raises(XmcError, match="^cannot train a frozen model$") as err:
            list(fit([enc, head], np.ones((4, 3)), loss, epochs=1,
                     order_rng=np.random.default_rng(0), **FIT_KW))
        assert err.type is XmcError
        assert calls == []
        assert head.data.tobytes() + enc.data.tobytes() == before

    def test_backward_gets_a_gradient_shaped_like_each_models_output(self, monkeypatch):
        """The loss gradient has the chain output's shape and each input
        gradient that of the model before it, on a short last batch too:
        backward takes the shape unchecked."""
        x = np.random.default_rng(37).normal(size=(7, 5))
        labels = np.arange(7) % 3
        chain = [init_encoder([5, 6, 4], seed=37), init_encoder([4, 2], seed=38),
                 init_head(2, 3)]
        backward, seen = ad.backward, []

        def spy(model, acts, g, input_grad=False):
            seen.append((g.shape, (len(acts[0]), model.dims[-1])))
            return backward(model, acts, g, input_grad=input_grad)

        monkeypatch.setattr(ad, "backward", spy)
        list(fit(chain, x, lambda out, sel: cross_entropy(out, labels[sel]), epochs=2,
                 order_rng=np.random.default_rng(0), **{**FIT_KW, "batch_size": 3}))
        assert len(seen) == 2 * 3 * len(chain)  # epochs x batches x models
        assert all(got == want for got, want in seen)
        assert {rows for (rows, _), _ in seen} == {3, 1}

    def test_every_model_has_its_gradient_at_each_step(self, monkeypatch):
        """fit runs backward on the whole chain before each sgd_step, which
        uses every model's gradient unchecked."""
        chain = [init_encoder([3, 4], seed=39), init_head(4, 2)]
        step, seen = models.sgd_step, []

        def spy(params, state, lr=None):
            seen.append([p.grad is not None for p in params])
            return step(params, state, lr)

        monkeypatch.setattr(models, "sgd_step", spy)
        list(fit(chain, np.ones((5, 3)), lambda out, sel: cross_entropy(out, sel % 2),
                 epochs=2, order_rng=np.random.default_rng(0), **FIT_KW))
        assert seen == [[True, True]] * 6  # 2 epochs of batches of 2, 2 and 1
        assert all(p.grad is None for p in chain)

    def test_one_step_through_a_chain_matches_manual_backprop(self):
        x = np.random.default_rng(35).normal(size=(4, 5))
        labels = np.array([0, 2, 1, 2])
        enc, head = init_encoder([5, 6, 4], seed=35), init_encoder([4, 3], seed=36)
        ref_enc, ref_head = enc.copy(), head.copy()

        list(fit([enc, head], x, lambda out, sel: cross_entropy(out, labels[sel]),
                 epochs=1, order_rng=np.random.default_rng(0),
                 **{**FIT_KW, "batch_size": 4, "weight_decay": 0.01}))

        order = np.random.default_rng(0).permutation(4)
        feats, enc_acts = ref_enc.forward(x[order])
        logits, head_acts = ref_head.forward(feats)
        g = ad.backward(ref_head, head_acts, cross_entropy(logits, labels[order])[1],
                        input_grad=True)
        ad.backward(ref_enc, enc_acts, g)
        sgd_step([ref_enc, ref_head], make_optimizer([ref_enc, ref_head], 0.1, 0.9, 0.01))
        assert enc.data.tobytes() == ref_enc.data.tobytes()
        assert head.data.tobytes() == ref_head.data.tobytes()


def classifier_task(n: int, fan_in: int = 64, seed: int = 40):
    """n rows of fan_in inputs, each a random mix of eight directions plus
    small noise, so that the rows' span is ill-conditioned, and labels of
    four classes."""
    rng = np.random.default_rng(seed)
    mix = rng.normal(size=(8, fan_in)) / math.sqrt(8 * fan_in)
    x = rng.normal(size=(n, 8)) @ mix + 0.01 * rng.normal(size=(n, fan_in))
    return x, np.arange(n) % 4


def classifier_chain(fan_in: int, hidden: list[int]) -> list[EncoderModel]:
    """An encoder of ``hidden`` layers and 8 outputs, and a head seeded non-zero,
    so that every layer gets a gradient from the first step."""
    head = init_encoder([8, 4], seed=42)
    return [init_encoder([fan_in, *hidden, 8], seed=41), head]


CLASSIFIER_KW = dict(epochs=12, lr=0.1, momentum=0.9, batch_size=4, seed=43)


def reference_classifier(chain, x, labels, weight_decay):
    """The explicit path: fit of the whole chain, every layer at full width."""
    return list(fit(chain, x, lambda out, sel: cross_entropy(out, labels[sel]),
                    epochs=CLASSIFIER_KW["epochs"], batch_size=CLASSIFIER_KW["batch_size"],
                    lr=CLASSIFIER_KW["lr"], momentum=CLASSIFIER_KW["momentum"],
                    weight_decay=weight_decay, cosine=False,
                    order_rng=rng_for(CLASSIFIER_KW["seed"], "classifier-order")))


class TestTrainClassifier:
    @pytest.mark.parametrize("hidden, weight_decay", [([16], 0.0), ([16], 0.01), ([], 0.01)],
                             ids=["wd-0", "wd-0.01", "one-layer-encoder"])
    def test_fewer_rows_than_inputs_follow_the_explicit_path(self, hidden, weight_decay):
        """14 rows of 64 inputs: the first layer trains in the rows' span, and
        the losses, every weight and the predictions match a fit of the full
        chain up to rounding. Weight decay moves W1 outside the span too."""
        x, labels = classifier_task(14)
        chain = classifier_chain(64, hidden)
        ref = [m.copy() for m in chain]
        ref_history = reference_classifier(ref, x, labels, weight_decay)
        history = train_classifier(chain, x, labels, weight_decay=weight_decay,
                                   **CLASSIFIER_KW)
        assert isinstance(history, list) and len(history) == CLASSIFIER_KW["epochs"]
        assert [h[:2] for h in history] == [h[:2] for h in ref_history]
        np.testing.assert_allclose([h[2] for h in history], [h[2] for h in ref_history],
                                   rtol=1e-12, atol=0)
        for model, want in zip(chain, ref):
            assert model.dims == want.dims
            assert np.abs(model.data - want.data).max() <= 1e-12 * np.abs(want.data).max()
        assert chain[0].data.tobytes() != ref[0].data.tobytes()  # a path of its own
        probe_x = classifier_task(50, seed=44)[0]
        logits = [h.forward_numpy(e.forward_numpy(probe_x)) for e, h in (chain, ref)]
        np.testing.assert_array_equal(logits[0].argmax(axis=1), logits[1].argmax(axis=1))

    @pytest.mark.parametrize("n", [64, 70])
    def test_as_many_rows_as_inputs_train_the_chain_itself(self, n):
        """n >= fan_in: the span is the whole input space, and every byte is
        the explicit path's."""
        x, labels = classifier_task(n)
        chain = classifier_chain(64, [16])
        ref = [m.copy() for m in chain]
        assert train_classifier(chain, x, labels, weight_decay=0.01,
                                **CLASSIFIER_KW) == reference_classifier(ref, x, labels, 0.01)
        for model, want in zip(chain, ref):
            assert model.data.tobytes() == want.data.tobytes()

    def test_every_model_fit_trains_holds_a_vector_n_params_long(self, monkeypatch):
        """The model of the first layer in the rows' span as well as the
        chain itself: _views slices the vector unchecked."""
        train, seen = models.fit, []

        def spy(chain, *args, **kwargs):
            seen.append([(m.dims, m.data.shape) for m in chain])
            return train(chain, *args, **kwargs)

        monkeypatch.setattr(models, "fit", spy)
        for n in (14, 70):
            x, labels = classifier_task(n)
            train_classifier(classifier_chain(64, [16]), x, labels, weight_decay=0.0,
                             **{**CLASSIFIER_KW, "epochs": 1})
        assert [[dims for dims, _ in chain] for chain in seen] == [
            [[14, 16, 8], [8, 4]], [[64, 16, 8], [8, 4]]]
        assert all(shape == (sum((a + 1) * b for a, b in zip(dims, dims[1:])),)
                   for chain in seen for dims, shape in chain)

    def test_a_frozen_first_model_is_refused_before_any_step(self):
        x, labels = classifier_task(6)
        chain = classifier_chain(64, [16])
        chain[0].freeze()
        before = [m.data.tobytes() for m in chain]
        with pytest.raises(XmcError, match="^cannot train a frozen model$"):
            train_classifier(chain, x, labels, weight_decay=0.0, **CLASSIFIER_KW)
        assert [m.data.tobytes() for m in chain] == before


@pytest.fixture(scope="module")
def small_dataset():
    return make_dataset(DatagenSection(n=400), seed=17)


class TestVisionPretrain:
    def test_freeze_contract_after_training_step(self, small_dataset):
        ds = small_dataset
        model, _, _ = pretrain_vision(
            ds, VisionSection(epochs=2, lr=0.01, momentum=0.9, weight_decay=1e-4,
                              batch_size=32, holdout_fraction=0.2),
            hidden=[32], embed_dim=16, seed=1)
        assert model.frozen
        before = model.data.tobytes()
        labels = ds.labels[ds.test_idx[:8]]
        with pytest.raises(XmcError, match="^cannot train a frozen model$") as err:
            list(fit([model, init_head(16, 4)], ds.image_inputs(ds.test_idx[:8]),
                     lambda out, sel: cross_entropy(out, labels[sel]), epochs=1,
                     order_rng=np.random.default_rng(1), **FIT_KW))
        assert err.type is XmcError
        assert model.data.tobytes() == before

    def test_random_frozen_mode_returns_untrained_frozen(self, small_dataset):
        """The ablation teacher reads no image row and measures no holdout
        accuracy."""
        class Unread:
            shape = small_dataset.images.shape

            def __getitem__(self, key):
                raise AssertionError("the ablation teacher gathered an image row")

        cfg = VisionSection(mode="random-frozen", epochs=5, lr=0.01, momentum=0.9,
                            weight_decay=0.0, batch_size=32, holdout_fraction=0.2)
        frozen, accuracy, train_loss = pretrain_vision(
            replace(small_dataset, images=Unread()), cfg, hidden=[32], embed_dim=16, seed=2)
        fresh = init_encoder([math.prod(Unread.shape[1:]), 32, 16],
                             derive_seed(2, "vision-encoder"))
        assert frozen.frozen
        assert frozen.data.tobytes() == fresh.data.tobytes()
        assert (accuracy, train_loss) == (None, [])

    def test_unknown_mode_rejected(self):
        """An unknown mode is refused where the config is loaded, so no
        command reaches the teacher (or reads its inputs) with one."""
        with pytest.raises(InputError, match="vision.mode must be 'supervised' or"):
            load_overlay({"vision": {"mode": "imagenet"}})


def checkpoint_bytes(tmp_path, model: EncoderModel) -> bytes:
    """The bytes of ``model``'s checkpoint file."""
    path = tmp_path / "saved.xmck"
    save_checkpoint(path, model)
    return path.read_bytes()


def load_bytes(tmp_path, blob: bytes) -> EncoderModel:
    """``load_checkpoint`` of a file holding ``blob``."""
    path = tmp_path / "blob.xmck"
    path.write_bytes(blob)
    return load_checkpoint(path)


def traced_peak(fn) -> int:
    """The peak of the memory ``tracemalloc`` sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = init_encoder([9, 7, 5], seed=20)
        opt = make_optimizer([model], lr=0.03, momentum=0.9, weight_decay=1e-4)
        model.grad = [(np.ones((1, w.shape[0])), np.ones((1, w.shape[1])))
                      for w in model.weights]  # a gradient of ones
        sgd_step([model], opt)  # non-zero biases, irregular floats
        blob = checkpoint_bytes(tmp_path, model)
        loaded = load_checkpoint(tmp_path / "saved.xmck")
        assert loaded.dims == model.dims
        assert not loaded.frozen
        assert loaded.data.tobytes() == model.data.tobytes()
        assert checkpoint_bytes(tmp_path, loaded) == blob

    def test_magic_and_frozen_flag(self, tmp_path):
        model = init_encoder([3, 2], seed=21)
        model.freeze()
        blob = checkpoint_bytes(tmp_path, model)
        assert blob[:4] == b"XMCK"
        assert struct.unpack("<HBH", blob[4:9]) == (2, 1, 1)
        # dims, then weight (3x2) and bias (2) as f64; nothing after them
        assert len(blob) == 9 + 4 * 2 + 8 * (3 * 2 + 2)
        loaded = load_checkpoint(tmp_path / "saved.xmck")
        assert loaded.frozen

    def test_body_is_per_layer_weight_then_bias(self, tmp_path):
        model = init_encoder([5, 4, 3], seed=26)
        rng = rng_for(26, "encoder-init")
        ws = [xavier_uniform(rng, 5, 4), xavier_uniform(rng, 4, 3)]
        bs = [np.arange(1.0, 5.0) / 7, -np.arange(1.0, 4.0) / 3]
        for view, b in zip(model.biases, bs):
            view[:] = b
        expected = [b"XMCK", struct.pack("<HBH", 2, 0, 2), struct.pack("<3I", 5, 4, 3)]
        for w, b in zip(ws, bs):
            expected += [w.astype("<f8").tobytes(), b.astype("<f8").tobytes()]
        assert checkpoint_bytes(tmp_path, model) == b"".join(expected)

    def test_loaded_parameters_are_writeable_and_own_their_memory(self, tmp_path):
        save_checkpoint(tmp_path / "m.xmck", init_encoder([4, 3, 2], seed=27))
        loaded = load_checkpoint(tmp_path / "m.xmck")
        assert loaded.data.flags.writeable and loaded.data.flags.owndata
        assert all(np.shares_memory(v, loaded.data) for v in loaded.weights + loaded.biases)

    def test_a_write_through_a_weight_view_reaches_the_vector_and_the_bytes(self, tmp_path):
        model = init_encoder([4, 3, 2], seed=28)
        model.weights[1][2, 1] = 0.5
        index = 4 * 3 + 3 + 2 * 2 + 1  # after weight 0 and bias 0, row-major
        value = struct.pack("<d", 0.5)
        assert model.data[index] == 0.5
        assert model.data.tobytes()[8 * index:8 * index + 8] == value
        body = 9 + 4 * 3  # magic, header, three dims
        assert checkpoint_bytes(tmp_path, model)[body + 8 * index:body + 8 * index + 8] == value

    def test_truncation_detected(self, tmp_path):
        blob = checkpoint_bytes(tmp_path, init_encoder([3, 2], seed=22))
        for cut in (1, 4, 8, len(blob) - 4):
            with pytest.raises(InputError, match="^checkpoint truncated$"):
                load_bytes(tmp_path, blob[:-cut])

    def test_trailing_bytes_detected(self, tmp_path):
        blob = checkpoint_bytes(tmp_path, init_encoder([3, 2], seed=24))
        with pytest.raises(InputError, match="^checkpoint has trailing bytes$"):
            load_bytes(tmp_path, blob + b"\x00")

    def test_version_1_rejected(self, tmp_path):
        """A version-1 file (with its trailing optimizer flag) is refused,
        not misread."""
        blob = checkpoint_bytes(tmp_path, init_encoder([3, 2], seed=25))
        v1 = blob[:4] + struct.pack("<H", 1) + blob[6:] + b"\x00"
        with pytest.raises(InputError, match="^unsupported checkpoint version 1$"):
            load_bytes(tmp_path, v1)

    @pytest.mark.parametrize("header, message", [
        (struct.pack("<HBH", 2, 2, 1) + struct.pack("<2I", 3, 2),
         r"^bad checkpoint header \(frozen 2, 1 layers\)$"),
        (struct.pack("<HBH", 2, 0, 0) + struct.pack("<I", 3),
         r"^bad checkpoint header \(frozen 0, 0 layers\)$"),
        (struct.pack("<HBH", 2, 0, 1) + struct.pack("<2I", 3, 0),
         r"^checkpoint layer dims must be positive, got \[3, 0\]$"),
        # 8 * (2**32 - 1)**2 overflows int64: the size must not wrap
        (struct.pack("<HBH", 2, 0, 1) + struct.pack("<2I", 2**32 - 1, 2**32 - 1),
         "^checkpoint truncated$"),
    ], ids=["frozen-flag", "no-layers", "zero-dim", "huge-dims"])
    def test_bad_header_rejected(self, tmp_path, header, message):
        with pytest.raises(InputError, match=message):
            load_bytes(tmp_path, b"XMCK" + header + b"\x00" * 64)

    def test_a_file_that_is_not_a_checkpoint_is_refused_from_its_first_bytes(self, tmp_path):
        """An 8 MB file of zeros: the magic is checked before the rest is read."""
        path = tmp_path / "zeros.xmck"
        with open(path, "wb") as f:
            f.truncate(8 << 20)

        def refuse():
            with pytest.raises(InputError, match=r"^not a checkpoint file \(bad magic\)$"):
                load_checkpoint(path)

        assert traced_peak(refuse) < 64 << 10

    def test_a_load_holds_the_body_once(self, tmp_path):
        """The body is read straight into the parameter vector; only the
        finiteness check's one byte per parameter comes on top of it."""
        model = init_encoder([512, 256, 128], seed=29)
        save_checkpoint(tmp_path / "big.xmck", model)
        body = model.data.nbytes
        del model
        peak = traced_peak(lambda: load_checkpoint(tmp_path / "big.xmck"))
        assert peak < 1.25 * body

    def test_copy_is_independent(self):
        model = init_encoder([4, 3], seed=23)
        clone = model.copy()
        clone.weights[0][:] = 0.0
        assert model.weights[0].any()
