"""Encoder, optimizer, schedule, vision-teacher and checkpoint tests."""

import math
import struct

import numpy as np
import pytest

from xmc import autodiff as ad
from xmc.datagen import SimulatorConfig, image_inputs, make_dataset
from xmc.errors import (
    ConfigError,
    ContractError,
    DimensionError,
    DomainError,
    FormatError,
    NumericError,
    UsageError,
)
from xmc.models import (
    SGD_BLOCK,
    EncoderModel,
    cosine_lr,
    cross_entropy,
    fit,
    init_encoder,
    init_head,
    load_checkpoint_bytes,
    make_optimizer,
    pretrain_vision,
    save_checkpoint_bytes,
    sgd_step,
    xavier_uniform,
)
from xmc.seeding import derive_seed, rng_for

from helpers import check_grads, grad_views


class TestEncoderForward:
    def test_zero_weight_model_embeds_to_zero(self):
        m = init_encoder([6, 4, 3], seed=0)
        for w in m.weights:
            w[:] = 0.0
        out, _ = m.forward(np.random.default_rng(0).normal(size=(2, 6)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_dim_mismatch(self):
        m = init_encoder([6, 4], seed=0)
        with pytest.raises(DimensionError):
            m.forward(np.ones((2, 5)))

    def test_frozen_model_gets_no_gradients(self):
        m = init_encoder([5, 4, 3], seed=1)
        m.freeze()
        out, acts = m.forward(np.random.default_rng(1).normal(size=(3, 5)))
        _, g = cross_entropy(out, np.array([0, 1, 2]))
        with pytest.raises(ContractError):
            ad.backward(m, acts, g)
        assert m.grad is None

    @staticmethod
    def gradcheck_two_layers(input_grad: bool):
        m = init_encoder([4, 6, 3], seed=2)
        x = np.random.default_rng(2).normal(size=(3, 4))
        labels = np.array([2, 0, 2])

        def f():
            return cross_entropy(m.forward(x)[0], labels)[0]

        out, acts = m.forward(x)
        dx = ad.backward(m, acts, cross_entropy(out, labels)[1], input_grad)
        check_grads(f, [(m.data, m.grad)] + ([(x, dx)] if input_grad else []))

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
        check_grads(f, [(head.data, head.grad), (enc.data, enc.grad), (x, dx)])

    def test_forward_numpy_matches_graph_forward(self):
        m = init_encoder([7, 5, 4], seed=3)
        x = np.random.default_rng(3).normal(size=(6, 7))
        out, acts = m.forward(x)
        np.testing.assert_array_equal(out, m.forward_numpy(x))
        assert [a.shape for a in acts] == [(6, 7), (6, 5)]

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


class TestSgd:
    def test_plain_gradient_descent(self):
        p = unit(1.0, 2.0)
        p.grad = np.array([0.5, -0.5])
        st = make_optimizer([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step([p], st)
        np.testing.assert_allclose(p.data, [0.95, 2.05])
        assert p.grad is None  # used once, then cleared

    def test_first_momentum_step(self):
        p = unit(2.0, 0.0)
        p.grad = np.array([1.0, 0.0])
        st = make_optimizer([p], lr=0.1, momentum=0.9, weight_decay=0.01)
        sgd_step([p], st)
        v = 1.0 + 0.01 * 2.0
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * v, 0.0])

    def test_two_hand_computed_steps(self):
        # scalar recurrence: v_t = m v_{t-1} + (g + wd p); p -= lr v_t
        p = unit(1.0, 0.0)
        st = make_optimizer([p], lr=0.2, momentum=0.5, weight_decay=0.1)
        p.grad = np.array([0.3, 0.0])
        sgd_step([p], st)
        v1 = 0.3 + 0.1 * 1.0
        p1 = 1.0 - 0.2 * v1
        np.testing.assert_allclose(p.data, [p1, 0.0])
        p.grad = np.array([-0.2, 0.0])
        sgd_step([p], st)
        v2 = 0.5 * v1 + (-0.2 + 0.1 * p1)
        np.testing.assert_allclose(p.data, [p1 - 0.2 * v2, 0.0])

    def test_missing_grad_is_usage_error(self):
        p = unit(1.0, 0.0)
        st = make_optimizer([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        with pytest.raises(UsageError):
            sgd_step([p], st)

    def test_lr_zero_leaves_params_unchanged(self):
        p = unit(1.0, -1.0)
        p.grad = np.array([5.0, 5.0])
        st = make_optimizer([p], lr=0.0, momentum=0.9, weight_decay=0.1)
        sgd_step([p], st)
        np.testing.assert_array_equal(p.data, [1.0, -1.0])

    def test_pure_weight_decay_shrinkage(self):
        p = unit(2.0, 0.0)
        p.grad = np.array([0.0, 0.0])
        st = make_optimizer([p], lr=0.1, momentum=0.0, weight_decay=0.05)
        sgd_step([p], st)
        np.testing.assert_allclose(p.data, [2.0 * (1.0 - 0.1 * 0.05), 0.0])

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_three_steps_of_a_chain_match_the_reference_bytes(self, wd):
        """Each model of a two-model chain follows v = m*v + (g + wd*p);
        p = p - lr*v, computed here on fresh arrays, to the byte. The first
        model spans two blocks of the step."""
        rng = np.random.default_rng(40)
        chain = [init_encoder([200, 180, 3], seed=40), init_encoder([3, 2], seed=41)]
        assert SGD_BLOCK < chain[0].data.size < 2 * SGD_BLOCK
        ref_p = [m.data.copy() for m in chain]
        ref_v = [np.zeros_like(p) for p in ref_p]
        st = make_optimizer(chain, lr=0.1, momentum=0.9, weight_decay=wd)
        for lr in (0.1, 0.05, 0.025):
            grads = [rng.normal(size=m.data.shape) for m in chain]
            for m, g in zip(chain, grads):
                m.grad = g.copy()
            sgd_step(chain, st, lr=lr)
            for j, g in enumerate(grads):
                ref_v[j] = 0.9 * ref_v[j] + (g + wd * ref_p[j])
                ref_p[j] = ref_p[j] - lr * ref_v[j]
            assert [m.data.tobytes() for m in chain] == [p.tobytes() for p in ref_p]
            assert [v.tobytes() for v in st.velocities] == [v.tobytes() for v in ref_v]


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 10, 0.03) == 0.03
        assert abs(cosine_lr(10, 10, 0.03)) < 1e-18
        assert math.isclose(cosine_lr(5, 10, 0.03), 0.015)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(t, 50, 1.0) for t in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cosine_lr(11, 10, 0.03)
        with pytest.raises(DomainError):
            cosine_lr(0, 0, 0.03)


class TestSoftmaxAndCrossEntropy:
    def test_softmax_rows_sum_to_one(self):
        z = np.random.default_rng(5).normal(size=(10, 4)) * 30
        _, s = ad.logsumexp_row(z)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)

    def test_cross_entropy_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 4))
        labels = np.array([0, 3, 1, 1, 2])
        grad = cross_entropy(logits, labels)[1]
        check_grads(lambda: cross_entropy(logits, labels)[0], [(logits, grad)])

    def test_cross_entropy_label_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cross_entropy(np.zeros((4, 3)), np.array([0, 1]))

    def test_cross_entropy_matches_numpy_path(self):
        """The loss is the mean of -log softmax at the label column."""
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(8, 4))
        labels = rng.integers(0, 4, size=8)
        log_softmax = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        naive = -log_softmax[np.arange(8), labels].mean()
        assert math.isclose(cross_entropy(logits, labels)[0], naive, rel_tol=1e-12)

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
            calls.append(enc.param_bytes())
            # batches start at samples 0, 2, 4 and 6: call 7 is epoch 1's third
            if len(calls) == 7:
                return math.nan, np.ones_like(out)
            return cross_entropy(out, sel % 2)

        with pytest.raises(NumericError, match=r"epoch 1, sample 4"):
            list(fit([enc], x, loss, epochs=3, order_rng=np.random.default_rng(0),
                     **FIT_KW))
        assert calls[0] != calls[-1]  # earlier steps did train
        assert enc.param_bytes() == calls[-1]

    def test_epoch_0_uses_first_order_and_later_epochs_the_rng(self):
        enc = init_encoder([3, 2], seed=31)
        x = np.random.default_rng(31).normal(size=(6, 3))
        first = np.array([5, 3, 1, 0, 2, 4])
        seen = []

        def loss(out, sel):
            seen.append(sel.copy())
            return zero_loss(out, sel)

        list(fit([enc], x, loss, epochs=3, order_rng=np.random.default_rng(9),
                 first_order=first, **{**FIT_KW, "batch_size": 6}))
        rng = np.random.default_rng(9)
        expected = [first, rng.permutation(6), rng.permutation(6)]
        assert [s.tolist() for s in seen] == [e.tolist() for e in expected]

        seen.clear()
        list(fit([enc], x, loss, epochs=1, order_rng=np.random.default_rng(9),
                 **{**FIT_KW, "batch_size": 6}))
        assert seen[0].tolist() == np.random.default_rng(9).permutation(6).tolist()

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
        enc = init_encoder([3, 2], seed=33, trainable=False)
        head = init_encoder([2, 4], seed=34)
        before = head.param_bytes() + enc.param_bytes()
        calls = []

        def loss(out, sel):
            calls.append(sel)
            return zero_loss(out, sel)

        with pytest.raises(ContractError):
            list(fit([enc, head], np.ones((4, 3)), loss, epochs=1,
                     order_rng=np.random.default_rng(0), **FIT_KW))
        assert calls == []
        assert head.param_bytes() + enc.param_bytes() == before

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
        assert enc.param_bytes() == ref_enc.param_bytes()
        assert head.param_bytes() == ref_head.param_bytes()


@pytest.fixture(scope="module")
def small_dataset():
    return make_dataset(SimulatorConfig(), 400, seed=17)


class TestVisionPretrain:
    def test_freeze_contract_after_training_step(self, small_dataset):
        ds = small_dataset
        out = pretrain_vision(
            image_inputs(ds.images[ds.vision_idx]),
            ds.labels[ds.vision_idx].astype(np.int64),
            hidden=[32], embed_dim=16, n_classes=4, epochs=2, lr=0.01,
            momentum=0.9, weight_decay=1e-4, batch_size=32,
            holdout_fraction=0.2, seed=1)
        model = out.model
        assert model.frozen
        before = model.param_bytes()
        out, acts = model.forward(image_inputs(ds.images[ds.test_idx[:8]]))
        _, g = cross_entropy(out, ds.labels[ds.test_idx[:8]].astype(np.int64))
        with pytest.raises(ContractError):
            ad.backward(model, acts, g)
        assert model.param_bytes() == before

    def test_random_frozen_mode_returns_untrained_frozen(self, small_dataset):
        ds = small_dataset
        imgs = image_inputs(ds.images[ds.vision_idx])
        labels = ds.labels[ds.vision_idx].astype(np.int64)
        kwargs = dict(hidden=[32], embed_dim=16, n_classes=4, epochs=5, lr=0.01,
                      momentum=0.9, weight_decay=0.0, batch_size=32,
                      holdout_fraction=0.2, seed=2)
        frozen = pretrain_vision(imgs, labels, mode="random-frozen", **kwargs)
        fresh = init_encoder([imgs.shape[1], 32, 16], derive_seed(2, "vision-encoder"))
        assert frozen.model.frozen
        assert frozen.model.param_bytes() == fresh.param_bytes()

    def test_unknown_mode_rejected(self, small_dataset):
        ds = small_dataset
        with pytest.raises(ConfigError):
            pretrain_vision(
                image_inputs(ds.images[:8]), ds.labels[:8].astype(np.int64),
                hidden=[8], embed_dim=4, n_classes=4, epochs=1, lr=0.01,
                momentum=0.9, weight_decay=0.0, batch_size=4,
                holdout_fraction=0.2, seed=3, mode="imagenet")


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self):
        model = init_encoder([9, 7, 5], seed=20)
        opt = make_optimizer([model], lr=0.03, momentum=0.9, weight_decay=1e-4)
        model.grad = np.ones_like(model.data)
        sgd_step([model], opt)  # non-zero biases, irregular floats
        blob = save_checkpoint_bytes(model)
        loaded = load_checkpoint_bytes(blob)
        assert loaded.dims == model.dims
        assert not loaded.frozen
        assert loaded.param_bytes() == model.param_bytes()
        assert save_checkpoint_bytes(loaded) == blob

    def test_magic_and_frozen_flag(self):
        model = init_encoder([3, 2], seed=21)
        model.freeze()
        blob = save_checkpoint_bytes(model)
        assert blob[:4] == b"XMCK"
        assert struct.unpack("<HBH", blob[4:9]) == (2, 1, 1)
        # dims, then weight (3x2) and bias (2) as f64; nothing after them
        assert len(blob) == 9 + 4 * 2 + 8 * (3 * 2 + 2)
        loaded = load_checkpoint_bytes(blob)
        assert loaded.frozen

    def test_body_is_per_layer_weight_then_bias(self):
        model = init_encoder([5, 4, 3], seed=26)
        rng = rng_for(26, "encoder-init")
        ws = [xavier_uniform(rng, 5, 4), xavier_uniform(rng, 4, 3)]
        bs = [np.arange(1.0, 5.0) / 7, -np.arange(1.0, 4.0) / 3]
        for view, b in zip(model.biases, bs):
            view[:] = b
        expected = [b"XMCK", struct.pack("<HBH", 2, 0, 2), struct.pack("<3I", 5, 4, 3)]
        for w, b in zip(ws, bs):
            expected += [w.astype("<f8").tobytes(), b.astype("<f8").tobytes()]
        assert save_checkpoint_bytes(model) == b"".join(expected)

    def test_loaded_parameters_are_writeable_and_own_their_memory(self):
        loaded = load_checkpoint_bytes(save_checkpoint_bytes(init_encoder([4, 3, 2], seed=27)))
        assert loaded.data.flags.writeable and loaded.data.flags.owndata
        assert all(np.shares_memory(v, loaded.data) for v in loaded.weights + loaded.biases)

    def test_a_write_through_a_weight_view_reaches_the_vector_and_the_bytes(self):
        model = init_encoder([4, 3, 2], seed=28)
        model.weights[1][2, 1] = 0.5
        index = 4 * 3 + 3 + 2 * 2 + 1  # after weight 0 and bias 0, row-major
        value = struct.pack("<d", 0.5)
        assert model.data[index] == 0.5
        assert model.param_bytes()[8 * index:8 * index + 8] == value
        body = 9 + 4 * 3  # magic, header, three dims
        assert save_checkpoint_bytes(model)[body + 8 * index:body + 8 * index + 8] == value

    def test_truncation_detected(self):
        blob = save_checkpoint_bytes(init_encoder([3, 2], seed=22))
        for cut in (1, 4, 8, len(blob) - 4):
            with pytest.raises(FormatError, match="truncated"):
                load_checkpoint_bytes(blob[:-cut])

    def test_trailing_bytes_detected(self):
        blob = save_checkpoint_bytes(init_encoder([3, 2], seed=24))
        with pytest.raises(FormatError, match="trailing bytes"):
            load_checkpoint_bytes(blob + b"\x00")

    def test_version_1_rejected(self):
        """A version-1 blob (with its trailing optimizer flag) is refused,
        not misread."""
        blob = save_checkpoint_bytes(init_encoder([3, 2], seed=25))
        v1 = blob[:4] + struct.pack("<H", 1) + blob[6:] + b"\x00"
        with pytest.raises(FormatError, match="unsupported checkpoint version 1"):
            load_checkpoint_bytes(v1)

    @pytest.mark.parametrize("header, message", [
        (struct.pack("<HBH", 2, 2, 1) + struct.pack("<2I", 3, 2), "frozen 2"),
        (struct.pack("<HBH", 2, 0, 0) + struct.pack("<I", 3), "0 layers"),
        (struct.pack("<HBH", 2, 0, 1) + struct.pack("<2I", 3, 0), "must be positive"),
        # 8 * (2**32 - 1)**2 overflows int64: the size must not wrap
        (struct.pack("<HBH", 2, 0, 1) + struct.pack("<2I", 2**32 - 1, 2**32 - 1),
         "truncated"),
    ], ids=["frozen-flag", "no-layers", "zero-dim", "huge-dims"])
    def test_bad_header_rejected(self, header, message):
        with pytest.raises(FormatError, match=message):
            load_checkpoint_bytes(b"XMCK" + header + b"\x00" * 64)

    def test_copy_is_independent(self):
        model = init_encoder([4, 3], seed=23)
        clone = model.copy()
        clone.weights[0][:] = 0.0
        assert model.weights[0].any()
