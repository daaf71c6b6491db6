"""Encoder, optimizer, schedule, vision-teacher and checkpoint tests."""

import math
import struct

import numpy as np
import pytest

from xmc import autodiff as ad
from xmc.autodiff import Tensor
from xmc.datagen import SimulatorConfig, image_inputs, make_dataset
from xmc.errors import (
    ConfigError,
    ContractError,
    DimensionError,
    DomainError,
    FormatError,
    UsageError,
)
from xmc.models import (
    cosine_lr,
    cross_entropy,
    init_encoder,
    init_head,
    load_checkpoint_bytes,
    make_optimizer,
    pretrain_vision,
    save_checkpoint_bytes,
    sgd_step,
)
from xmc.seeding import derive_seed

from helpers import check_grads


class TestEncoderForward:
    def test_zero_weight_model_embeds_to_zero(self):
        m = init_encoder([6, 4, 3], seed=0)
        for w in m.weights:
            w.data[:] = 0.0
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
        assert all(p.grad is None for p in m.parameters())

    @staticmethod
    def gradcheck_two_layers(input_grad: bool):
        m = init_encoder([4, 6, 3], seed=2)
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        labels = np.array([2, 0, 2])

        def f():
            return cross_entropy(m.forward(x.data)[0], labels)[0]

        out, acts = m.forward(x.data)
        x.grad = ad.backward(m, acts, cross_entropy(out, labels)[1], input_grad)
        check_grads(f, m.parameters() + ([x] if input_grad else []))

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
        x = Tensor(rng.normal(size=(4, 5)))
        labels = np.array([0, 2, 1, 2])

        def f():
            return cross_entropy(head.forward_numpy(enc.forward_numpy(x.data)), labels)[0]

        feats, enc_acts = enc.forward(x.data)
        logits, head_acts = head.forward(feats)
        g = ad.backward(head, head_acts, cross_entropy(logits, labels)[1], input_grad=True)
        x.grad = ad.backward(enc, enc_acts, g, input_grad=True)
        check_grads(f, head.parameters() + enc.parameters() + [x])

    def test_forward_numpy_matches_graph_forward(self):
        m = init_encoder([7, 5, 4], seed=3)
        x = np.random.default_rng(3).normal(size=(6, 7))
        out, acts = m.forward(x)
        np.testing.assert_array_equal(out, m.forward_numpy(x))
        assert [a.shape for a in acts] == [(6, 7), (6, 5)]

    def test_init_is_seeded_and_xavier_bounded(self):
        a = init_encoder([10, 8], seed=4)
        b = init_encoder([10, 8], seed=4)
        np.testing.assert_array_equal(a.weights[0].data, b.weights[0].data)
        bound = math.sqrt(6.0 / 18.0)
        assert np.abs(a.weights[0].data).max() <= bound
        assert np.all(a.biases[0].data == 0.0)


class TestSgd:
    def test_plain_gradient_descent(self):
        p = Tensor(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -0.5])
        st = make_optimizer([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step([p], st)
        np.testing.assert_allclose(p.data, [0.95, 2.05])
        assert p.grad is None  # used once, then cleared

    def test_first_momentum_step(self):
        p = Tensor(np.array([2.0]))
        p.grad = np.array([1.0])
        st = make_optimizer([p], lr=0.1, momentum=0.9, weight_decay=0.01)
        sgd_step([p], st)
        v = 1.0 + 0.01 * 2.0
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * v])

    def test_two_hand_computed_steps(self):
        # scalar recurrence: v_t = m v_{t-1} + (g + wd p); p -= lr v_t
        p = Tensor(np.array([1.0]))
        st = make_optimizer([p], lr=0.2, momentum=0.5, weight_decay=0.1)
        p.grad = np.array([0.3])
        sgd_step([p], st)
        v1 = 0.3 + 0.1 * 1.0
        p1 = 1.0 - 0.2 * v1
        np.testing.assert_allclose(p.data, [p1])
        p.grad = np.array([-0.2])
        sgd_step([p], st)
        v2 = 0.5 * v1 + (-0.2 + 0.1 * p1)
        np.testing.assert_allclose(p.data, [p1 - 0.2 * v2])

    def test_missing_grad_is_usage_error(self):
        p = Tensor(np.array([1.0]))
        st = make_optimizer([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        with pytest.raises(UsageError):
            sgd_step([p], st)

    def test_lr_zero_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, -1.0]))
        p.grad = np.array([5.0, 5.0])
        st = make_optimizer([p], lr=0.0, momentum=0.9, weight_decay=0.1)
        sgd_step([p], st)
        np.testing.assert_array_equal(p.data, [1.0, -1.0])

    def test_pure_weight_decay_shrinkage(self):
        p = Tensor(np.array([2.0]))
        p.grad = np.array([0.0])
        st = make_optimizer([p], lr=0.1, momentum=0.0, weight_decay=0.05)
        sgd_step([p], st)
        np.testing.assert_allclose(p.data, [2.0 * (1.0 - 0.1 * 0.05)])


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
        logits = Tensor(rng.normal(size=(5, 4)))
        labels = np.array([0, 3, 1, 1, 2])
        logits.grad = cross_entropy(logits.data, labels)[1]
        check_grads(lambda: cross_entropy(logits.data, labels)[0], [logits])

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
        opt = make_optimizer(model.parameters(), lr=0.03, momentum=0.9,
                             weight_decay=1e-4)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        sgd_step(model.parameters(), opt)  # non-zero biases, irregular floats
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
        clone.weights[0].data[:] = 0.0
        assert model.weights[0].data.any()
