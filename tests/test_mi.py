"""The correlated Gaussian pairs, mutual-information bound arithmetic and the
Gaussian-validated estimator."""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate

from xmc import contrastive, mi
from xmc.config import MiSection
from xmc.contrastive import fit_to_keys, info_nce
from xmc.errors import InputError
from xmc.mi import (
    analytic_mi,
    estimate_mi_gaussian,
    gen_gaussian_pairs,
    mi_lower_bound,
    quadratic_features,
)
from xmc.models import fit


def mi_by_quadrature(rho: float, n: int = 2001, lim: float = 8.0) -> float:
    """Independent oracle: 2-D Simpson quadrature of the bivariate density."""
    x = np.linspace(-lim, lim, n)
    gx, gy = np.meshgrid(x, x, indexing="ij")
    det = 1.0 - rho**2
    joint = np.exp(-(gx**2 - 2 * rho * gx * gy + gy**2) / (2 * det))
    joint /= 2 * np.pi * np.sqrt(det)
    log_marg = -x**2 / 2 - 0.5 * math.log(2 * math.pi)
    integrand = joint * (np.log(np.maximum(joint, 1e-300))
                         - log_marg[:, None] - log_marg[None, :])
    return float(integrate.simpson(integrate.simpson(integrand, x=x, axis=1), x=x))


class TestGaussianPairs:
    def test_zero_rho_gives_near_zero_sample_correlation(self):
        x, y = gen_gaussian_pairs(1, 0.0, 100_000, 1)
        r = np.corrcoef(x[:, 0], y[:, 0])[0, 1]
        assert abs(r) < 0.02

    def test_high_rho_sample_correlation(self):
        x, y = gen_gaussian_pairs(1, 0.9, 100_000, 2)
        r = np.corrcoef(x[:, 0], y[:, 0])[0, 1]
        assert abs(r - 0.9) < 0.02

    def test_coordinates_are_standardized(self):
        x, y = gen_gaussian_pairs(3, 0.5, 100_000, 3)
        for arr in (x, y):
            assert np.abs(arr.mean(axis=0)).max() < 0.02
            assert np.abs(arr.std(axis=0) - 1.0).max() < 0.02

    def test_same_seed_bit_identical(self):
        x1, y1 = gen_gaussian_pairs(2, 0.4, 100, 9)
        x2, y2 = gen_gaussian_pairs(2, 0.4, 100, 9)
        assert x1.tobytes() == x2.tobytes() and y1.tobytes() == y2.tobytes()

    def test_frozen_bytes(self):
        """Pins the pair generator: any change to its draws fails here."""
        x, y = gen_gaussian_pairs(2, 0.4, 100, 9)
        digest = hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest()
        assert digest == "5a5852a6832275f026082291b9c8e64abf87dd26861559e867676299294a31af"


class TestAnalyticMi:
    def test_independence_means_zero(self):
        assert analytic_mi(0.0, 5) == 0.0

    def test_frozen_values(self):
        assert math.isclose(analytic_mi(0.9, 1), 0.8303656034108255, rel_tol=1e-12)
        assert math.isclose(analytic_mi(0.5, 4), 0.5753641449035618, rel_tol=1e-12)

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
    def test_matches_quadrature_oracle(self, rho):
        assert math.isclose(analytic_mi(rho, 1), mi_by_quadrature(rho), abs_tol=1e-9)


def fast_critic(k: int, pair_count: int = 6144) -> MiSection:
    """The default critic at 15 epochs on ``pair_count`` one-dimensional
    pairs, against ``k`` negatives."""
    return MiSection(dim=1, epochs=15, queue_size=k, pair_count=pair_count)


class TestBoundArithmetic:
    """The loss is (K + 1)-way, over K negatives, so the bound is
    ln(K + 1) - loss (CPC's ln N - L_N, arXiv 1807.03748)."""

    def test_loss_equal_log_k_plus_1_means_zero(self):
        assert mi_lower_bound(math.log(257), 256) == 0.0

    def test_frozen_value(self):
        assert math.isclose(mi_lower_bound(2.0, 256), 3.54907608489522, rel_tol=1e-12)

    def test_loss_above_log_k_plus_1_gives_negative_bound(self):
        k = 64
        bound = mi_lower_bound(math.log(k + 1) + 0.25, k)
        assert math.isclose(bound, -0.25, rel_tol=1e-12)
        assert bound < 0.0

    def test_a_critic_with_equal_scores_bounds_zero(self):
        """Equal scores for the key and its K negatives are a critic that
        tells nothing apart: its loss is ln(K + 1), and its bound 0."""
        k = 256
        keys = np.random.default_rng(0).normal(size=(8 + k, 4))
        loss = info_nce(np.zeros((8, 4)), keys[:8], keys[8:], 1.0)[0]
        assert abs(mi_lower_bound(loss, k)) <= 1e-12


class TestQuadraticFeatures:
    def test_layout(self):
        v = np.array([[1.0, -2.0]])
        np.testing.assert_array_equal(quadratic_features(v), [[1.0, -2.0, 1.0, 4.0]])


class TestGaussianEstimator:
    def test_independent_pairs_estimate_near_zero(self):
        _, bound, true_mi = estimate_mi_gaussian(fast_critic(128), 0.0, 11)
        assert abs(bound) < 0.05
        assert true_mi == 0.0

    def test_correlated_pairs_capture_most_mi(self):
        _, bound, true_mi = estimate_mi_gaussian(fast_critic(128), 0.9, 12)
        assert 0.5 < bound < true_mi + 0.1
        assert math.isclose(true_mi, analytic_mi(0.9, 1), rel_tol=1e-12)

    def test_estimates_increase_with_rho(self):
        bounds = [estimate_mi_gaussian(fast_critic(128), rho, 13)[1]
                  for rho in (0.3, 0.6, 0.9)]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_bound_never_exceeds_log_k_plus_1(self):
        loss, bound, _ = estimate_mi_gaussian(fast_critic(64), 0.6, 14)
        assert bound == math.log(65) - loss
        assert bound <= math.log(65)
        assert loss >= 0.0

    def test_small_queue_with_large_batch_works(self):
        # batch exceeds queue capacity; only the newest keys are retained
        _, bound, _ = estimate_mi_gaussian(fast_critic(32), 0.6, 15)
        assert math.isfinite(bound)

    def test_deterministic_given_seed(self):
        a = estimate_mi_gaussian(fast_critic(64), 0.5, 16)
        b = estimate_mi_gaussian(fast_critic(64), 0.5, 16)
        assert a == b

    def test_info_nce_gets_k_negatives_of_the_query_width(self, monkeypatch):
        """Training and held-out batches alike score queries against keys of
        their shape and K negatives of their width: info_nce takes them
        unchecked."""
        seen = []

        def spy(q, k_plus, negatives, tau):
            seen.append((q.shape, k_plus.shape, negatives.shape))
            return info_nce(q, k_plus, negatives, tau)

        monkeypatch.setattr(contrastive, "info_nce", spy)
        monkeypatch.setattr(mi, "info_nce", spy)
        critic = fast_critic(64)
        estimate_mi_gaussian(critic, 0.5, 16)
        assert seen
        assert all(q == k and q[1] == critic.embed_dim and negatives == (64, q[1])
                   for q, k, negatives in seen)

    def test_count_too_small_rejected(self):
        with pytest.raises(InputError, match=r"^count 300 too small for queue 256 plus "
                                             r"holdout \d+$"):
            estimate_mi_gaussian(fast_critic(256, pair_count=300), 0.5, 17)

    def test_critic_warms_from_the_leading_batches_of_fits_first_epoch(self, monkeypatch):
        """The critic's first loss is scored against the keys of the last K of
        the first ceil(K/B)*B rows that ``fit`` visits in epoch 0."""
        sels, first_negatives, tables = [], [], []

        def spy_fit(chain, inputs, loss, **kw):
            def spy_loss(out, sel):
                sels.append(sel.copy())
                return loss(out, sel)
            return fit(chain, inputs, spy_loss, **kw)

        def spy_info_nce(q, k_plus, negatives, tau):
            first_negatives.append(negatives.copy())
            return info_nce(q, k_plus, negatives, tau)

        def spy_fit_to_keys(model, inputs, keys, *args, **kw):
            tables.append(keys.copy())
            return fit_to_keys(model, inputs, keys, *args, **kw)

        monkeypatch.setattr(contrastive, "fit", spy_fit)
        monkeypatch.setattr(contrastive, "info_nce", spy_info_nce)
        monkeypatch.setattr(mi, "fit_to_keys", spy_fit_to_keys)
        critic = MiSection(dim=1, epochs=1, queue_size=100, batch_size=32, pair_count=600)
        estimate_mi_gaussian(critic, 0.5, 18)  # K = 100: 4 batches, 128 rows
        epoch_0 = np.concatenate(sels)
        np.testing.assert_array_equal(first_negatives[0], tables[0][epoch_0[128 - 100:128]])

    def test_the_gradient_is_formed_once_per_training_step_and_never_held_out(
            self, monkeypatch):
        """Training forms info_nce's gradient once per step, through the
        closure it returns; held-out scoring takes the loss alone."""
        calls = {"train": [0, 0], "held-out": [0, 0]}  # scored, gradient formed

        def spy(where):
            def spy_info_nce(q, k_plus, negatives, tau):
                loss, grad = info_nce(q, k_plus, negatives, tau)
                calls[where][0] += 1

                def counted_grad():
                    calls[where][1] += 1
                    return grad()
                return loss, counted_grad
            return spy_info_nce

        monkeypatch.setattr(contrastive, "info_nce", spy("train"))
        monkeypatch.setattr(mi, "info_nce", spy("held-out"))
        critic = MiSection(dim=1, epochs=2, queue_size=64, batch_size=32, pair_count=600)
        estimate_mi_gaussian(critic, 0.5, 19)
        n_train = 600 - 200  # a third of the pairs is held out
        assert calls["train"] == [2 * math.ceil(n_train / 32)] * 2
        assert calls["held-out"][0] > 0 and calls["held-out"][1] == 0
