"""Weight maps and the dual objective against hand-computed values."""

import numpy as np
import pytest

from condenseg.loss import (
    LossConfig,
    class_weight_map,
    dice_loss,
    edge_pixels,
    edge_weight_map,
    pixel_weights,
    total_loss,
    weighted_cross_entropy,
)
from condenseg.tensor import Tensor, softmax_channels
from condenseg.volume import LabelMask
from gradcheck import GRAD_TOL, grad_check


def batch_mask(arr, num_classes=4):
    return LabelMask(np.asarray(arr, dtype=np.uint8), num_classes=num_classes)


def random_probs(shape, seed):
    logits = np.random.default_rng(seed).normal(size=shape)
    return softmax_channels(Tensor(logits))


class TestLossConfig:
    def test_beta_complements_alpha(self):
        assert LossConfig(alpha=0.3).beta == 0.7

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=1.5)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            LossConfig(epsilon=0.0)


class TestClassWeights:
    def test_fifty_fifty_gives_two(self):
        labels = np.zeros((1, 4, 4), dtype=np.uint8)
        labels[:, :, 2:] = 1
        w = class_weight_map(batch_mask(labels, 2), LossConfig())
        assert np.all(w == 2.0)

    def test_single_class_uniform_with_warning(self):
        labels = np.zeros((1, 4, 4), dtype=np.uint8)
        with pytest.warns(RuntimeWarning):
            w = class_weight_map(batch_mask(labels, 2), LossConfig())
        assert np.all(w == 1.0)

    def test_ninety_ten_ratio(self):
        labels = np.zeros((1, 10, 10), dtype=np.uint8)
        labels[0, 0, :] = 1  # 10 of 100 pixels
        w = class_weight_map(batch_mask(labels, 2), LossConfig())
        minority = w[0, 0, 0]
        majority = w[0, 5, 5]
        assert abs(minority / majority - 9.0) < 1e-12

    def test_scale_multiplies(self):
        labels = np.zeros((1, 4, 4), dtype=np.uint8)
        labels[:, 2:] = 1
        a = class_weight_map(batch_mask(labels, 2), LossConfig(scale=1.0))
        b = class_weight_map(batch_mask(labels, 2), LossConfig(scale=2.5))
        assert np.allclose(b, 2.5 * a)


class TestEdgeWeights:
    def test_constant_mask_zero(self):
        labels = np.ones((1, 4, 4), dtype=np.uint8)
        w = edge_weight_map(batch_mask(labels), LossConfig())
        assert edge_pixels(labels).sum() == 0
        assert np.all(w == 0.0)

    def test_vertical_split_4x4(self):
        labels = np.zeros((1, 4, 4), dtype=np.uint8)
        labels[:, :, 2:] = 1
        w = edge_weight_map(batch_mask(labels, 2), LossConfig())
        assert edge_pixels(labels).sum() == 8
        assert np.all(w[0, :, 1:3] == 16 / 8)
        assert np.all(w[0, :, [0, 3]] == 0.0)

    def test_checkerboard_everyone_is_edge(self):
        labels = (np.indices((4, 4)).sum(axis=0) % 2).astype(np.uint8)[None]
        w = edge_weight_map(batch_mask(labels, 2), LossConfig())
        assert edge_pixels(labels).sum() == 16
        assert np.all(w == 1.0)

    def test_edges_do_not_cross_batch_items(self):
        labels = np.zeros((2, 3, 3), dtype=np.uint8)
        labels[1] = 1  # constant within each item
        assert not edge_pixels(labels).any()


class TestCrossEntropy:
    def test_perfect_prediction_zero(self):
        labels = batch_mask(np.array([[[0, 1], [2, 3]]]))
        probs = np.zeros((1, 4, 2, 2))
        for i in range(2):
            for j in range(2):
                probs[0, labels.data[0, i, j], i, j] = 1.0
        w = np.ones((1, 2, 2))
        loss = weighted_cross_entropy(Tensor(probs), labels, w)
        assert abs(loss.item()) < 1e-10

    def test_uniform_prediction_n_log4(self):
        labels = batch_mask(np.zeros((1, 3, 3), dtype=np.uint8))
        probs = np.full((1, 4, 3, 3), 0.25)
        w = np.ones((1, 3, 3))
        loss = weighted_cross_entropy(Tensor(probs), labels, w)
        assert abs(loss.item() - 9 * np.log(4)) < 1e-12

    def test_weight_doubling_doubles_loss(self):
        pred = random_probs((2, 4, 4, 4), seed=0)
        labels = batch_mask(np.random.default_rng(1).integers(0, 4, (2, 4, 4)))
        w1 = np.ones((2, 4, 4))
        w2 = 2 * np.ones((2, 4, 4))
        a = weighted_cross_entropy(pred, labels, w1).item()
        b = weighted_cross_entropy(pred, labels, w2).item()
        assert abs(b - 2 * a) < 1e-9

    def test_moving_mass_to_truth_decreases(self):
        probs = np.full((1, 4, 1, 1), 0.25)
        labels = batch_mask(np.zeros((1, 1, 1), dtype=np.uint8))
        w = np.ones((1, 1, 1))
        before = weighted_cross_entropy(Tensor(probs), labels, w).item()
        probs2 = probs.copy()
        probs2[0, 0] += 0.1
        probs2[0, 1] -= 0.1
        after = weighted_cross_entropy(Tensor(probs2), labels, w).item()
        assert after < before

    def test_unnormalized_rejected(self):
        labels = batch_mask(np.zeros((1, 2, 2), dtype=np.uint8))
        w = np.ones((1, 2, 2))
        with pytest.raises(ValueError):
            weighted_cross_entropy(Tensor(np.full((1, 4, 2, 2), 0.3)), labels, w)


class TestDice:
    def test_perfect_prediction(self):
        labels = batch_mask(np.array([[[0, 1], [2, 3]]]))
        probs = np.zeros((1, 4, 2, 2))
        for i in range(2):
            for j in range(2):
                probs[0, labels.data[0, i, j], i, j] = 1.0
        assert dice_loss(Tensor(probs), labels, LossConfig()).item() < 1e-6

    def test_disjoint_prediction(self):
        labels = batch_mask(np.zeros((1, 4, 4), dtype=np.uint8), num_classes=2)
        probs = np.zeros((1, 2, 4, 4))
        probs[0, 1] = 1.0  # all mass on the wrong class
        assert dice_loss(Tensor(probs), labels, LossConfig()).item() > 0.99

    def test_hand_two_pixel_case(self):
        # pixels labeled (0, 1), prediction 0.5/0.5 everywhere:
        # coefficient = (1+eps)/(2+eps)
        eps = 1e-5
        labels = batch_mask(np.array([[[0, 1]]]), num_classes=2)
        probs = np.full((1, 2, 1, 2), 0.5)
        got = dice_loss(Tensor(probs), labels, LossConfig(epsilon=eps)).item()
        want = 1.0 - (1.0 + eps) / (2.0 + eps)
        assert abs(got - want) < 1e-12

    def test_range(self):
        for seed in range(3):
            pred = random_probs((2, 4, 6, 6), seed=seed)
            labels = batch_mask(
                np.random.default_rng(seed + 10).integers(0, 4, (2, 6, 6)))
            v = dice_loss(pred, labels, LossConfig()).item()
            assert 0.0 <= v <= 1.0 + 1e-4

    def test_class_permutation_equivariant(self):
        rng = np.random.default_rng(3)
        pred = random_probs((1, 4, 6, 6), seed=4)
        labels = rng.integers(0, 4, (1, 6, 6)).astype(np.uint8)
        perm = np.array([2, 0, 3, 1])
        pred2 = np.empty_like(pred.data)
        pred2[:, perm] = pred.data
        a = dice_loss(pred, batch_mask(labels), LossConfig()).item()
        b = dice_loss(Tensor(pred2), batch_mask(perm[labels]), LossConfig()).item()
        assert abs(a - b) < 1e-12


class TestTotalLoss:
    def _case(self, seed=5):
        pred = random_probs((2, 4, 6, 6), seed=seed)
        labels = batch_mask(np.random.default_rng(seed).integers(0, 4, (2, 6, 6)))
        return pred, labels

    def test_alpha_one_is_pure_ce(self):
        pred, labels = self._case()
        cfg = LossConfig(alpha=1.0)
        want = weighted_cross_entropy(pred, labels, pixel_weights(labels, cfg))
        assert total_loss(pred, labels, cfg).item() == want.item()

    def test_alpha_zero_is_pure_dice(self):
        pred, labels = self._case()
        cfg = LossConfig(alpha=0.0)
        assert total_loss(pred, labels, cfg).item() == \
               dice_loss(pred, labels, cfg).item()

    def test_alpha_half_is_mean(self):
        pred, labels = self._case()
        cfg = LossConfig(alpha=0.5)
        ce = weighted_cross_entropy(pred, labels, pixel_weights(labels, cfg)).item()
        dc = dice_loss(pred, labels, cfg).item()
        assert abs(total_loss(pred, labels, cfg).item() - 0.5 * (ce + dc)) < 1e-9

    def test_nonnegative(self):
        pred, labels = self._case(seed=6)
        assert total_loss(pred, labels, LossConfig()).item() >= 0.0

    def test_gradient_through_softmax(self):
        # perturbing logits keeps the prediction normalized, matching how the
        # loss is consumed in training
        logits = Tensor(np.random.default_rng(7).normal(size=(2, 4, 8, 8)),
                        requires_grad=True)
        labels = batch_mask(np.random.default_rng(8).integers(0, 4, (2, 8, 8)))
        cfg = LossConfig()

        def f(_):
            return total_loss(softmax_channels(logits), labels, cfg)

        err = grad_check(f, logits, rng=np.random.default_rng(9))
        assert err < GRAD_TOL

    def test_combined_weights_positive(self):
        _, labels = self._case(seed=11)
        w = pixel_weights(labels, LossConfig())
        assert np.all(w > 0)
        assert np.isfinite(w).all()
