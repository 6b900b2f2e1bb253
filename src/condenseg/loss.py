"""Dual segmentation objective: weighted cross-entropy + class-balanced Dice.

Pixel weights for the cross-entropy term combine inverse class frequency with
an additive boost for label-boundary pixels (4-connectivity). The Dice term
is a soft multi-class coefficient with per-class weights |B|/|B_l| so small
structures count as much as large ones. Both terms differentiate through the
prediction tensor.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .schema import ConfigError
from .tensor import Tensor
from .volume import LabelMask

PROB_CLAMP = 1e-12
NORMALIZATION_TOL = 1e-6


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.5      # cross-entropy share; dice share is 1 - alpha
    scale: float = 1.0      # class-frequency weight multiplier
    edge_scale: float = 1.0  # boundary-pixel weight multiplier
    epsilon: float = 1e-5   # dice denominator guard

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1], got %r" % self.alpha)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError("epsilon must be finite and positive, got %r" % self.epsilon)
        for name, value in (("scale", self.scale), ("edge_scale", self.edge_scale)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError("%s must be finite and nonnegative, got %r" % (name, value))

    @property
    def beta(self):
        return 1.0 - self.alpha


def _check_batch(mask: LabelMask):
    if mask.data.ndim != 3:
        raise ValueError("loss functions expect (B,H,W) label batches, got %s"
                         % (mask.shape,))


def _check_normalized(pred: Tensor, num_classes):
    if pred.data.ndim != 4 or pred.shape[1] != num_classes:
        raise ValueError("prediction must be (B,%d,H,W), got %s"
                         % (num_classes, pred.shape))
    err = np.max(np.abs(pred.data.sum(axis=1) - 1.0))
    if err > NORMALIZATION_TOL:
        raise ValueError("prediction not normalized (max channel-sum error %.3g)"
                         % err)


def class_weight_map(mask: LabelMask, cfg: LossConfig) -> np.ndarray:
    """(B,H,W) weights: scale * |V| / class_freq(each pixel's label)."""
    _check_batch(mask)
    counts = mask.class_counts()
    absent = [mask.label_names[l] for l in range(mask.num_classes) if counts[l] == 0]
    if absent:
        warnings.warn("classes absent from batch, skipped in weighting: %s"
                      % ", ".join(absent), RuntimeWarning, stacklevel=2)
    per_class = np.zeros(mask.num_classes)
    present = counts > 0
    per_class[present] = cfg.scale * mask.total_pixels() / counts[present]
    return per_class[mask.data]


def edge_pixels(labels: np.ndarray) -> np.ndarray:
    """Boolean map of pixels 4-adjacent (in-slice) to a different label."""
    edge = np.zeros(labels.shape, dtype=bool)
    dv = labels[:, 1:, :] != labels[:, :-1, :]
    edge[:, 1:, :] |= dv
    edge[:, :-1, :] |= dv
    dh = labels[:, :, 1:] != labels[:, :, :-1]
    edge[:, :, 1:] |= dh
    edge[:, :, :-1] |= dh
    return edge


def edge_weight_map(mask: LabelMask, cfg: LossConfig) -> np.ndarray:
    """(B,H,W) additive weights: edge_scale * |V| / edge_freq on
    label-boundary pixels, 0 elsewhere."""
    _check_batch(mask)
    edge = edge_pixels(mask.data)
    n_edge = int(edge.sum())
    weights = np.zeros(mask.data.shape)
    if n_edge:
        weights[edge] = cfg.edge_scale * mask.total_pixels() / n_edge
    return weights


def pixel_weights(mask: LabelMask, cfg: LossConfig) -> np.ndarray:
    """(B,H,W) combined weights: class term plus additive edge term."""
    return class_weight_map(mask, cfg) + edge_weight_map(mask, cfg)


def _one_hot(mask: LabelMask, dtype):
    b, h, w = mask.data.shape
    oh = np.zeros((b, mask.num_classes, h, w), dtype=dtype)
    np.put_along_axis(oh, mask.data[:, None].astype(np.int64), 1, axis=1)
    return oh


def weighted_cross_entropy(pred: Tensor, mask: LabelMask, weights: np.ndarray) -> Tensor:
    """-sum_i w_i log p(r_i | a_i) over (B,H,W) `weights`, probabilities
    clamped at 1e-12."""
    _check_batch(mask)
    _check_normalized(pred, mask.num_classes)
    onehot = _one_hot(mask, pred.data.dtype)
    p_true = (pred * Tensor(onehot)).sum(axis=1)       # (B,H,W)
    logp = p_true.clamp_min(PROB_CLAMP).log()
    return -((logp * Tensor(np.asarray(weights, dtype=pred.data.dtype))).sum())


def dice_loss(pred: Tensor, mask: LabelMask, cfg: LossConfig) -> Tensor:
    """1 - class-balanced soft Dice coefficient.

    coefficient = sum_l c_l (2 sum_i p_il G_il + eps)
                / sum_l c_l (sum_i (p_il + G_il) + eps),   c_l = |B| / |B_l|.

    Classes absent from the batch get c_l = 0, dropping them from both sums.
    """
    _check_batch(mask)
    _check_normalized(pred, mask.num_classes)
    counts = mask.class_counts().astype(np.float64)
    c = np.zeros(mask.num_classes)
    present = counts > 0
    c[present] = mask.total_pixels() / counts[present]
    c_t = Tensor(c.astype(pred.data.dtype))

    onehot = _one_hot(mask, pred.data.dtype)
    inter = (pred * Tensor(onehot)).sum(axis=(0, 2, 3))   # (L,)
    p_sum = pred.sum(axis=(0, 2, 3))                      # (L,)
    g_sum = Tensor(onehot.sum(axis=(0, 2, 3)))
    num = (c_t * (inter * 2.0 + cfg.epsilon)).sum()
    den = (c_t * (p_sum + g_sum + cfg.epsilon)).sum()
    return 1.0 - num / den


def total_loss(pred: Tensor, mask: LabelMask, cfg: LossConfig) -> Tensor:
    """alpha * weighted cross-entropy + (1-alpha) * dice loss."""
    ce = weighted_cross_entropy(pred, mask, pixel_weights(mask, cfg))
    return cfg.alpha * ce + cfg.beta * dice_loss(pred, mask, cfg)
