"""Learned group convolution with staged connection pruning.

A layer's N filters are split into M equal filter-groups. Every group starts
connected to all h input channels; over C-1 condensing stages each group drops
its least important connections until only ceil(h/C) per group survive. A
group-lasso penalty pushes whole (group, channel) weight blocks toward zero so
the pruning decision is cheap to make. After the last stage the layer can be
converted to a compact gather + grouped convolution for inference.
"""

import numpy as np

from .tensor import ShapeError, Tensor, _result, conv2d

__all__ = [
    "StageError",
    "LGConvLayer",
    "CondensationSchedule",
    "InferenceLGConv",
    "lg_forward",
    "importance_scores",
    "condense",
    "group_lasso_penalty",
    "schedule_stage",
    "to_inference",
]


class StageError(RuntimeError):
    """Raised when an operation is invalid for the layer's condensation stage."""


def _alive_per_group(h, C, stage):
    """Connections each filter-group keeps after `stage` completed stages."""
    return int(np.ceil(h * (C - stage) / C))


class LGConvLayer:
    """Group-structured convolution weights plus a per-connection alive mask.

    kernel has shape (N, h, kh, kw): N filters over h input channels. mask has
    shape (N, h) with entries in {0, 1}; rows belonging to the same
    filter-group are always identical, so pruning removes an input channel
    from an entire group at once. `stage` counts completed condensing stages.
    The kernel starts at zero; `tensor.he_normal` draws it.
    """

    def __init__(self, in_channels, out_channels, kernel_size=3, groups=1,
                 condensation_factor=1, name="lgconv", dtype=np.float64):
        if out_channels % groups != 0:
            raise ShapeError(
                "out_channels %d not divisible by groups %d" % (out_channels, groups))
        if condensation_factor < 1:
            raise ValueError("condensation_factor must be >= 1")
        if condensation_factor > 1 and _alive_per_group(
                in_channels, condensation_factor, condensation_factor - 1) < 1:
            raise ValueError("condensation_factor too large for %d input channels"
                             % in_channels)
        self.groups = groups
        self.condensation_factor = condensation_factor
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.name = name
        self.stage = 0
        self.kernel = Tensor(np.zeros((out_channels, in_channels, kernel_size, kernel_size),
                                      dtype=dtype), requires_grad=True, name=name + ".kernel")
        self.mask = np.ones((out_channels, in_channels), dtype=dtype)

    def grouped(self):
        """Writable views of the kernel as (M, N/M, h, kh, kw) and of the
        mask as (M, N/M, h); the first axis is the filter-group."""
        M, h, k = self.groups, self.in_channels, self.kernel_size
        return (self.kernel.data.reshape(M, -1, h, k, k),
                self.mask.reshape(M, -1, h))

    def alive_per_group(self):
        """Alive input-channel count of each filter-group (they all agree)."""
        return [int(n) for n in self.grouped()[1][:, 0].sum(axis=1)]

    def apply_mask(self):
        """Force pruned weights back to exactly zero (after optimizer steps)."""
        self.kernel.data *= self.mask[:, :, None, None]


def lg_forward(layer: LGConvLayer, x: Tensor, padding: int = 0) -> Tensor:
    """Masked dense convolution; pruned connections contribute nothing."""
    if x.shape[1] != layer.in_channels:
        raise ShapeError("expected %d input channels, got %d"
                         % (layer.in_channels, x.shape[1]))
    k = layer.kernel
    mask4 = np.broadcast_to(layer.mask[:, :, None, None], k.shape)
    masked = k * Tensor(np.ascontiguousarray(mask4, dtype=k.data.dtype))
    return conv2d(x, masked, padding=padding)


def importance_scores(layer: LGConvLayer) -> np.ndarray:
    """Mean |weight| per (filter-group, input channel); pruned entries -inf.

    Averaging runs over the group's filters and all kernel positions, so the
    score of channel j answers: how strongly does this group use channel j?
    """
    w, mask = layer.grouped()
    scores = np.abs(w).mean(axis=(1, 3, 4)).astype(np.float64)
    scores[mask[:, 0] == 0] = -np.inf  # a group's first row speaks for all
    return scores


def condense(layer: LGConvLayer):
    """Prune each group's least important alive channels; advance the stage.

    After completing stage s every group keeps ceil(h*(C-s)/C) channels, so
    the C-1 stages together remove a (C-1)/C fraction of the connections.
    Returns a report dict (stage, per-group pruned channel lists, alive count).
    """
    C = layer.condensation_factor
    if layer.stage >= C - 1:
        raise StageError("layer %r is fully condensed (stage %d of factor %d)"
                         % (layer.name, layer.stage, C))
    h = layer.in_channels
    target = _alive_per_group(h, C, layer.stage + 1)
    scores = importance_scores(layer)
    w, mask = layer.grouped()
    pruned = []
    for g in range(layer.groups):
        alive = np.flatnonzero(mask[g, 0])
        n_drop = len(alive) - target
        # stable ascending sort: ties fall to the lower channel index
        order = alive[np.argsort(scores[g, alive], kind="stable")]
        drop = np.sort(order[:n_drop])
        mask[g, :, drop] = 0
        w[g, :, drop] = 0.0
        pruned.append([int(j) for j in drop])
    layer.stage += 1
    return {"stage": layer.stage, "pruned": pruned, "alive_per_group": target}


def group_lasso_penalty(layer: LGConvLayer) -> Tensor:
    """Sum over (group, channel) blocks of the block's weight L2 norm.

    Differentiable scalar: the gradient of each block is w/||w||, taken as 0
    for an all-zero block, so pruned connections stay untouched.
    """
    k = layer.kernel
    w = layer.grouped()[0]
    norms = np.sqrt((w * w).sum(axis=(1, 3, 4)))  # (M, h)
    out = _result(np.asarray(norms.sum()), (k,))
    if out.requires_grad:
        def backward(g):
            safe = np.where(norms > 0, norms, 1.0)
            d = (w / safe[:, None, :, None, None]).reshape(k.shape)
            k._accumulate(d * float(g))

        out._backward = backward
    return out


class CondensationSchedule:
    """Stage boundaries: C-1 equal condensing stages fill the first half of
    training and the second half is plain optimization."""

    def __init__(self, total_epochs: int, C: int):
        if total_epochs < 1:
            raise ValueError("total_epochs must be positive")
        if C < 1:
            raise ValueError("condensation factor must be >= 1")
        self.total_epochs = total_epochs
        self.C = C
        self.stage_boundaries = [total_epochs * k // (2 * (C - 1))
                                 for k in range(1, C)]
        if any(b >= c for b, c in zip(self.stage_boundaries,
                                      self.stage_boundaries[1:])) or \
                (self.stage_boundaries and self.stage_boundaries[0] < 1):
            raise ValueError("total_epochs %d too small for %d condensing stages"
                             % (total_epochs, C - 1))


def schedule_stage(sched: CondensationSchedule, epoch: int) -> int:
    """Stage the epoch belongs to; C-1 means the optimization phase."""
    if not 0 <= epoch < sched.total_epochs:
        raise ValueError("epoch %d outside [0, %d)" % (epoch, sched.total_epochs))
    stage = 0
    for b in sched.stage_boundaries:
        if epoch >= b:
            stage += 1
    return stage


class InferenceLGConv:
    """Compact inference form: per-group channel gather plus grouped conv."""

    def __init__(self, index, grouped_kernel):
        self.index = index                    # (M, alive) int
        self.grouped_kernel = grouped_kernel  # (M, N/M, alive, kh, kw)

    def forward(self, x: np.ndarray, stride: int = 1,
                padding: int = 0) -> np.ndarray:
        outs = [conv2d(Tensor(x[:, idx]), Tensor(k), stride, padding).data
                for idx, k in zip(self.index, self.grouped_kernel)]
        return np.concatenate(outs, axis=1)

    def weight_count(self):
        return int(self.grouped_kernel.size)


def to_inference(layer: LGConvLayer) -> InferenceLGConv:
    """Gather surviving channels into a compact grouped kernel.

    Requires the layer to be fully condensed; the compact forward matches the
    masked dense forward within INFERENCE_MATCH_TOL.
    """
    C = layer.condensation_factor
    if layer.stage != C - 1:
        raise StageError("layer %r not fully condensed: stage %d, need %d"
                         % (layer.name, layer.stage, C - 1))
    w, mask = layer.grouped()
    index = np.stack([np.flatnonzero(m) for m in mask[:, 0]])
    return InferenceLGConv(index, np.stack([wg[:, idx] for wg, idx in zip(w, index)]))
