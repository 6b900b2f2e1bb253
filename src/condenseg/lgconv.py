"""Learned group convolution with staged connection pruning.

A layer's N filters are split into M equal filter-groups. Every group starts
connected to all h input channels; over C-1 condensing stages each group drops
its least important connections until only ceil(h/C) per group survive. A
group-lasso penalty pushes whole (group, channel) weight blocks toward zero so
the pruning decision is cheap to make.

After the last stage a layer runs gathered: its forward reads each group's
alive channels only (conv2d's `index`), with the masked dense conv's bytes,
and its backward stays the masked dense one. `to_inference` builds the
compact kernel plus indices, `InferenceLGConv`: a per-group conv loop of its
own that is the reference the gathered forward is checked against, and the
layer's weight count.
"""

import numpy as np

from .tensor import ShapeError, Tensor, _result, conv2d

__all__ = [
    "StageError",
    "LGConvLayer",
    "InferenceLGConv",
    "lg_forward",
    "importance_scores",
    "condense",
    "condensation_stage",
    "restore",
    "group_lasso_penalty",
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
    """Masked dense convolution; pruned connections contribute nothing.

    A fully condensed layer (C > 1) runs its forward over each group's
    alive channels only; the masked products it skips are zeros, so its
    output and gradients keep the masked dense conv's bytes."""
    k = layer.kernel
    mask4 = np.broadcast_to(layer.mask[:, :, None, None], k.shape)
    masked = k * Tensor(np.ascontiguousarray(mask4, dtype=k.data.dtype))
    C = layer.condensation_factor
    index = None
    if C > 1 and layer.stage == C - 1:  # each group's ascending alive channels
        index = np.stack([np.flatnonzero(m) for m in layer.grouped()[1][:, 0]])
    return conv2d(x, masked, padding=padding, index=index)


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


def restore(layer: LGConvLayer, stage: int, where: str):
    """The inverse of `condense` for a layer whose kernel and mask were read
    back: set its stage to `stage` once they hold the state that many stages
    leave, `stage` in [0, C-1], every filter-group's mask rows identical 0/1
    rows keeping ceil(h*(C-stage)/C) channels and the kernel zero where the
    mask is 0; else ValueError led by `where`, naming the layer."""
    if not 0 <= stage < layer.condensation_factor:
        raise ValueError("%s%s is at stage %d, outside [0, %d]"
                         % (where, layer.name, stage, layer.condensation_factor - 1))
    w, mask = layer.grouped()
    if (mask != mask[:, :1]).any():
        raise ValueError("%s%s mask rows differ within a filter-group" % (where, layer.name))
    want = _alive_per_group(layer.in_channels, layer.condensation_factor, stage)
    if ((mask != 0) & (mask != 1)).any() or layer.alive_per_group() != [want] * layer.groups:
        raise ValueError("%s%s mask is not 0/1 keeping %d channels per group at stage %d"
                         % (where, layer.name, want, stage))
    if (w[mask == 0] != 0).any():  # -0.0 == 0
        raise ValueError("%s%s kernel has nonzero weights where its mask is 0"
                         % (where, layer.name))
    layer.stage = stage


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


def condensation_stage(epoch: int, epochs: int, C: int) -> int:
    """Condensing stages done by `epoch` of `epochs`: C-1 equal stages start
    at epochs*k // (2(C-1)), k = 1..C-1, filling the first half of training;
    from epoch epochs//2 on the stage is C-1, plain optimization.
    ValueError for an epoch outside [0, epochs), or for too few epochs: two
    stages starting on one epoch, or the first on epoch 0."""
    starts = [epochs * k // (2 * (C - 1)) for k in range(1, C)]
    if 0 in starts or len(set(starts)) < len(starts):
        raise ValueError("%d epochs too few for %d condensing stages" % (epochs, C - 1))
    if not 0 <= epoch < epochs:
        raise ValueError("epoch %d outside [0, %d)" % (epoch, epochs))
    return sum(epoch >= s for s in starts)


class InferenceLGConv:
    """Compact form: a channel gather plus one conv per filter-group.  Its
    own loop, kept apart from `lg_forward`'s gathered path so that checks
    comparing the two compare independent code."""

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
