"""Encoder/decoder segmentation network built from condense blocks.

The encoder is a stack of densely connected condense blocks separated by
1x1-conv + max-pool transitions; the decoder mirrors it with strided
transposed convolutions and element-wise-add skip connections. Every conv
inside a condense block is a learned group convolution, so the whole network
participates in staged condensation. A small separable-conv stem with two
filter sizes feeds the first block and a 1x1 + softmax head emits per-pixel
class probabilities.
"""

import contextlib
import itertools
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .lgconv import (
    LGConvLayer,
    condense,
    group_lasso_penalty,
    lg_forward,
    restore,
)
from .schema import (PRESENT, ConfigError, check, dumps, is_int, optional, read_config,
                     read_record, write_file)
from .tensor import (
    BLAS_THREAD_VARS,
    RunningStats,
    ShapeError,
    Tensor,
    conv2d,
    conv2d_transpose,
    grow_channels,
    he_normal,
    max_pool2d,
    no_graph,
    scale_shift,
    softmax_channels,
)
from .volume import LABEL_NAMES

CHECKPOINT_MAGIC = "condenseg-net"
# version 1 files also carry a per-layer pruning log, `history`, which
# loading ignores: a layer's condensation state is its mask and its stage
CHECKPOINT_VERSIONS = (1, 2)
CHECKPOINT_DTYPES = ("<f4", "<f8")


@dataclass(frozen=True)
class NetConfig:
    input_size: int = 128
    num_classes: int = len(LABEL_NAMES)
    growth_rate: int = 16
    groups: int = 4
    condensation_factor: int = 4
    layers_per_block: tuple = (2, 3, 4, 5, 4, 3, 2)
    initial_features: int = 32
    pool_layers: int = 3

    def __post_init__(self):
        v = []
        lb = list(self.layers_per_block)
        if len(lb) < 3 or len(lb) % 2 == 0:
            v.append("layers_per_block needs an odd number of entries >= 3, got %d" % len(lb))
        if lb != lb[::-1]:
            v.append("layers_per_block must be palindromic, got %s" % (lb,))
        if any(n < 1 for n in lb):
            v.append("layers_per_block entries must be positive")
        if self.pool_layers != len(lb) // 2:
            v.append("pool_layers must be %d for %d blocks, got %d"
                     % (len(lb) // 2, len(lb), self.pool_layers))
        if self.input_size < 1 or self.input_size % (2 ** max(self.pool_layers, 0)):
            v.append("input_size %d not divisible by 2^%d"
                     % (self.input_size, self.pool_layers))
        if self.num_classes != len(LABEL_NAMES):  # the classes every training mask has
            v.append("num_classes must be %d, got %r" % (len(LABEL_NAMES), self.num_classes))
        if self.growth_rate < 1 or self.groups < 1 or self.growth_rate % self.groups:
            v.append("growth_rate %d must be a positive multiple of groups %d"
                     % (self.growth_rate, self.groups))
        if self.condensation_factor < 1:
            v.append("condensation_factor must be >= 1")
        if self.initial_features < 2 or self.initial_features % 2:
            v.append("initial_features must be even and >= 2 (two stem branches)")
        if v:
            raise ConfigError("invalid network config: " + "; ".join(v))

    def to_dict(self):
        return asdict(self)  # JSON writes the tuple as a list, which read_config takes


def _kernel(cout, cin, kh, kw, dtype, name):
    """A zero (cout, cin, kh, kw) parameter; `build` draws its values."""
    return Tensor(np.zeros((cout, cin, kh, kw), dtype=dtype), requires_grad=True, name=name)


# Module protocol: every network part lists, in checkpoint order, its `parts`
# (parameter Tensors, BatchNorms, LGConvLayers and child parts) and, for MAC
# counting, its `kernels` as (kernel, resolution of the input its GEMM runs
# over) pairs. Tensors carry their full state names, so one walk yields
# parameters, state and layers.


def _walk(parts):
    for p in parts:
        yield p
        yield from _walk(getattr(p, "parts", ()))


class BatchNorm:
    """Batch normalization + ReLU in one op (`scale_shift`, eps `BN_EPS`), with
    running stats: batch statistics in training, the running stats folded
    into one per-channel multiply-add at inference.  Inference is
    forward-only: its output is a leaf.  The output has the input's dtype
    in both modes."""

    def __init__(self, channels, dtype, name):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True,
                            name=name + ".gamma")
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True,
                           name=name + ".beta")
        self.stats = RunningStats(channels, dtype=dtype)
        # the running stats are state, not parameters: named views, no grad
        self.parts = (self.gamma, self.beta,
                      Tensor(self.stats.mean, name=name + ".running_mean"),
                      Tensor(self.stats.var, name=name + ".running_var"))

    def __call__(self, x, training):
        return scale_shift(x, self.gamma, self.beta, training=training,
                           running=self.stats)


class Stem:
    """Two stacked separable convolutions (3x3 and 5x5 receptive fields),
    grown channel-wise in one (B, out_channels, H, W) buffer (`grow_channels`)."""

    def __init__(self, out_channels, res, dtype, name="stem"):
        half = out_channels // 2
        self.dw3 = _kernel(1, 1, 3, 3, dtype, name + ".dw3")
        self.pw3 = _kernel(half, 1, 1, 1, dtype, name + ".pw3")
        self.dw5 = _kernel(1, 1, 5, 5, dtype, name + ".dw5")
        self.pw5 = _kernel(half, 1, 1, 1, dtype, name + ".pw5")
        self.parts = (self.dw3, self.pw3, self.dw5, self.pw5)
        self.kernels = [(k, res) for k in self.parts]

    def forward(self, x, training):
        a = conv2d(conv2d(x, self.dw3, padding=1), self.pw3)
        buf = np.empty((a.shape[0], 2 * a.shape[1]) + a.shape[2:], dtype=a.dtype)
        a = grow_channels(buf, a)
        return grow_channels(buf, conv2d(conv2d(x, self.dw5, padding=2), self.pw5), a)


class DenseLayer:
    """Pre-activation unit: norm + ReLU -> 3x3 learned group conv."""

    def __init__(self, in_channels, cfg: NetConfig, dtype, name):
        self.bn = BatchNorm(in_channels, dtype, name + ".bn")
        self.lg = LGConvLayer(in_channels, cfg.growth_rate, kernel_size=3,
                              groups=cfg.groups,
                              condensation_factor=cfg.condensation_factor,
                              dtype=dtype, name=name + ".lg")
        self.parts = (self.bn, self.lg.kernel, self.lg)

    def forward(self, x, training):
        return lg_forward(self.lg, self.bn(x, training), padding=1)


class CondenseBlock:
    """Densely connected stack: layer i sees the block input plus every
    earlier layer's output and appends growth_rate feature maps.

    The block grows in one (B, out_channels, H, W) buffer (Pleiss et al.,
    memory-efficient DenseNets): the input is copied in once, each layer's
    new maps once into their channels, and every layer reads the grown
    prefix as a view (`grow_channels`).  In training, the BNs that read the
    buffer (the layers' and the next module's) share its normalisation,
    each computing only the channels new to it, and each layer's output is
    held only in the buffer.  Outputs and gradients keep the bytes of a
    chain of fresh concatenations."""

    def __init__(self, in_channels, n_layers, res, cfg, dtype, name):
        self.layers = []
        c = in_channels
        for i in range(n_layers):
            self.layers.append(DenseLayer(c, cfg, dtype, "%s.layer%d" % (name, i)))
            c += cfg.growth_rate
        self.out_channels = c
        self.parts = self.layers
        self.kernels = [(l.lg.kernel, res) for l in self.layers]

    def forward(self, x, training):
        buf = np.empty((x.shape[0], self.out_channels) + x.shape[2:], dtype=x.dtype)
        x = grow_channels(buf, x)
        for layer in self.layers:
            x = grow_channels(buf, layer.forward(x, training), x)
        return x


class Transition:
    """norm + ReLU -> channel-halving 1x1 conv -> 2x2 max pool."""

    def __init__(self, in_channels, res, dtype, name):
        self.out_channels = (in_channels + 1) // 2
        self.bn = BatchNorm(in_channels, dtype, name + ".bn")
        self.kernel = _kernel(self.out_channels, in_channels, 1, 1, dtype, name + ".kernel")
        self.parts = (self.bn, self.kernel)
        self.kernels = [(self.kernel, res)]

    def forward(self, x, training):
        return max_pool2d(conv2d(self.bn(x, training), self.kernel))


class UpBlock:
    """norm + ReLU -> 1x1 reduce -> stride-2 transposed conv, plus a 1x1
    projection of the encoder skip; the two branches are added element-wise.
    `res` is the input resolution; the output is twice that.  The transposed
    conv's GEMM runs on its `res` input, never on the output frame."""

    def __init__(self, in_channels, skip_channels, res, dtype, name):
        self.out_channels = (skip_channels + 1) // 2
        d = self.out_channels
        self.bn = BatchNorm(in_channels, dtype, name + ".bn")
        self.reduce = _kernel(d, in_channels, 1, 1, dtype, name + ".reduce")
        # transposed-conv layout: (in, out, kh, kw)
        self.up = _kernel(d, d, 3, 3, dtype, name + ".up")
        self.skip_proj = _kernel(d, skip_channels, 1, 1, dtype, name + ".skip_proj")
        self.parts = (self.bn, self.reduce, self.up, self.skip_proj)
        self.kernels = [(self.reduce, res), (self.up, res),
                        (self.skip_proj, 2 * res)]

    def forward(self, x, skip, training):
        h = conv2d(self.bn(x, training), self.reduce)
        h = conv2d_transpose(h, self.up, stride=2, size=skip.shape[2:])
        return h + conv2d(skip, self.skip_proj)


class Head:
    """norm + ReLU -> 1x1 conv to class logits -> per-pixel softmax."""

    def __init__(self, in_channels, num_classes, res, dtype, name="head"):
        self.bn = BatchNorm(in_channels, dtype, name + ".bn")
        self.kernel = _kernel(num_classes, in_channels, 1, 1, dtype, name + ".kernel")
        self.parts = (self.bn, self.kernel)
        self.kernels = [(self.kernel, res)]

    def forward(self, x, training):
        return softmax_channels(conv2d(self.bn(x, training), self.kernel))


class Network:
    """The modules `config` describes, wired with zero kernels; `build`
    draws them and `load_checkpoint` reads them."""

    def __init__(self, config: NetConfig, dtype=np.float64):
        self.config = config
        self.dtype = dtype
        p = config.pool_layers
        lb = list(config.layers_per_block)
        res = config.input_size

        self.stem = Stem(config.initial_features, res, dtype)
        c = config.initial_features
        self.encoders, self.transitions = [], []
        for i in range(p):
            enc = CondenseBlock(c, lb[i], res, config, dtype, "enc%d" % i)
            self.encoders.append(enc)
            self.transitions.append(Transition(enc.out_channels, res, dtype, "trans%d" % i))
            c = self.transitions[i].out_channels
            res //= 2

        self.bottleneck = CondenseBlock(c, lb[p], res, config, dtype, "bottleneck")
        c = self.bottleneck.out_channels

        self.up_blocks, self.decoders = [], []
        for j in range(p):
            up = UpBlock(c, self.encoders[p - 1 - j].out_channels, res, dtype, "up%d" % j)
            res *= 2
            self.up_blocks.append(up)
            self.decoders.append(CondenseBlock(up.out_channels, lb[p + 1 + j], res, config,
                                               dtype, "dec%d" % j))
            c = self.decoders[j].out_channels

        self.head = Head(c, config.num_classes, res, dtype)
        # the structure is fixed once built, so walk it once
        self._walked = [p for _, m in self.named_modules() for p in _walk(m.parts)]

    # -- wiring ---------------------------------------------------------

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        """Class probabilities of a (B,1,S,S) batch.  An eval forward
        records no graph (`no_graph`): its output is a leaf, and each
        activation is freed once the next op has read it."""
        s = self.config.input_size
        if x.data.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != (s, s):
            raise ShapeError("expected input (B,1,%d,%d), got %s" % (s, s, x.shape))
        with contextlib.nullcontext() if training else no_graph():
            h = self.stem.forward(x, training)
            skips = []
            for enc, tr in zip(self.encoders, self.transitions):
                h = enc.forward(h, training)
                skips.append(h)
                h = tr.forward(h, training)
            h = self.bottleneck.forward(h, training)
            for up, dec, skip in zip(self.up_blocks, self.decoders, reversed(skips)):
                h = up.forward(h, skip, training)
                h = dec.forward(h, training)
            return self.head.forward(h, training)

    def named_modules(self):
        mods = [("stem", self.stem)]
        for i, (enc, tr) in enumerate(zip(self.encoders, self.transitions)):
            mods.append(("enc%d" % i, enc))
            mods.append(("trans%d" % i, tr))
        mods.append(("bottleneck", self.bottleneck))
        for i, (up, dec) in enumerate(zip(self.up_blocks, self.decoders)):
            mods.append(("up%d" % i, up))
            mods.append(("dec%d" % i, dec))
        mods.append(("head", self.head))
        return mods

    def _parts(self, kind):
        """Every part of type `kind`, in checkpoint order."""
        return [p for p in self._walked if isinstance(p, kind)]

    def parameters(self):
        return [t for t in self._parts(Tensor) if t.requires_grad]

    def lg_layers(self):
        return self._parts(LGConvLayer)

    def bn_modules(self):
        return self._parts(BatchNorm)

    def apply_masks(self):
        for lg in self.lg_layers():
            lg.apply_mask()

    def lasso_penalty(self):
        total = None
        for lg in self.lg_layers():
            term = group_lasso_penalty(lg)
            total = term if total is None else total + term
        return total

    # -- accounting -------------------------------------------------------

    def _weights(self, mode):
        """Weight count per parameter name; in alive mode an LG kernel counts
        only its unpruned connections."""
        if mode not in ("dense", "alive"):
            raise ValueError("mode must be 'dense' or 'alive'")
        sizes = {p.name: p.data.size for p in self.parameters()}
        if mode == "alive":
            for lg in self.lg_layers():
                sizes[lg.kernel.name] = int(lg.mask.sum()) * lg.kernel_size ** 2
        return sizes

    def param_count(self, mode: str = "dense") -> int:
        return int(sum(self._weights(mode).values()))

    def flop_count(self, mode: str = "dense") -> int:
        """Forward multiply-accumulates per image: each kernel's weights times
        the positions of the input its GEMM runs over.  For the stride-1
        convs those are the output positions; a stride-2 transposed conv's
        GEMM runs on its narrow input, a quarter of its output."""
        sizes = self._weights(mode)
        return int(sum(sizes[k.name] * res * res
                       for _, m in self.named_modules() for k, res in m.kernels))

    # -- checkpoint state -------------------------------------------------

    def state_entries(self):
        """(name, array) pairs: weights and running stats in declaration
        order, then all condensation masks."""
        return ([(t.name, t.data) for t in self._parts(Tensor)]
                + [(lg.name + ".mask", lg.mask) for lg in self.lg_layers()])


def build(config: NetConfig, rng, dtype=np.float64) -> Network:
    """A network with every kernel drawn He-normal from `rng`, in parameter
    order."""
    net = Network(config, dtype)
    for p in net.parameters():
        if p.data.ndim == 4:
            he_normal(p, rng)
    return net


def apply_condensation(net: Network, stage: int):
    """Condense every LG-Conv layer up to `stage` (`condensation_stage`);
    `condense` raises StageError for a stage past a layer's C-1.

    Returns a list of (layer_name, report) events; empty when none moved.
    """
    events = []
    for lg in net.lg_layers():
        while lg.stage < stage:
            events.append((lg.name, condense(lg)))
    return events


# -- checkpoint i/o ----------------------------------------------------


def _provenance():
    """What trained bytes depend on besides code and seed: the NumPy
    version, the BLAS it calls, and what fixes the BLAS thread count: the
    environment variables OpenBLAS reads (None when unset) and the CPU
    count it falls back to."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "cpu_count": os.cpu_count()}


def save_checkpoint(net: Network, path, epoch: int = 0, extra=None):
    """Single binary file: one JSON header line, then raw little-endian
    buffers in manifest order.  The header's `provenance` is informational:
    `load_checkpoint` ignores it."""
    entries = net.state_entries()
    manifest = [{"name": n, "shape": list(a.shape),
                 "dtype": np.dtype(a.dtype).newbyteorder("<").str}
                for n, a in entries]
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSIONS[-1],
        "config": net.config.to_dict(),
        "epoch": epoch,
        "lg_stages": {lg.name: lg.stage for lg in net.lg_layers()},
        "bn_initialized": [bn.stats.initialized for bn in net.bn_modules()],
        "manifest": manifest,
        "provenance": _provenance(),
        "extra": extra or {},
    }
    write_file(path, itertools.chain([dumps(header)], (np.ascontiguousarray(
        a, dtype=np.dtype(a.dtype).newbyteorder("<")).tobytes() for _, a in entries)))


_HEADER = {"format": (lambda f: f == CHECKPOINT_MAGIC, repr(CHECKPOINT_MAGIC)),
           "version": (lambda v: is_int(v) and v in CHECKPOINT_VERSIONS,
                       "one of %s" % (CHECKPOINT_VERSIONS,)),
           "config": (lambda c: isinstance(c, dict), "a dict"),
           "manifest": (lambda m: isinstance(m, list), "a list"),
           "lg_stages": (lambda s: isinstance(s, dict), "a dict"),
           "epoch": optional((is_int, "an int"))}
_CONFIG_KEYS = {f.name: PRESENT for f in fields(NetConfig)}
_MANIFEST_ENTRY = {"name": (lambda n: isinstance(n, str), "a string"),
                   "shape": (lambda s: isinstance(s, list) and all(is_int(d) and d >= 0 for d in s),
                             "a list of non-negative ints"),
                   "dtype": (lambda t: t in CHECKPOINT_DTYPES, "one of %s" % (CHECKPOINT_DTYPES,))}


def load_checkpoint(path):
    """Rebuild a Network from a checkpoint file of version 1 or 2; returns
    (net, header).

    A malformed header or buffer raises ValueError naming the field (a
    ConfigError for a bad `config`).  Condensation state that contradicts
    itself raises one naming the layer (`lgconv.restore`)."""
    where = "checkpoint %s: " % path
    header, blob = read_record(path, ValueError, where + "header")
    check(header, _HEADER, ValueError, where + "header")
    config, manifest = header["config"], header["manifest"]
    check(config, _CONFIG_KEYS, ValueError, where + "config", closed=True)
    for i, item in enumerate(manifest, 1):
        check(item, _MANIFEST_ENTRY, ValueError, where + "manifest entry %d" % i)
    dtype = np.dtype(manifest[0]["dtype"] if manifest else np.float64)
    net = Network(read_config(NetConfig, config, where + "config"), dtype)
    arrays, bns = dict(net.state_entries()), net.bn_modules()
    check(header, {"bn_initialized": (lambda f: isinstance(f, list) and len(f) == len(bns)
                                      and all(type(b) is bool for b in f),
                                      "a list of %d bools" % len(bns))},
          ValueError, where + "header")
    offset = 0
    for item in manifest:
        if np.dtype(item["dtype"]) != dtype:
            raise ValueError("checkpoint %s: %s has dtype %s, expected %s"
                             % (path, item["name"], item["dtype"], dtype.str))
        n = math.prod(item["shape"])
        end = offset + n * dtype.itemsize
        if end > len(blob):
            raise ValueError("checkpoint %s: truncated buffer for %s"
                             % (path, item["name"]))
        buf = blob[offset:end].view(dtype).reshape(item["shape"])
        offset = end
        dst = arrays.pop(item["name"], None)
        if dst is None:
            raise ValueError("%sunknown or repeated buffer %s" % (where, item["name"]))
        if dst.shape != buf.shape:
            raise ValueError("checkpoint %s: %s has shape %s, expected %s"
                             % (path, item["name"], buf.shape, dst.shape))
        dst[...] = buf
    if arrays:
        raise ValueError("%smissing buffer %s" % (where, next(iter(arrays))))
    if offset != len(blob):
        raise ValueError("checkpoint %s: %d trailing bytes" % (path, len(blob) - offset))
    stages = check(header["lg_stages"], dict.fromkeys((lg.name for lg in net.lg_layers()),
                                                      (is_int, "an int")),
                   ValueError, where + "lg_stages", closed=True)
    for lg in net.lg_layers():
        restore(lg, stages[lg.name], where)
    for bn, flag in zip(bns, header["bn_initialized"]):
        bn.stats.initialized = flag
    return net, header
