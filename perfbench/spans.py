"""Span tracing from outside condenseg.

A Tracer wraps the public functions of every condenseg module (plus the
few private helpers the per-layer metrics name), the forward methods of
the network's modules, ``Tensor.backward`` and every backward closure an
op records.  Each call becomes a span: name, start, end, parent and the
attributes the metrics need.  Spans stay in memory until ``dump`` writes
them out.  Nothing under ``src/`` is changed; ``uninstall`` puts every
patched attribute back.

A backward closure is timed when the autodiff pass calls it.  Its span
carries the names of the spans that were open when the op ran forward,
so its time counts towards the op, the lgconv layer and the net module
that created it.

``Tracer(full=False)`` installs only the probes the untraced train
workload needs to find its step boundaries and validation passes.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import time
import tracemalloc
import weakref

LAYERS = ("tensor", "lgconv", "net", "loss", "roi", "clinical", "metrics",
          "phantom", "dataset", "volume", "train", "cli")
PRIVATE = {"train": ("_training_slices", "_forward_batches")}
LIGHT = ("tensor.adam_step", "train.train", "train.forward_batches")
MODULE_CLASSES = ("Stem", "CondenseBlock", "Transition", "UpBlock", "Head")
NET_MODULES = (["stem"] + ["%s%d" % (k, i) for k in ("enc", "trans") for i in range(3)]
               + ["bottleneck"] + ["%s%d" % (k, i) for k in ("up", "dec") for i in range(3)]
               + ["head"])
OPS = ("conv2d", "conv2d_transpose", "scale_shift", "max_pool2d",
       "concat_channels", "relu", "softmax_channels")
MB = float(2 ** 20)


def _span_name(layer, attr):
    attr = attr.lstrip("_")
    if layer == "cli" and attr.startswith("cmd_"):
        attr = attr[len("cmd_"):].replace("_", "-")
    return "%s.%s" % (layer, attr)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}

    @property
    def ms(self):
        return (self.end - self.start) * 1000.0


class _BackwardSlot:
    """Data descriptor standing in for ``Tensor._backward``: stores closures
    through the original slot, timed when tracing is on."""

    def __init__(self, slot, tracer):
        self.slot = slot
        self.tracer = tracer

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self.slot.__get__(obj, objtype)

    def __set__(self, obj, value):
        if value is not None and self.tracer.enabled:
            value = self.tracer.timed_closure(value)
        self.slot.__set__(obj, value)


class Tracer:
    def __init__(self, full=True):
        self.full = full
        self.enabled = False
        self.spans = []
        self.stack = []
        self._patches = []
        self._names = weakref.WeakKeyDictionary()  # net module -> "net.<name>"
        self._step = None

    # -- recording -------------------------------------------------------

    def _open(self, name):
        span = Span(name, time.perf_counter(), self.stack[-1] if self.stack else None)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name if isinstance(name, str) else name(args))
            try:
                if before is not None:
                    before(span, args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, out)
                return out
            except BaseException as err:
                span.attrs["error"] = type(err).__name__
                raise
            finally:
                tracer._close(span)

        return wrapper

    def timed_closure(self, closure):
        chain = tuple(s.name for s in self.stack)
        tracer = self

        def timed(g):
            if not tracer.enabled:
                return closure(g)
            span = tracer._open("bwd")
            span.attrs["chain"] = chain
            try:
                return closure(g)
            finally:
                tracer._close(span)

        return timed

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block leave no spans (output checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- hooks -----------------------------------------------------------

    def _net_forward_before(self, span, args, kwargs):
        net = args[0]
        if self.full:
            for name, module in net.named_modules():
                self._names[module] = "net." + name
            tracemalloc.reset_peak()
            span.attrs["mem0"] = tracemalloc.get_traced_memory()[0]
        if _training(args, kwargs):
            step = Span("train.step", span.start, span.parent)
            step.attrs["condensed"] = all(lg.stage == lg.condensation_factor - 1
                                          for lg in net.lg_layers())
            step.attrs["mem0"] = span.attrs.get("mem0", 0)
            self.spans.append(step)
            self._step = step

    def _net_forward_after(self, span, args, kwargs, out):
        if self.full and not _training(args, kwargs):
            span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1] - span.attrs["mem0"]

    def _adam_after(self, span, args, kwargs, out):
        step, self._step = self._step, None
        if step is None:
            return
        step.end = time.perf_counter()
        if self.full:
            step.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1] - step.attrs["mem0"]

    def _hooks(self):
        def conv_macs(span, args, kwargs, out):
            b, cin, _, _ = args[0].shape
            cout, _, kh, kw = args[1].shape
            span.attrs["macs"] = b * cout * out.shape[2] * out.shape[3] * cin * kh * kw

        def concat_bytes(span, args, kwargs, out):
            span.attrs["bytes"] = out.data.nbytes

        def lg_macs(span, args, kwargs, out):
            layer = args[0]
            b, n, ho, wo = out.shape
            per = b * ho * wo * layer.kernel_size ** 2
            span.attrs["executed"] = per * n * layer.in_channels
            span.attrs["alive"] = per * int(layer.mask.sum())

        def file_bytes(index):
            def after(span, args, kwargs, out):
                span.attrs["bytes"] = os.path.getsize(args[index])
            return after

        def volume_slices(span, args, kwargs, out):
            if out.data.ndim == 4:
                span.attrs["slices"] = out.data.shape[1]

        def images(span, args, kwargs):
            span.attrs["images"] = len(args[1])

        return {
            "tensor.conv2d": (None, conv_macs),
            "tensor.concat_channels": (None, concat_bytes),
            "tensor.adam_step": (None, self._adam_after),
            "lgconv.lg_forward": (None, lg_macs),
            "net.save_checkpoint": (None, file_bytes(1)),
            "net.load_checkpoint": (None, file_bytes(0)),
            "volume.load_volume": (None, volume_slices),
            "train.forward_batches": (images, None),
        }

    # -- install / uninstall --------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap condenseg in place and start recording."""
        package = importlib.import_module("condenseg")
        modules = {layer: importlib.import_module("condenseg." + layer)
                   for layer in LAYERS}
        hooks = self._hooks()
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                name = _span_name(layer, attr)
                if self.full or name in LIGHT:
                    wrapped[obj] = self._wrap(name, obj, *hooks.get(name, (None, None)))
        for mod in [package] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

        net_mod, tensor_mod = modules["net"], modules["tensor"]
        network = net_mod.Network
        self._patch(network, "forward",
                    self._wrap("net.forward", network.forward,
                               self._net_forward_before, self._net_forward_after))
        if self.full:
            names = self._names
            for cls_name in MODULE_CLASSES:
                cls = getattr(net_mod, cls_name)
                self._patch(cls, "forward", self._wrap(
                    lambda args: names.get(args[0], "net.unnamed"), cls.forward))
            tensor = tensor_mod.Tensor
            self._patch(tensor, "backward", self._wrap("tensor.backward", tensor.backward))
            self._patch(tensor, "_backward", _BackwardSlot(tensor.__dict__["_backward"], self))
            tracemalloc.start()
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        self.stack.clear()
        self._step = None
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self.full:
            tracemalloc.stop()

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON line: id, name, start, end, parent, attributes."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": ids.get(id(s.parent))}
                for key, value in s.attrs.items():
                    rec[key] = list(value) if isinstance(value, tuple) else value
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _training(args, kwargs):
    """The ``training`` argument of a ``Network.forward`` call."""
    return bool(kwargs.get("training", args[2] if len(args) > 2 else False))


def step_times(spans):
    """(dense, condensed) lists of training-step durations in ms."""
    dense, condensed = [], []
    for s in spans:
        if s.name == "train.step" and s.end > s.start:
            (condensed if s.attrs["condensed"] else dense).append(s.ms)
    return dense, condensed


def validation_ms(spans):
    """Durations of the per-epoch validation passes inside ``train``."""
    return [s.ms for s in spans if s.name == "train.forward_batches"
            and s.parent is not None and s.parent.name == "train.train"]


def layer_metrics(spans, rounds, traced_wall_s, untraced_round_s):
    """Per-layer metrics of the traced rounds.

    Times, counts and bytes are sums per round (mean over the rounds);
    step times are medians and memory figures are peaks over every span
    of their kind.
    """
    w = 1.0 / rounds
    fwd, bwd, attr_sum = {}, {}, {}
    for s in spans:
        if s.name == "bwd":
            for name in set(s.attrs["chain"]):
                bwd[name] = bwd.get(name, 0.0) + s.ms * w
        elif s.name != "train.step":
            fwd[s.name] = fwd.get(s.name, 0.0) + s.ms * w
            for key in ("macs", "bytes", "executed", "alive", "images"):
                if key in s.attrs:
                    k = (s.name, key)
                    attr_sum[k] = attr_sum.get(k, 0.0) + s.attrs[key] * w

    m = {}
    for op in OPS:
        m["tensor.%s.fwd_ms" % op] = fwd.get("tensor." + op, 0.0)
        m["tensor.%s.bwd_ms" % op] = bwd.get("tensor." + op, 0.0)
    gmacs = attr_sum.get(("tensor.conv2d", "macs"), 0.0) / 1e9
    conv_s = fwd.get("tensor.conv2d", 0.0) / 1000.0
    m["tensor.conv2d.gmacs"] = gmacs
    m["tensor.conv2d.gflops"] = 2.0 * gmacs / conv_s if conv_s else 0.0
    m["tensor.concat_channels.mb_copied"] = attr_sum.get(("tensor.concat_channels", "bytes"), 0.0) / MB
    m["tensor.adam_step.ms"] = fwd.get("tensor.adam_step", 0.0)
    # every closure span runs inside Tensor.backward, so its self time is
    # the backward total minus the closure total
    m["tensor.backward.self_ms"] = fwd.get("tensor.backward", 0.0) - w * sum(
        s.ms for s in spans if s.name == "bwd")

    m["lgconv.lg_forward.fwd_ms"] = fwd.get("lgconv.lg_forward", 0.0)
    m["lgconv.lg_forward.bwd_ms"] = bwd.get("lgconv.lg_forward", 0.0)
    executed = attr_sum.get(("lgconv.lg_forward", "executed"), 0.0)
    m["lgconv.useful_mac_ratio"] = (attr_sum.get(("lgconv.lg_forward", "alive"), 0.0)
                                    / executed if executed else 0.0)
    m["lgconv.condense.ms"] = fwd.get("lgconv.condense", 0.0)
    m["lgconv.group_lasso_penalty.ms"] = fwd.get("lgconv.group_lasso_penalty", 0.0)

    for name in NET_MODULES:
        m["net.%s.fwd_ms" % name] = fwd.get("net." + name, 0.0)
        m["net.%s.bwd_ms" % name] = bwd.get("net." + name, 0.0)
    m["net.save_checkpoint.ms"] = fwd.get("net.save_checkpoint", 0.0)
    m["net.load_checkpoint.ms"] = fwd.get("net.load_checkpoint", 0.0)
    m["net.checkpoint_mb"] = max(
        [s.attrs["bytes"] for s in spans
         if s.name in ("net.save_checkpoint", "net.load_checkpoint") and "bytes" in s.attrs],
        default=0) / MB

    m["loss.total_loss.fwd_ms"] = fwd.get("loss.total_loss", 0.0)
    m["loss.total_loss.bwd_ms"] = bwd.get("loss.total_loss", 0.0)

    m["roi.first_harmonic_map.ms"] = fwd.get("roi.first_harmonic_map", 0.0)
    m["roi.hough_circle.ms"] = fwd.get("roi.hough_circle", 0.0)
    m["roi.fallbacks"] = w * sum(s.name == "roi.center_box" for s in spans)
    for name in ("clinical.report", "metrics.dice_score", "metrics.hausdorff",
                 "phantom.generate_phantom", "dataset.save_dataset",
                 "dataset.load_dataset", "volume.save_volume", "volume.load_volume"):
        m[name + ".ms"] = fwd.get(name, 0.0)

    dense, condensed = step_times(spans)
    m["train.step.ms.dense"] = statistics.median(dense) if dense else 0.0
    m["train.step.ms.condensed"] = statistics.median(condensed) if condensed else 0.0
    m["train.validation.ms"] = w * sum(validation_ms(spans))
    for name in ("training_slices", "forward_batches", "predict_masks"):
        m["train.%s.ms" % name] = fwd.get("train." + name, 0.0)
    m["train.slices_forwarded"] = attr_sum.get(("train.forward_batches", "images"), 0.0)
    m["train.step_peak_mb"] = max(
        [s.attrs.get("peak_bytes", 0) for s in spans if s.name == "train.step"],
        default=0) / MB
    m["train.forward_batches_peak_mb"] = max(
        [s.attrs.get("peak_bytes", 0) for s in spans if s.name == "net.forward"],
        default=0) / MB

    m["cli.segment.ms"] = fwd.get("cli.segment", 0.0)
    requested, forwarded = _segment_slices(spans)
    m["cli.segment.useful_slice_ratio"] = requested / forwarded if forwarded else 0.0

    # coverage: time inside the layer spans one level below the calls the
    # benchmark makes itself, whose own code is then all that is left out
    top = {id(s) for s in spans if s.parent is None}
    covered = sum(s.ms for s in spans if s.parent is not None and id(s.parent) in top
                  and s.name != "train.step") / 1000.0
    traced_round_s = traced_wall_s / rounds
    m["trace.overhead_pct"] = 100.0 * (traced_round_s - untraced_round_s) / untraced_round_s
    m["trace.coverage_pct"] = 100.0 * covered / traced_wall_s
    return m


def _segment_slices(spans):
    """(slices requested, slices forwarded) summed over `segment` calls."""
    requested = forwarded = 0
    for s in spans:
        p = s.parent
        while p is not None and p.name != "cli.segment":
            p = p.parent
        if p is None:
            continue
        if s.name == "volume.load_volume":
            requested += s.attrs.get("slices", 0)
        elif s.name == "train.forward_batches":
            forwarded += s.attrs["images"]
    return requested, forwarded


def unit_and_better(name):
    """(unit, better direction) of a per-layer metric."""
    if name.endswith("gflops"):
        return "GFLOP/s", "higher"
    if name.endswith("gmacs"):
        return "GMAC", "lower"
    if name.endswith(("_mb", "mb_copied")):
        return "MB", "lower"
    if name.endswith("ratio"):
        return "ratio", "higher"
    if name.endswith("coverage_pct"):
        return "%", "higher"
    if name.endswith("_pct"):
        return "%", "lower"
    if name.endswith(("fallbacks", "slices_forwarded")):
        return "count", "lower"
    return "ms", "lower"

