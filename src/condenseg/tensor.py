"""Dense tensors with reverse-mode automatic differentiation.

Implements exactly the operations the segmentation network needs: 2-D
convolution and its transpose, max pooling, a batch-statistics
normalize + ReLU (`scale_shift`, whose variance epsilon is ``BN_EPS``),
channel softmax, reductions, and the small elementwise algebra the
losses are written in.  Each forward op records a backward closure;
``Tensor.backward`` replays them in reverse topological order and drops
each non-leaf gradient once its closure has used it, so a backward holds
only the gradients still to be passed on.  ``grow_channels``, the
network's one channel concat, grows the stem and each dense block in one
buffer that later layers read as prefix views; its backward hands out
views of the gradient, and training `scale_shift`s of those views share
one normalisation of the buffer's channels.  Inside ``no_graph()`` ops
record nothing and return leaves; an eval forward of the network runs
there, so it keeps no graph and frees each activation once the next op
has read it.  The state is per thread.  The weight initialiser
``he_normal`` and the Adam optimizer live here as well.

Convolutions are shift-and-add (kn2row): one GEMM of every kernel tap over
the input, then strided slice-adds of the tap planes; the adjoint
scatter-add gives the transposed conv and both gradients.  Three forwards
skip work and keep every byte: a stride-1 conv2d whose output has its
input's size adds each tap plane as one flat slice over H*W; a 1x1 conv has
the GEMM write the output; and a conv told the input channels each of its
filter-groups reads (`conv2d`'s `index`, which a fully condensed LG layer
passes) gathers them and runs one GEMM per group over those alone.  The
tap windows and shifts are planned once per shape.

Lanes (`_lanes`) are W = ``_inference_threads()`` threads, the opening one
among them, that share the per-sample work of the recording ops:
convolution forward and backward and training `scale_shift`.  Lane j
computes a contiguous range of samples into preallocated arrays, each
sample with the same NumPy and BLAS calls it gets alone; the reductions
across samples stay on the caller, in one order.  So the bytes do not
depend on W.  Work of independent items (phantoms, subjects' crops,
inference chunks) goes through the same ``_Lanes.map``, in contiguous runs
with results in input order.  Callers open lanes; `_lanes` alone picks W.

No broadcasting: tensor-tensor arithmetic requires identical shapes;
a Python number combines with a tensor of any shape.
"""

from __future__ import annotations

import os
import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

INFERENCE_MATCH_TOL = 1e-5  # compact vs masked-dense forward

BN_EPS = 1e-5  # added to the variance before `scale_shift` takes its root


class ShapeError(ValueError):
    """Raised when operand dimensions are incompatible."""


class NumericsError(ArithmeticError):
    """Raised when a value that must be finite is NaN or Inf."""


class UninitializedStatsError(RuntimeError):
    """Raised when inference-mode normalization finds no running stats."""


class Tensor:
    """Dense N-D array with an optional gradient slot.

    ``data`` is a row-major numpy array; ``grad`` stays ``None`` until a
    backward pass reaches this tensor, and on a tensor an op built it is
    ``None`` again once the pass has used it.  Tensors built by ops keep
    references to their parents plus a closure that scatters the incoming
    gradient; leaves have neither.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "_norm")

    def __init__(self, data, requires_grad=False, name=""):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = ()
        self._backward = None
        self._norm = None  # a `grow_channels` result's `_BlockNorm`

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, name={self.name!r})"

    # -- graph plumbing ------------------------------------------------

    def _accumulate(self, g, fresh=False):
        """Add g to the gradient.  A `fresh` g is an array the op made for
        this tensor alone, or a view of a spent gradient that nothing reads
        again (`grow_channels`): the first gradient takes it without a copy,
        and a later one is added into it in place."""
        if self.grad is None:
            if fresh and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode pass from a scalar; fills .grad on reachable leaves.

        Each node's closure runs once every gradient has reached the node;
        a non-leaf's gradient is released as soon as its closure has
        consumed it, so the pass holds only gradients still to be passed on.
        Leaves (parameters, inputs: tensors without a closure) keep theirs.
        """
        if self.data.shape != ():
            raise ShapeError(f"backward() needs a scalar root, got shape {self.shape}")
        topo, visited = [], set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=self.data.dtype)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # -- elementwise algebra -------------------------------------------

    def _binary(self, other, fwd, bwd_self, bwd_other):
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")
            out = _result(fwd(self.data, other.data), (self, other))
            if out.requires_grad:
                a, b = self, other

                def backward(g):
                    if a.requires_grad:
                        a._accumulate(bwd_self(g, a.data, b.data))
                    if b.requires_grad:
                        b._accumulate(bwd_other(g, a.data, b.data))

                out._backward = backward
            return out
        # python scalar
        c = float(other)
        out = _result(fwd(self.data, c), (self,))
        if out.requires_grad:
            a = self
            out._backward = lambda g: a._accumulate(bwd_self(g, a.data, c))
        return out

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b,
                            lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b,
                            lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        out = _result(-self.data, (self,))
        if out.requires_grad:
            a = self
            out._backward = lambda g: a._accumulate(-g)
        return out

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b,
                            lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b,
                            lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))

    def log(self):
        out = _result(np.log(self.data), (self,))
        if out.requires_grad:
            a = self
            out._backward = lambda g: a._accumulate(g / a.data)
        return out

    def clamp_min(self, lo: float):
        out = _result(np.maximum(self.data, lo), (self,))
        if out.requires_grad:
            a = self
            mask = self.data >= lo
            out._backward = lambda g: a._accumulate(g * mask)
        return out

    def sum(self, axis=None):
        out = _result(np.asarray(np.sum(self.data, axis=axis)), (self,))
        if out.requires_grad:
            a = self
            shp = self.shape

            def backward(g):
                if axis is None:
                    a._accumulate(np.broadcast_to(g, shp))
                else:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    g_exp = np.expand_dims(g, axes)
                    a._accumulate(np.broadcast_to(g_exp, shp))

            out._backward = backward
        return out


class _ThreadState(threading.local):
    recording = True  # each thread starts recording
    pool = None  # the _Lanes this thread opened


_local = _ThreadState()


@contextmanager
def no_graph():
    """Ops this thread runs inside the block return leaves that require no
    grad: no parents, no backward closure.  Other threads are unaffected."""
    was, _local.recording = _local.recording, False
    try:
        yield
    finally:
        _local.recording = was


def _result(data, parents):
    req = _local.recording and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
    return out


# -- lanes --------------------------------------------------------------


# What fixes the threads each BLAS call takes: OpenBLAS reads the first of
# these that holds a positive int, capped at the CPUs the process may use;
# with none such it runs one thread per such CPU
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def _inference_threads():
    """W, the lanes the program's parallel work runs on: the CPUs this
    process may use over the threads each BLAS call takes, by OpenBLAS's
    rule at BLAS_THREAD_VARS; one when none of those variables is set."""
    cpus = _usable_cpus()
    for var in BLAS_THREAD_VARS:
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return cpus // min(blas, cpus)
    return 1


def _map_run(fn, items):
    return [fn(x) for x in items]


class _Lanes:
    """The opening thread plus `count` - 1 worker threads, hand-written: a
    `concurrent.futures` pool made a step 7-11% slower (2 vCPUs, W = 2)."""

    def __init__(self, count):
        self.count = count
        self._boxes = [(queue.SimpleQueue(), queue.SimpleQueue()) for _ in range(count - 1)]
        self._threads = [threading.Thread(target=self._serve, args=box, daemon=True)
                         for box in self._boxes]
        for thread in self._threads:
            thread.start()

    @staticmethod
    def _serve(inbox, outbox):
        for task in iter(inbox.get, None):
            try:
                outbox.put((None, task()))
            except BaseException as err:  # handed to the caller to raise
                outbox.put((err, None))

    def map(self, fn, items):
        """[fn(x) for x in items]: lane j maps the j-th of min(count, len(items))
        contiguous near-equal runs of items, lane 0 being the caller, and
        this returns once every run is done.  The results keep input order,
        and the error raised is that of the first item, in input order, that
        failed, so neither depends on the lane count."""
        n = max(1, min(self.count, len(items)))
        runs = [items[len(items) * j // n:len(items) * (j + 1) // n] for j in range(n)]
        for (inbox, _), run in zip(self._boxes, runs[1:]):
            inbox.put(partial(_map_run, fn, run))
        done = []
        try:
            done.append((None, _map_run(fn, runs[0])))
        finally:  # the workers may still write into the caller's arrays
            done += [outbox.get() for _, outbox in self._boxes[:n - 1]]
        for err, _ in done:
            if err is not None:
                raise err
        return [value for _, values in done for value in values]

    def close(self):
        for inbox, _ in self._boxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join()


@contextmanager
def _lanes():
    """Lanes for this thread's block: W = `_inference_threads()`, so W - 1
    worker threads, stopped and joined when the block ends (none for W = 1).
    Inside lanes already open on this thread the block reuses those.
    Yields the _Lanes."""
    if _local.pool is not None:
        yield _local.pool
        return
    pool = _local.pool = _Lanes(_inference_threads())
    try:
        yield pool
    finally:
        _local.pool = None
        pool.close()


def _split(fn, b):
    """Run fn(samples) over the slice [0, b) of a batch: one contiguous
    near-equal range per lane when this thread opened lanes and records a
    graph, else fn(slice(0, b)) on the caller, as for a batch of fewer than
    two samples.  fn calls only private helpers and NumPy."""
    pool = _local.pool
    n = min(pool.count, b) if pool is not None and _local.recording else 1
    if n < 2:
        fn(slice(0, b))
        return
    pool.map(fn, [slice(b * j // n, b * (j + 1) // n) for j in range(n)])


def grow_channels(buf, new: Tensor, prefix: Tensor | None = None) -> Tensor:
    """The network's one channel concat: [prefix, new] along the channels,
    grown in place inside `buf`, a (B,C,H,W) array whose leading channels
    `prefix` views (none when `prefix` is None).  `new` is copied into the
    channels after the prefix, and the result is a Tensor over buf's
    channels up to its end, a view again.  The stem and each dense block
    grow in one such buffer, so no earlier feature map is copied twice.
    Once copied, `new` holds buf's copy of its values unless it is a leaf
    that requires grad or of another dtype, so its own array is freed when
    nothing else holds it.  The result carries the buffer's `_BlockNorm`,
    the one every training `scale_shift` of its prefixes shares; a grow
    over channels that state has normalised starts a fresh one.

    The backward hands the prefix and `new` views of the incoming gradient,
    without copies: that gradient is spent once its closure returns, and the
    channel ranges are disjoint, so in-place sums into one never reach the
    other."""
    c = 0 if prefix is None else prefix.shape[1]
    k = new.shape[1]
    if (new.data.ndim != 4 or c + k > buf.shape[1]
            or new.shape[:1] + new.shape[2:] != buf.shape[:1] + buf.shape[2:]):
        raise ShapeError(f"cannot grow {new.shape} after {c} channels of a {buf.shape} buffer")
    buf[:, c:c + k] = new.data
    if new.dtype == buf.dtype and (new._backward is not None or not new.requires_grad):
        new.data = buf[:, c:c + k]
    parents = (new,) if prefix is None else (prefix, new)
    out = _result(buf[:, :c + k], parents)
    norm = None if prefix is None else prefix._norm
    out._norm = norm if norm is not None and norm.done <= c else _BlockNorm(buf.shape)
    if out.requires_grad:

        def backward(g):
            if prefix is not None and prefix.requires_grad:
                prefix._accumulate(g[:, :c], fresh=True)
            if new.requires_grad:
                new._accumulate(g[:, c:], fresh=True)

        out._backward = backward
    return out


# -- convolution ------------------------------------------------------
#
# Tap (u, v) of a kh x kw kernel links narrow pixel (i, j) to frame pixel
# (i*s + u - p, j*s + v - p).  For conv2d the frame is the input and the
# narrow side the output; conv2d_transpose swaps the two.  One GEMM applies
# every tap's channel matrix at once, then `_move` takes the per-tap planes
# between narrow and frame positions with strided slices.
# Frame pixels outside [0, H) x [0, W) are the zero padding: never touched.


def _tap_window(offset, stride, narrow, frame):
    """(narrow slice, frame slice) along one axis linked by a tap offset,
    or None when no in-range pixel pair exists."""
    lo = max(0, -(offset // stride))
    hi = min(narrow, (frame - 1 - offset) // stride + 1)
    if hi <= lo:
        return None
    return slice(lo, hi), slice(lo * stride + offset, (hi - 1) * stride + offset + 1, stride)


@lru_cache(maxsize=256)
def _tap_windows(kh, kw, stride, padding, narrow_hw, frame_hw):
    """(tap index, narrow index, frame index) of every linking tap; one
    tuple per shape."""
    windows = []
    for t, (u, v) in enumerate(np.ndindex(kh, kw)):
        rows = _tap_window(u - padding, stride, narrow_hw[0], frame_hw[0])
        cols = _tap_window(v - padding, stride, narrow_hw[1], frame_hw[1])
        if rows and cols:
            windows.append((t, (Ellipsis, rows[0], cols[0]), (Ellipsis, rows[1], cols[1])))
    return tuple(windows)


def _move(a, out, kh, kw, stride, padding, to_frame):
    """Move tap planes from `a` between the narrow side and the frame into
    the zeroed `out`, the frame when `to_frame`, else the narrow side.

    A (...,T,C,.,.) stack of per-tap planes is shift-added into one
    (...,C,.,.) plane; one (...,C,.,.) plane is read by every tap into a
    (...,T,C,.,.) stack.  Each form is the adjoint of the other form moving
    the other way.
    """
    per_tap = a.ndim == out.ndim + 1
    size = out.shape[-2:]
    narrow_hw, frame_hw = (a.shape[-2:], size) if to_frame else (size, a.shape[-2:])
    for t, narrow, frame in _tap_windows(kh, kw, stride, padding, narrow_hw, frame_hw):
        src, dst = (narrow, frame) if to_frame else (frame, narrow)
        if per_tap:
            out[dst] += a[..., t, :, :, :][src]
        else:
            out[..., t, :, :, :][dst] = a[src]


@lru_cache(maxsize=256)
def _shift_plan(kh, kw, padding, h, w):
    """Flat form of the move of a stride-1 conv2d whose output has its
    input's h x w size: out[i, j] += tap[i + du, j + dv] with (du, dv) =
    (u - padding, v - padding).  Per reaching tap: (tap index, out's flat
    slice, the tap plane's flat slice, and the tap plane's columns that the
    flat slice reads across a row end, or None)."""
    plan = []
    for t, (u, v) in enumerate(np.ndindex(kh, kw)):
        du, dv = u - padding, v - padding
        if abs(du) >= h or abs(dv) >= w:
            continue
        d = du * w + dv
        wrap = slice(0, dv) if dv > 0 else slice(w + dv, w) if dv < 0 else None
        plan.append((t, slice(max(0, -d), h * w - max(0, d)),
                     slice(max(0, d), h * w - max(0, -d)), wrap))
    return tuple(plan)


def _shift_add(a, out, plan):
    """Shift-add the (...,T,C,H,W) tap planes `a` into the zeroed
    (...,C,H,W) `out`, one flat slice-add per tap of `plan` (_shift_plan).
    A tap plane's wrap columns are zeroed first, so every pixel of `out`
    sums the values the windowed `_move` adds, in the same tap order."""
    src = a.reshape(a.shape[:-2] + (-1,))
    dst = out.reshape(out.shape[:-2] + (-1,))
    for t, o, i, wrap in plan:
        if wrap is not None:
            a[..., t, :, :, wrap] = 0
        dst[..., o] += src[..., t, :, i]


def _tap_matrix(kernel, index=None):
    """(Cout,Cin,kh,kw) -> (kh*kw*Cout, Cin): one Cout x Cin block per tap.
    With the (M, a) input channels each of M filter-groups reads:
    (M, kh*kw*Cout/M, a), the same blocks cut to a group's own rows and
    channels."""
    cout, cin, kh, kw = kernel.shape
    if index is None:
        return kernel.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
    m, a = index.shape
    k = kernel.reshape(m, cout // m, cin, kh, kw)[np.arange(m)[:, None], :, index]
    return k.transpose(0, 3, 4, 2, 1).reshape(m, -1, a)  # from (M, a, Cout/M, kh, kw)


def _conv(x, kernel, stride, padding, size, transposed, index=None):
    """Body of conv2d and conv2d_transpose: one GEMM applies every kernel
    tap to the input, then a move takes the tap planes to the `size`
    output.  conv2d moves to the narrow side; conv2d_transpose reads its
    (C1,C2,kh,kw) kernel as (C2,C1,kh,kw) and moves to the frame, so its
    GEMM runs on the narrow input, never on the stride^2-times larger frame.
    A stride-1 conv2d whose output keeps the input's size moves by flat
    shifts, and a 1x1 conv of either kind has the GEMM write the output
    itself.  With an (M, a) `index` the forward gathers those input
    channels and runs one GEMM per filter-group over its own a channels.
    The backward moves the output gradient once, the other way, then runs
    the kernel- and input-gradient GEMMs per sample over every channel; the
    kernel gradient is their sum over the batch.  Both directions run per
    sample on the lanes."""
    k = kernel.data.swapaxes(0, 1) if transposed else kernel.data
    b, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    mat = _tap_matrix(k)  # (T*Cout, Cin)
    xv = x.data.reshape(b, cin, h * w)
    flat = stride == 1 and size == (h, w)
    direct = flat and kh * kw == 1
    y = (np.empty if direct else np.zeros)((b, cout) + size, dtype=np.result_type(mat, xv))
    if index is None:
        weights, lead = mat, (cin,)
    else:
        weights, lead = _tap_matrix(k, index), index.shape
        index = index.ravel()
    yv = y.reshape((b,) + lead[:-1] + (-1,) + size)  # (B, [M,] Cout[/M], H', W')

    def forward(s):
        src = xv[s] if index is None else np.take(xv[s], index, axis=1)
        src = src.reshape((-1,) + lead + (h * w,))
        if direct:
            ys = yv[s]
            np.matmul(weights, src, out=ys.reshape(ys.shape[:-2] + (h * w,)))
            return
        taps = (weights @ src).reshape((-1,) + lead[:-1] + (kh * kw, yv.shape[-3], h, w))
        if flat and not transposed:
            _shift_add(taps, yv[s], _shift_plan(kh, kw, padding, h, w))
        else:
            _move(taps, yv[s], kh, kw, stride, padding, transposed)

    _split(forward, b)
    out = _result(y, (x, kernel))
    if out.requires_grad:

        def backward(g):
            dk = dx = None
            if kernel.requires_grad:
                dk = np.empty((b, mat.shape[0], cin), dtype=np.result_type(g, xv))
            if x.requires_grad:
                dx = np.empty((b, cin, h * w), dtype=np.result_type(mat, g))

            def lane(s):
                if direct:  # the move would copy g whole
                    taps = np.ascontiguousarray(g[s])
                else:
                    taps = np.zeros((s.stop - s.start, kh * kw, cout, h, w), dtype=g.dtype)
                    _move(g[s], taps, kh, kw, stride, padding, not transposed)
                taps = taps.reshape(-1, mat.shape[0], h * w)
                if dk is not None:
                    np.matmul(taps, xv[s].transpose(0, 2, 1), out=dk[s])
                if dx is not None:
                    np.matmul(mat.T, taps, out=dx[s])

            _split(lane, b)
            if dk is not None:
                dk = dk.sum(axis=0).reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1)
                kernel._accumulate(dk.swapaxes(0, 1) if transposed else dk, fresh=True)
            if dx is not None:
                x._accumulate(dx.reshape(x.shape), fresh=True)

        out._backward = backward
    return out


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0,
           index=None) -> Tensor:
    """Cross-correlate (B,Cin,H,W) with (Cout,Cin,kh,kw); H' = (H+2p-kh)//s + 1.

    `index`, an (M, a) int array, says that filter-group g (the g-th of M
    equal runs of output channels) reads only the input channels
    index[g], in ascending order: the kernel is zero elsewhere.  The
    forward then skips those zero products, with the same bytes; the
    backward is the dense one.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/kernel, got {x.shape} and {kernel.shape}")
    b, cin, h, w = x.shape
    if b == 0:
        raise ShapeError(f"conv2d: the batch has no samples, input shape {x.shape}")
    _, kcin, kh, kw = kernel.shape
    if kcin != cin:
        raise ShapeError(f"conv2d channel mismatch: input has {cin}, kernel expects {kcin}")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}")
    if index is not None and (index.ndim != 2 or kernel.shape[0] % len(index)):
        raise ShapeError(f"conv2d index {index.shape} does not split {kernel.shape[0]} filters")
    size = ((h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1)
    return _conv(x, kernel, stride, padding, size, transposed=False, index=index)


def conv2d_transpose(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0,
                     size=None) -> Tensor:
    """Adjoint of conv2d. Input (B,C1,H,W), kernel (C1,C2,kh,kw) -> (B,C2,H',W').

    `size` is the output (H', W'); by default H' = (H-1)*stride - 2*padding + kh.
    With `size` given this is the adjoint of conv2d on a `size` input: taps
    landing outside the frame are dropped, and frame pixels no tap reaches
    stay zero.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d_transpose expects 4-D input/kernel, got {x.shape} and {kernel.shape}")
    b, c1, h, w = x.shape
    if b == 0:
        raise ShapeError(f"conv2d_transpose: the batch has no samples, input shape {x.shape}")
    kc1, _, kh, kw = kernel.shape
    if kc1 != c1:
        raise ShapeError(f"conv2d_transpose channel mismatch: input has {c1}, kernel expects {kc1}")
    if stride not in (1, 2):
        raise ShapeError(f"conv2d_transpose stride must be 1 or 2, got {stride}")
    if kh - 1 - padding < 0 or kw - 1 - padding < 0:
        raise ShapeError(f"padding {padding} too large for kernel {kh}x{kw}")
    if size is None:
        size = ((h - 1) * stride - 2 * padding + kh, (w - 1) * stride - 2 * padding + kw)
    size = tuple(size)
    if min(size) < 1:
        raise ShapeError(f"conv2d_transpose output {size[0]}x{size[1]} is empty")
    return _conv(x, kernel, stride, padding, size, transposed=True)


def _window_max(views):
    """Element-wise max of a pooling window's strided views, a fresh array."""
    pooled = views[0].copy()
    for v in views[1:]:
        np.maximum(v, pooled, out=pooled)  # on a tie np.maximum returns `pooled`, the earlier max
    return pooled


def max_pool2d(x: Tensor, window: int = 2) -> Tensor:
    """Non-overlapping max pooling; gradient goes to the first max in scan order."""
    h, w = x.shape[2:]
    if h % window or w % window:
        raise ShapeError(f"max_pool2d needs H,W divisible by {window}, got {h}x{w}")
    views = [x.data[..., i::window, j::window] for i, j in np.ndindex(window, window)]
    out = _result(_window_max(views), (x,))
    if out.requires_grad:

        def backward(g):
            # taken again from the views of x, which the graph holds anyway
            pooled = _window_max(views)
            full = np.zeros_like(x.data)
            free = np.ones(pooled.shape, dtype=bool)  # windows whose max is not yet found
            for (i, j), v in zip(np.ndindex(window, window), views):
                hit = free & (v == pooled)
                np.copyto(full[..., i::window, j::window], g, where=hit)
                free &= ~hit
            x._accumulate(full, fresh=True)

        out._backward = backward
    return out


def softmax_channels(x: Tensor) -> Tensor:
    """Per-pixel softmax over the channel axis of (B,L,H,W), max-stabilized."""
    if x.shape[1] < 2:
        raise ShapeError(f"softmax_channels needs >= 2 channels, got {x.shape[1]}")
    shifted = x.data - np.max(x.data, axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / np.sum(e, axis=1, keepdims=True)
    if not np.all(np.isfinite(p)):
        raise NumericsError("softmax_channels produced non-finite values (NaN input?)")
    out = _result(p, (x,))
    if out.requires_grad:

        def backward(g):
            dot = np.sum(g * p, axis=1, keepdims=True)
            x._accumulate(p * (g - dot))

        out._backward = backward
    return out


class RunningStats:
    """Exponential running mean/variance for scale_shift at inference."""

    MOMENTUM = 0.9  # share of the old value each update after the first keeps

    def __init__(self, channels, dtype=np.float64):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.initialized = False

    def update(self, mean, var):
        if not self.initialized:
            self.mean[...] = mean
            self.var[...] = var
            self.initialized = True
        else:
            self.mean *= self.MOMENTUM
            self.mean += (1 - self.MOMENTUM) * mean
            self.var *= self.MOMENTUM
            self.var += (1 - self.MOMENTUM) * var


def _row_dots(u, v):
    """Per-(b, c) sum of u*v over space, for (B, C, N) arrays: one BLAS dot
    per row.  The stacked (1, N) @ (N, 1) products are the rows
    `np.vecdot` computes, which NumPy 1.x lacks."""
    return (u[:, :, None, :] @ v[:, :, :, None])[:, :, 0, 0]


class _BlockNorm:
    """Training `scale_shift` state of a (B, C, H, W) buffer's channels: the
    batch mean, variance and 1/sd of each, and xhat, the buffer centred and
    scaled, as (B, C, H*W).  The first `done` channels hold values; a
    `scale_shift` that reads a longer prefix fills the rest of it, so each
    channel is normalised once however many BNs read it.  The per-channel
    values of a range of two or more channels are the bytes the whole
    prefix gives (see `scale_shift` for one channel)."""

    __slots__ = ("shape", "done", "mean", "var", "inv", "xhat")

    def __init__(self, shape):
        b, c, h, w = shape
        self.shape = (b, c, h * w)
        self.done = 0


def scale_shift(x: Tensor, gamma: Tensor, beta: Tensor, training: bool = True,
                running: RunningStats | None = None) -> Tensor:
    """Per-channel normalize, affine, then ReLU over batch+space of (B,C,H,W).

    Training mode, one pass per step:
    - forward: batch mean, one centred copy ``d = x - mean``, the variance
      as a per-channel dot of ``d`` with itself, ``d`` scaled in place to
      xhat (kept for the backward), then ``xhat*gamma + beta`` and an
      in-place ReLU; ``running`` is updated if given.  On a
      `grow_channels` result the mean, variance and xhat are views of its
      buffer's `_BlockNorm`, computed here only for the channels no BN
      has read yet; each BN keeps its own output;
    - backward: the gradient masked by the ReLU, the two per-channel sums
      that are beta's and gamma's gradients, and
      ``dx = a*gm - xhat*(a*s_gamma/n) - a*s_beta/n`` with ``a = gamma/sd``.
    The per-channel dots are per-(b, c) row dots summed over the batch.
    Everything per sample runs on the lanes, in two phases each way; the
    mean, the sums over the batch and ``s_beta`` stay on the caller.
    Inference mode is forward-only: running stats, gamma and beta folded
    into one per-channel ``a = gamma/sd`` and ``b = beta - mean*a``, one
    multiply-add and an in-place ReLU.  It returns a leaf that requires no
    grad, whatever its inputs require, so the graph starts afresh there.
    ``sd = sqrt(var + BN_EPS)``.  The output has x's dtype in
    both modes, whatever the dtype of gamma, beta and the running stats.
    """
    b, c, h, w = x.shape
    if b == 0:
        raise ShapeError(f"scale_shift: the batch has no samples, input shape {x.shape}")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"scale_shift affine params must have shape ({c},)")
    n = b * h * w
    dt = x.dtype
    xv = x.data.reshape(b, c, h * w)
    if not training:
        if running is None or not running.initialized:
            raise UninitializedStatsError(
                "scale_shift inference mode needs initialized running stats")
        fold = gamma.data * (1.0 / np.sqrt(running.var + BN_EPS))
        y = xv * fold.astype(dt)[:, None]
        y += (beta.data - running.mean * fold).astype(dt)[:, None]
        np.maximum(y, 0, out=y)
        return Tensor(y.reshape(b, c, h, w))
    # NumPy sums a lone channel in another order than the same channel among
    # others: a one-channel x is normalised on its own, and a one-channel
    # range after others is reduced over two, the first one's sums unused
    norm = x._norm if x._norm is not None and c > 1 else _BlockNorm(x.shape)
    k = min(norm.done, c)  # channels [k, c) are normalised here
    if k < c:
        lo = min(k, max(c - 2, 0))
        mu = xv[:, lo:].mean(axis=(0, 2))[k - lo:]
        if norm.done == 0:
            dx = np.result_type(xv, mu)
            norm.mean = np.empty(norm.shape[1], dtype=mu.dtype)
            norm.var, norm.inv = np.empty((2, norm.shape[1]), dtype=dx)
            norm.xhat = np.empty(norm.shape, dtype=dx)
        fresh = norm.xhat[:, k:c]
        dots = np.zeros((b, c - lo), dtype=fresh.dtype)

        def centre(s):
            np.subtract(xv[s, k:], mu[:, None], out=fresh[s])
            dots[s, k - lo:] = _row_dots(fresh[s], fresh[s])

        _split(centre, b)
        norm.mean[k:c] = mu
        norm.var[k:c] = dots.sum(axis=0)[k - lo:] / n
        norm.inv[k:c] = 1.0 / np.sqrt(norm.var[k:c] + BN_EPS)
        norm.done = c
    xhat, inv = norm.xhat[:, :c], norm.inv[:c]
    if running is not None:
        running.update(norm.mean[:c], norm.var[:c])
    scale = gamma.data.astype(dt, copy=False)[:, None]
    shift = beta.data.astype(dt, copy=False)[:, None]
    y = np.empty(xv.shape, dtype=np.result_type(xhat, scale))

    def normalize(s):
        xs, ys = xhat[s], y[s]
        xs[:, k:] *= inv[k:, None]
        np.multiply(xs, scale, out=ys)
        ys += shift
        np.maximum(ys, 0, out=ys)

    _split(normalize, b)
    out = _result(y.reshape(b, c, h, w), (x, gamma, beta))
    if out.requires_grad:
        a = (gamma.data * inv).astype(dt)

        def backward(g):
            gv = g.reshape(b, c, h * w)
            gm = np.empty(gv.shape, dtype=gv.dtype)
            dots = np.empty((b, c), dtype=np.result_type(gm, xhat))

            def mask(s):
                np.multiply(gv[s], y[s] > 0, out=gm[s])
                dots[s] = _row_dots(gm[s], xhat[s])

            _split(mask, b)
            s_beta = gm.sum(axis=(0, 2))
            s_gamma = dots.sum(axis=0)
            if beta.requires_grad:
                beta._accumulate(s_beta)
            if gamma.requires_grad:
                gamma._accumulate(s_gamma)
            if x.requires_grad:
                slope = (a * s_gamma / n)[:, None]
                offset = (a * s_beta / n)[:, None]

                def input_grad(s):
                    gs = gm[s]
                    gs *= a[:, None]
                    gs -= xhat[s] * slope
                    gs -= offset

                _split(input_grad, b)
                x._accumulate(gm.reshape(b, c, h, w), fresh=True)

        out._backward = backward
    return out


# -- initialisation and optimizer -------------------------------------


def he_normal(kernel: Tensor, rng):
    """Fill a (Cout, Cin, kh, kw) kernel in place with N(0, 2/(Cin*kh*kw))
    draws: one float64 `rng.normal` call, cast to the kernel's dtype."""
    scale = np.sqrt(2.0 / int(np.prod(kernel.shape[1:])))
    kernel.data[...] = rng.normal(0.0, scale, size=kernel.shape).astype(kernel.dtype)


@dataclass
class AdamState:
    """Adam moment buffers, positionally aligned with a fixed parameter list."""

    BETA1 = 0.9           # decay of the first moment
    BETA2 = 0.999         # decay of the second moment
    EPSILON_HAT = 1e-8    # added to the root of the second moment

    learning_rate: float = 1e-3
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)


def adam_step(params, state: AdamState):
    """One in-place Adam update with bias correction over `params`.

    Every gradient is checked before any parameter or the step count
    changes; the first one missing, misshapen or not finite raises.
    """
    params = list(params)
    if not state.first_moment:
        state.first_moment = [np.zeros_like(p.data) for p in params]
        state.second_moment = [np.zeros_like(p.data) for p in params]
    if len(state.first_moment) != len(params):
        raise ValueError(f"AdamState tracks {len(state.first_moment)} params, got {len(params)}")
    for i, p in enumerate(params):
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {p.name or i!r} has no gradient")
        if p.grad.shape != p.data.shape:
            raise ShapeError(f"gradient shape {p.grad.shape} != param shape {p.data.shape}")
        if not np.isfinite(p.grad).all():
            raise NumericsError(f"adam_step: parameter {p.name or i!r} has a non-finite gradient")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.BETA1, state.BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for p, m, v in zip(params, state.first_moment, state.second_moment):
        m *= b1
        m += (1 - b1) * p.grad
        v *= b2
        v += (1 - b2) * np.square(p.grad)
        p.data -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.EPSILON_HAT)

