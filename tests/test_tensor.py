"""Forward/backward checks for the autodiff core against independent oracles."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condenseg import tensor as T
from condenseg.tensor import (
    AdamState,
    ShapeError,
    Tensor,
    adam_step,
    conv2d,
    conv2d_transpose,
    max_pool2d,
    scale_shift,
    softmax_channels,
)
import gradcheck as gc
from gradcheck import grad_check

EPS = T.BN_EPS


def conv2d_direct(x, k, stride=1, padding=0):
    """Brute-force sextuple-loop convolution oracle."""
    b, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((b, cout, ho, wo), dtype=x.dtype)
    for bi in range(b):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[bi, ci, i * stride + u, j * stride + v] * k[co, ci, u, v]
                    out[bi, co, i, j] = acc
    return out


class TestConv2d:
    def test_ones_3x3(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, k)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    def test_zero_input(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.zeros((2, 3, 6, 6)))
        k = Tensor(rng.normal(size=(4, 3, 3, 3)))
        assert np.all(conv2d(x, k, padding=1).data == 0)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 8, 8))
        k = rng.normal(size=(4, 3, 3, 3))
        got = conv2d(Tensor(x), Tensor(k)).data
        want = conv2d_direct(x, k)
        assert np.max(np.abs(got - want)) < gc.CONV_ORACLE_TOL

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_oracle_strides_paddings(self, stride, padding):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 9, 7))
        k = rng.normal(size=(3, 2, 3, 3))
        got = conv2d(Tensor(x), Tensor(k), stride, padding).data
        want = conv2d_direct(x, k, stride, padding)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < gc.CONV_ORACLE_TOL

    def test_oracle_shapes_up_to_4x8x16x16(self):
        rng = np.random.default_rng(3)
        for shape, kshape in [((1, 1, 4, 4), (2, 1, 3, 3)),
                              ((4, 8, 16, 16), (4, 8, 3, 3)),
                              ((2, 4, 10, 16), (3, 4, 1, 1))]:
            x = rng.normal(size=shape)
            k = rng.normal(size=kshape)
            got = conv2d(Tensor(x), Tensor(k), 1, 1 if kshape[2] == 3 else 0).data
            want = conv2d_direct(x, k, 1, 1 if kshape[2] == 3 else 0)
            assert np.max(np.abs(got - want)) < gc.CONV_ORACLE_TOL

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        k = Tensor(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, k)

    def test_empty_batch_raises(self):
        with pytest.raises(ShapeError, match="no samples"):
            conv2d(Tensor(np.zeros((0, 3, 8, 8))), Tensor(np.zeros((4, 3, 3, 3))), padding=1)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        for target in (x, k):
            err = grad_check(lambda t: conv2d(x, k, stride=2, padding=1).sum(), target)
            assert err < gc.GRAD_TOL


class TestConvTranspose:
    def test_output_size_formula(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = conv2d_transpose(x, k, stride=2, padding=0)
        assert out.shape == (1, 1, 4, 4)

    def test_zero_input(self):
        k = Tensor(np.random.default_rng(0).normal(size=(3, 2, 3, 3)))
        out = conv2d_transpose(Tensor(np.zeros((1, 3, 5, 5))), k, stride=2)
        assert np.all(out.data == 0)

    def test_empty_size_raises(self):
        k = Tensor(np.ones((1, 1, 3, 3)))
        with pytest.raises(ShapeError, match="empty"):
            conv2d_transpose(Tensor(np.ones((1, 1, 4, 4))), k, stride=2, size=(0, 8))

    def test_empty_batch_raises(self):
        k = Tensor(np.ones((3, 2, 3, 3)))
        with pytest.raises(ShapeError, match="no samples"):
            conv2d_transpose(Tensor(np.ones((0, 3, 4, 4))), k, stride=2)

    def test_adjoint_identity(self):
        # sizes chosen so (H + 2p - kh) % stride == 0, making conv_T land on H
        rng = np.random.default_rng(5)
        for stride, padding, size in [(1, 0, 8), (1, 1, 8), (2, 0, 9), (2, 1, 9)]:
            x = rng.normal(size=(2, 3, size, size))
            k = rng.normal(size=(4, 3, 3, 3))
            y_shape = conv2d(Tensor(x), Tensor(k), stride, padding).shape
            y = rng.normal(size=y_shape)
            lhs = np.sum(conv2d(Tensor(x), Tensor(k), stride, padding).data * y)
            rhs = np.sum(x * conv2d_transpose(Tensor(y), Tensor(k), stride, padding).data)
            assert abs(lhs - rhs) < gc.ADJOINT_TOL * max(1.0, abs(lhs))

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        for target in (x, k):
            err = grad_check(lambda t: conv2d_transpose(x, k, stride=2, padding=1).sum(), target)
            assert err < gc.GRAD_TOL


@st.composite
def conv_cases(draw):
    """(x shape, kernel shape, stride, padding, seed) with H != W, including
    sizes where H + 2p - k is not a multiple of the stride."""
    k = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.integers(0, k - 1))
    lo = max(1, k - 2 * padding)
    h = draw(st.integers(lo, 9))
    w = draw(st.integers(lo, 8))
    w += w >= h  # any width in [lo, 9] but h
    b, cin, cout = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return (b, cin, h, w), (cout, cin, k, k), stride, padding, draw(st.integers(0, 2 ** 32 - 1))


# fixed example sets: the suite gives the same verdict on every run
PROPERTY = dict(deadline=None, derandomize=True, database=None)


class TestConvProperties:
    @settings(max_examples=100, **PROPERTY)
    @given(conv_cases())
    def test_matches_direct_oracle(self, case):
        x_shape, k_shape, stride, padding, seed = case
        rng = np.random.default_rng(seed)
        x, k = rng.normal(size=x_shape), rng.normal(size=k_shape)
        got = conv2d(Tensor(x), Tensor(k), stride, padding).data
        want = conv2d_direct(x, k, stride, padding)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < gc.CONV_ORACLE_TOL

    @settings(max_examples=100, **PROPERTY)
    @given(conv_cases())
    def test_transpose_is_adjoint(self, case):
        # conv2d_transpose covers the first (Ho-1)*s - 2p + k rows and
        # columns of conv2d's input; any past that are held at zero
        x_shape, k_shape, stride, padding, seed = case
        rng = np.random.default_rng(seed)
        k = rng.normal(size=k_shape)
        b, cin, h, w = x_shape
        y = rng.normal(size=conv2d(Tensor(np.zeros(x_shape)), Tensor(k), stride, padding).shape)
        ht = (y.shape[2] - 1) * stride - 2 * padding + k_shape[2]
        wt = (y.shape[3] - 1) * stride - 2 * padding + k_shape[3]
        x = np.zeros(x_shape)
        x[:, :, :ht, :wt] = rng.normal(size=(b, cin, ht, wt))
        lhs = np.sum(conv2d(Tensor(x), Tensor(k), stride, padding).data * y)
        rhs = np.sum(x[:, :, :ht, :wt] * conv2d_transpose(Tensor(y), Tensor(k), stride, padding).data)
        assert abs(lhs - rhs) < gc.ADJOINT_TOL * max(1.0, abs(lhs))

    @settings(max_examples=100, **PROPERTY)
    @given(conv_cases())
    def test_sized_transpose_is_adjoint(self, case):
        # with size=(h, w) every row and column of conv2d's input takes part
        x_shape, k_shape, stride, padding, seed = case
        rng = np.random.default_rng(seed)
        x, k = rng.normal(size=x_shape), rng.normal(size=k_shape)
        y = rng.normal(size=conv2d(Tensor(x), Tensor(k), stride, padding).shape)
        xt = conv2d_transpose(Tensor(y), Tensor(k), stride, padding, size=x_shape[2:]).data
        assert xt.shape == x_shape
        lhs = np.sum(conv2d(Tensor(x), Tensor(k), stride, padding).data * y)
        rhs = np.sum(x * xt)
        assert abs(lhs - rhs) < gc.ADJOINT_TOL * max(1.0, abs(lhs))

    @settings(max_examples=30, **PROPERTY)
    @given(conv_cases())
    def test_sized_transpose_is_cropped_full(self, case):
        # one row and column short of the default frame: forward and both
        # gradients are the full op's, cropped, bit for bit
        x_shape, k_shape, stride, padding, seed = case
        rng = np.random.default_rng(seed)
        y_shape = conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)), stride, padding).shape
        y0, k0 = rng.normal(size=y_shape), rng.normal(size=k_shape)
        full = conv2d_transpose(Tensor(y0), Tensor(k0), stride, padding).shape
        assume(min(full[2:]) > 1)
        wt = rng.normal(size=full)
        wt[:, :, -1] = wt[:, :, :, -1] = 0.0

        def run(size, weight):
            y = Tensor(y0.copy(), requires_grad=True)
            k = Tensor(k0.copy(), requires_grad=True)
            out = conv2d_transpose(y, k, stride, padding, size=size)
            (out * Tensor(weight)).sum().backward()
            return out.data, y.grad, k.grad

        full_out, *full_grads = run(None, wt)
        short_out, *short_grads = run((full[2] - 1, full[3] - 1), wt[:, :, :-1, :-1].copy())
        assert np.array_equal(short_out, full_out[:, :, :-1, :-1])
        for a, b in zip(full_grads, short_grads):
            assert np.array_equal(a, b)

    @settings(max_examples=10, **PROPERTY)
    @given(conv_cases())
    def test_gradients(self, case):
        x_shape, k_shape, stride, padding, seed = case
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        k = Tensor(rng.normal(size=k_shape), requires_grad=True)
        w = Tensor(rng.normal(size=conv2d(x, k, stride, padding).shape))
        for target in (x, k):
            err = grad_check(lambda t: (conv2d(x, k, stride, padding) * w).sum(), target, rng=rng)
            assert err < gc.GRAD_TOL
        # conv2d_transpose maps conv2d's output shape back; kernel is (C1=Cout, C2=Cin)
        y = Tensor(rng.normal(size=w.shape), requires_grad=True)
        wt = Tensor(rng.normal(size=conv2d_transpose(y, k, stride, padding).shape))
        for target in (y, k):
            err = grad_check(lambda t: (conv2d_transpose(y, k, stride, padding) * wt).sum(),
                             target, rng=rng)
            assert err < gc.GRAD_TOL


def windowed_conv(x, k, padding, g, transposed):
    """Stride-1 conv2d (or conv2d_transpose) the windowed way, tap by tap:
    output, x gradient and kernel gradient for the output gradient g.  The
    reference that flat shifts and GEMM-written 1x1 outputs keep the bytes of."""
    kk = k.swapaxes(0, 1) if transposed else k
    b, cin, h, w = x.shape
    cout, _, kh, kw = kk.shape
    mat = kk.transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
    xv = x.reshape(b, cin, h * w)
    sign = -1 if transposed else 1
    size = (h + sign * (2 * padding - kh + 1), w + sign * (2 * padding - kw + 1))

    def window(d, n_in, n_out):  # in [i + d] <-> out [i], clipped to both sides
        lo, hi = max(0, -d), min(n_out, n_in - d)
        return (slice(lo, hi), slice(lo + d, hi + d)) if hi > lo else None

    links = []
    for t, (u, v) in enumerate(np.ndindex(kh, kw)):
        rows = window(sign * (u - padding), h, size[0])
        cols = window(sign * (v - padding), w, size[1])
        if rows and cols:
            links.append((t, (Ellipsis, rows[0], cols[0]), (Ellipsis, rows[1], cols[1])))
    y = np.zeros((b, cout) + size, dtype=np.result_type(mat, xv))
    taps = (mat @ xv).reshape(b, kh * kw, cout, h, w)
    for t, out_px, in_px in links:
        y[out_px] += taps[:, t][in_px]
    gt = np.zeros((b, kh * kw, cout, h, w), dtype=g.dtype)
    for t, out_px, in_px in links:
        gt[:, t][in_px] = g[out_px]
    gt = gt.reshape(b, -1, h * w)
    dk = np.matmul(gt, xv.transpose(0, 2, 1)).sum(axis=0)
    dk = dk.reshape(kh, kw, cout, cin).transpose(2, 3, 0, 1)
    return y, (mat.T @ gt).reshape(x.shape), dk.swapaxes(0, 1) if transposed else dk


@st.composite
def same_size_cases(draw):
    k = draw(st.sampled_from([1, 3, 5]))
    h, w = draw(st.sampled_from([1, 2, 3, 6, 9])), draw(st.sampled_from([1, 2, 4, 7]))
    b, cin, cout = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return (b, cin, h, w), (cout, cin, k, k), dtype, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


class TestSameSizeBytes:
    @settings(max_examples=150, **PROPERTY)
    @given(same_size_cases())
    def test_equals_windowed_move(self, case):
        # stride 1 at same-size padding: flat shifts, or a 1x1 output the GEMM
        # writes, give the windowed conv's output and gradients, bit for bit
        x_shape, k_shape, dtype, transposed, seed = case
        rng = np.random.default_rng(seed)
        if transposed:
            k_shape = (k_shape[1], k_shape[0]) + k_shape[2:]
        x0, k0 = (rng.normal(size=shape).astype(dtype) for shape in (x_shape, k_shape))
        x, k = Tensor(x0.copy(), requires_grad=True), Tensor(k0.copy(), requires_grad=True)
        padding = k_shape[2] // 2
        op = conv2d_transpose if transposed else conv2d
        out = op(x, k, padding=padding)
        g = rng.normal(size=out.shape).astype(dtype)
        (out * Tensor(g)).sum().backward()
        want = windowed_conv(x0, k0, padding, g, transposed)
        assert out.shape == want[0].shape == x_shape[:1] + out.shape[1:2] + x_shape[2:]
        for got, ref in zip((out.data, x.grad, k.grad), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def max_pool2d_argmax(x, g, window=2):
    """Argmax max pooling: (output, input gradient for output gradient g),
    ties to the first max in scan order. The reference for max_pool2d."""
    b, c, h, w = x.shape
    ho, wo = h // window, w // window
    patches = x.reshape(b, c, ho, window, wo, window).transpose(0, 1, 2, 4, 3, 5)
    patches = patches.reshape(b, c, ho, wo, window * window)
    arg = np.argmax(patches, axis=-1)
    out = np.take_along_axis(patches, arg[..., None], axis=-1)[..., 0]
    flat = np.zeros_like(patches)
    np.put_along_axis(flat, arg[..., None], g[..., None], axis=-1)
    full = flat.reshape(b, c, ho, wo, window, window).transpose(0, 1, 2, 4, 3, 5)
    return out, full.reshape(b, c, h, w)


class TestMaxPool:
    def test_2x2(self):
        x = Tensor(np.array([[1., 2.], [3., 4.]]).reshape(1, 1, 2, 2))
        assert max_pool2d(x).data[0, 0, 0, 0] == 4.0

    def test_constant_ties_route_to_first(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        out = max_pool2d(x)
        assert np.all(out.data == 1.0)
        out.sum().backward()
        want = np.zeros((4, 4))
        want[::2, ::2] = 1.0  # first element of each window in scan order
        assert np.array_equal(x.grad[0, 0], want)

    def test_matches_window_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 1, 4, 4))
        got = max_pool2d(Tensor(x)).data[0, 0]
        want = np.array([[x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max() for j in range(2)]
                         for i in range(2)])
        assert np.array_equal(got, want)

    def test_non_divisible_raises(self):
        with pytest.raises(ShapeError, match="divisible"):
            max_pool2d(Tensor(np.zeros((1, 1, 5, 4))))

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        err = grad_check(lambda t: (max_pool2d(t) * max_pool2d(t)).sum(), x)
        assert err < gc.GRAD_TOL

    def test_backward_holds_only_views_of_its_input(self):
        # the graph holds x anyway; a copy of the output would be held extra
        x = Tensor(np.random.default_rng(9).normal(size=(2, 3, 8, 8)), requires_grad=True)
        held = []
        for cell in max_pool2d(x)._backward.__closure__:
            value = cell.cell_contents
            held += [a for a in (value if isinstance(value, list) else [value])
                     if isinstance(a, np.ndarray)]
        assert held and all(np.shares_memory(a, x.data) for a in held)

    @settings(max_examples=60, **PROPERTY)
    @given(b=st.integers(1, 2), c=st.integers(1, 3), ho=st.integers(1, 4),
           wo=st.integers(1, 4), window=st.sampled_from([2, 3]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2 ** 16))
    def test_matches_argmax_oracle_with_ties(self, b, c, ho, wo, window, dtype, seed):
        # small integers make tied windows common
        rng = np.random.default_rng(seed)
        data = rng.integers(-2, 3, size=(b, c, ho * window, wo * window)).astype(dtype)
        g = rng.standard_normal((b, c, ho, wo)).astype(dtype)
        want_out, want_grad = max_pool2d_argmax(data, g, window)
        x = Tensor(data, requires_grad=True)
        out = max_pool2d(x, window)
        (out * Tensor(g)).sum().backward()
        assert out.dtype == dtype and out.data.tobytes() == want_out.tobytes()
        assert x.grad.tobytes() == np.ascontiguousarray(want_grad).tobytes()


class TestPointwise:
    def test_add_identity(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3))
        out = Tensor(x) + Tensor(np.zeros((2, 3)))
        assert np.array_equal(out.data, x)

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))

    def test_scale_shift_statistics(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(4, 5, 8, 8)))
        gamma = Tensor(np.full(5, 1.7))
        beta = Tensor(np.full(5, -0.3))
        out = scale_shift(x, gamma, beta).data
        xhat = (x.data - x.data.mean(axis=(0, 2, 3), keepdims=True)) \
            / np.sqrt(x.data.var(axis=(0, 2, 3), keepdims=True) + EPS)
        assert np.max(np.abs(out - np.maximum(1.7 * xhat - 0.3, 0.0))) < 1e-6
        assert (out == 0).any() and (out > 0).any()

    def test_scale_shift_running_stats_inference(self):
        rng = np.random.default_rng(11)
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        running = T.RunningStats(3)
        x = rng.normal(size=(2, 3, 4, 4))
        scale_shift(Tensor(x), gamma, beta, training=True, running=running)
        out = scale_shift(Tensor(x), gamma, beta, training=False, running=running)
        mu = x.mean(axis=(0, 2, 3))
        sd = np.sqrt(x.var(axis=(0, 2, 3)) + EPS)
        want = np.maximum((x - mu[None, :, None, None]) / sd[None, :, None, None], 0.0)
        assert np.max(np.abs(out.data - want)) < 1e-12

    def test_pointwise_gradients(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)) + 0.5, requires_grad=True)
        err = grad_check(lambda t: (t.clamp_min(0.0) * t.clamp_min(0.0)).sum(), x)
        assert err < gc.GRAD_TOL_POINTWISE
        y = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        err = grad_check(lambda t: (t + y).sum(), x)
        assert err < gc.GRAD_TOL_POINTWISE
        err = grad_check(lambda t: ((t * y) - (y * 0.5)).sum(), x)
        assert err < gc.GRAD_TOL_POINTWISE

    def test_scale_shift_gradient(self):
        # weight by a fixed random map: a symmetric loss like sum(out**2) is
        # nearly constant under batch normalization and gives no signal
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        gamma = Tensor(rng.normal(size=3) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 4, 4)))

        def f(_):
            out = scale_shift(x, gamma, beta)
            return (out * w).sum()

        for target in (x, gamma, beta):
            assert grad_check(f, target) < gc.GRAD_TOL

    def test_scale_shift_inference_is_forward_only(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        gamma = Tensor(rng.normal(size=3) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        running = T.RunningStats(3)
        running.update(rng.normal(size=3), rng.uniform(0.5, 2.0, 3))
        out = scale_shift(x, gamma, beta, training=False, running=running)
        assert out.requires_grad is False
        assert out._parents == () and out._backward is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    def test_scale_shift_equals_clipped_affine(self, dtype, training):
        rng = np.random.default_rng(14)
        x1, x2 = (rng.normal(0.5, 2.0, size=(3, 4, 5, 5)).astype(dtype) for _ in range(2))
        gamma = Tensor(rng.uniform(0.5, 1.5, 4).astype(dtype))
        beta = Tensor(rng.normal(size=4).astype(dtype))
        running = T.RunningStats(4, dtype=dtype)
        scale_shift(Tensor(x1), gamma, beta, running=running)
        # scale_shift's order of operations, over the (B, C, H*W) view
        xv, ga, be = x2.reshape(3, 4, 25), gamma.data[:, None], beta.data[:, None]
        if training:
            d = xv - xv.mean(axis=(0, 2))[:, None]
            var = (d[:, :, None, :] @ d[:, :, :, None])[:, :, 0, 0].sum(axis=0) / 75
            affine = d * (1.0 / np.sqrt(var + EPS))[:, None] * ga + be
        else:
            fold = gamma.data * (1.0 / np.sqrt(running.var + EPS))
            affine = xv * fold[:, None] + (beta.data - running.mean * fold)[:, None]
        out = scale_shift(Tensor(x2), gamma, beta, training=training, running=running).data
        assert out.dtype == dtype
        assert out.tobytes() == np.maximum(affine, 0).reshape(x2.shape).tobytes()
        assert (out == 0).any() and (out > 0).any()

    @pytest.mark.parametrize("training", [True, False])
    def test_scale_shift_output_dtype_follows_input(self, training):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        gamma = Tensor(np.full(3, 1.2), requires_grad=True)
        beta = Tensor(np.full(3, 0.1), requires_grad=True)
        running = T.RunningStats(3)  # float64 buffers
        scale_shift(x, gamma, beta, running=running)
        out = scale_shift(x, gamma, beta, training=training, running=running)
        assert out.dtype == np.float32
        if training:  # inference mode is forward-only
            out.sum().backward()
            assert x.grad.dtype == np.float32
            assert gamma.grad.dtype == beta.grad.dtype == np.float64

    def test_scale_shift_degenerate_variance(self):
        # channel 0 is constant, channel 1 varies by a couple of float32 ulps
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        x[:, 0] = 7.3
        x[:, 1] = 7.3 + rng.normal(scale=1e-6, size=(4, 8, 8))
        xt = Tensor(x, requires_grad=True)
        gamma = Tensor(np.array([1.3, 0.8, 1.1], np.float32), requires_grad=True)
        beta = Tensor(np.array([0.4, 0.2, -0.1], np.float32), requires_grad=True)
        out = scale_shift(xt, gamma, beta)
        (out * Tensor(rng.normal(size=x.shape).astype(np.float32))).sum().backward()
        for a in (out.data, xt.grad, gamma.grad, beta.grad):
            assert np.isfinite(a).all()
        assert np.abs(out.data[:, 0] - 0.4).max() < 1e-3
        assert np.abs(xt.grad[:, 0]).max() < 5e3


@st.composite
def scale_shift_cases(draw):
    """(shape, mean/sd ratio, sd, seed) for a float32 batch far off centre."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
             draw(st.integers(1, 6)), draw(st.integers(2, 6)))
    ratio = draw(st.floats(-16.0, 16.0))
    sd = 10.0 ** draw(st.floats(-2.0, 2.0))
    return shape, ratio, sd, draw(st.integers(0, 2 ** 32 - 1))


class TestScaleShiftProperties:
    @settings(max_examples=100, **PROPERTY)
    @given(scale_shift_cases(), st.booleans())
    def test_float32_matches_float64_textbook(self, case, training):
        shape, ratio, sd, seed = case
        rng = np.random.default_rng(seed)
        c = shape[1]
        x = (ratio * sd + sd * rng.standard_normal(shape)).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, c).astype(np.float32)
        beta = rng.normal(size=c).astype(np.float32)
        running = T.RunningStats(c, dtype=np.float32)
        if training:
            mu, var = x.mean(axis=(0, 2, 3), dtype=np.float64), x.var(axis=(0, 2, 3), dtype=np.float64)
        else:
            running.update(ratio * sd * rng.uniform(0.9, 1.1, c),
                           sd * sd * rng.uniform(0.5, 2.0, c))
            mu, var = running.mean.astype(np.float64), running.var.astype(np.float64)
        out = scale_shift(Tensor(x), Tensor(gamma), Tensor(beta),
                          training=training, running=running).data
        xhat = (x - mu[None, :, None, None]) / np.sqrt(var[None, :, None, None] + EPS)
        want = np.maximum(gamma.astype(np.float64)[None, :, None, None] * xhat
                          + beta[None, :, None, None], 0.0)
        assert out.dtype == np.float32
        assert np.abs(out - want).max() < 1e-5


def _grown(rng, dtype, b, sizes, hw):
    """Grad-requiring leaves of `sizes` channels each, grown one after another
    in one buffer; (leaves, grown prefixes)."""
    buf = np.empty((b, sum(sizes)) + hw, dtype)
    parts = [Tensor(rng.normal(0.5, 2.0, (b, k) + hw).astype(dtype), requires_grad=True)
             for k in sizes]
    grown = []
    for part in parts:
        grown.append(T.grow_channels(buf, part, grown[-1] if grown else None))
    return parts, grown


def _bn_run(x, rng, grads_of):
    """Training `scale_shift` of x with drawn gamma and beta: output, running
    stats, and the gradients of gamma, beta and `grads_of` (x's input)."""
    c, dtype = x.shape[1], x.dtype
    gamma = Tensor(rng.uniform(0.5, 1.5, c).astype(dtype), requires_grad=True)
    beta = Tensor(rng.normal(size=c).astype(dtype), requires_grad=True)
    running = T.RunningStats(c, dtype=dtype)
    out = scale_shift(x, gamma, beta, running=running)
    (out * Tensor(rng.standard_normal(x.shape).astype(dtype))).sum().backward()
    dx = np.concatenate([t.grad for t in grads_of], axis=1)
    return [a.tobytes() for a in (out.data, running.mean, running.var, gamma.grad, beta.grad, dx)]


class TestBlockNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b, sizes, hw, order", [
        (3, (2, 1, 4), (5, 6), (0, 1, 2)),
        (3, (2, 1, 4), (5, 6), (2, 0, 1)),
        (1, (1, 1, 1), (1, 7), (1, 2, 0)),
        (4, (5, 16, 3), (8, 8), (0, 2, 1)),
        (9, (2, 1, 1, 3), (1, 3), (0, 1, 2, 3)),
        (5, (1, 3, 1), (3, 5), (2, 0, 1)),
        (5, (1, 3, 1), (3, 5), (0, 1, 2)),
        (2, (3,), (4, 4), (0,)),
    ])
    def test_prefix_reads_keep_standalone_bytes(self, dtype, b, sizes, hw, order):
        # BNs reading prefixes of one buffer, in any order, share its
        # normalisation and keep the bytes of normalising a copy alone:
        # output, running stats and every gradient
        parts, grown = _grown(np.random.default_rng(7), dtype, b, sizes, hw)
        for i in order:
            for part in parts:
                part.grad = None
            copy = Tensor(grown[i].data.copy(), requires_grad=True)
            want = _bn_run(copy, np.random.default_rng(i), [copy])
            assert _bn_run(grown[i], np.random.default_rng(i), parts[:i + 1]) == want, i
        assert grown[0]._norm is grown[-1]._norm

    def test_growing_over_normalised_channels_starts_afresh(self):
        # a grow that overwrites channels a BN has normalised gives its
        # result a state of its own, so no stale xhat is read
        rng = np.random.default_rng(8)
        parts, grown = _grown(rng, np.float64, 2, (2, 3), (4, 4))
        _bn_run(grown[1], np.random.default_rng(0), parts)
        other = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        again = T.grow_channels(grown[1].data.base, other, grown[0])
        assert again._norm is not grown[0]._norm
        copy = Tensor(again.data.copy(), requires_grad=True)
        want = _bn_run(copy, np.random.default_rng(1), [copy])
        for t in (parts[0], other):
            t.grad = None
        assert _bn_run(again, np.random.default_rng(1), [parts[0], other]) == want


class TestSoftmax:
    def test_uniform_logits(self):
        out = softmax_channels(Tensor(np.zeros((1, 4, 2, 2))))
        assert np.max(np.abs(out.data - 0.25)) < 1e-15

    def test_stabilized_large_logits(self):
        x = np.zeros((1, 2, 1, 1))
        x[0, 0] = 1000.0
        out = softmax_channels(Tensor(x)).data
        assert np.isfinite(out).all()
        assert abs(out[0, 0, 0, 0] - 1.0) < 1e-12
        assert out[0, 1, 0, 0] < 1e-12

    def test_matches_exp_sum_oracle(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 4, 3, 3))
        got = softmax_channels(Tensor(x)).data
        want = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(15)
        out = softmax_channels(Tensor(rng.normal(scale=5.0, size=(3, 4, 8, 8)))).data
        sums = out.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < gc.SOFTMAX_SUM_TOL
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_gradient(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(1, 3, 2, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(1, 3, 2, 2)))
        err = grad_check(lambda t: (softmax_channels(t) * w).sum(), x)
        assert err < gc.GRAD_TOL


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        state = AdamState(learning_rate=0.1)
        adam_step([p], state)
        assert np.array_equal(p.data, [1.0, 2.0])
        assert state.step_count == 1

    def test_first_step_is_signed_lr(self):
        g = np.array([0.5, -3.0, 10.0])
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = g.copy()
        adam_step([p], AdamState(learning_rate=0.001))
        assert np.max(np.abs(p.data - (-0.001 * np.sign(g)))) < 1e-6

    def test_quadratic_loss_decreases(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        state = AdamState(learning_rate=0.1)
        losses = []
        for _ in range(2):
            p.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            losses.append(loss.item())
            adam_step([p], state)
        final = (p.data ** 2).sum()
        assert final < losses[0]
        assert losses[1] < losses[0]

    def test_missing_grad_names_parameter(self):
        p = Tensor(np.zeros(2), requires_grad=True, name="stem.kernel")
        with pytest.raises(ValueError, match="stem.kernel"):
            adam_step([p], AdamState())

    def test_non_finite_grad_changes_nothing(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="enc0.kernel")
        b = Tensor(np.array([3.0]), requires_grad=True, name="head.kernel")
        a.grad, b.grad = np.array([0.5, -0.5]), np.array([np.nan])
        state = AdamState(learning_rate=0.1)
        with pytest.raises(T.NumericsError, match="head.kernel"):
            adam_step([a, b], state)
        assert np.array_equal(a.data, [1.0, 2.0])
        assert np.array_equal(b.data, [3.0])
        assert state.step_count == 0


class TestNoGraph:
    def test_ops_return_leaves_inside_and_record_after(self):
        x = Tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        k = Tensor(np.ones((3, 2, 1, 1)), requires_grad=True)
        with T.no_graph():
            inside = (conv2d(x, k) * 2.0).sum()
        assert not inside.requires_grad and inside._parents == ()
        after = conv2d(x, k).sum()
        after.backward()
        assert np.array_equal(k.grad, np.full(k.shape, 16.0))

    def test_per_thread(self):
        x = Tensor(np.ones(3), requires_grad=True)
        seen = []
        with T.no_graph():
            worker = threading.Thread(target=lambda: seen.append((x * 2.0).requires_grad))
            worker.start()
            worker.join(timeout=60)
            seen.append((x * 2.0).requires_grad)
        assert not worker.is_alive() and seen == [True, False]


class TestFirstGradient:
    def test_add_parents_get_distinct_arrays(self):
        # the add passes one gradient array to both parents: each keeps a copy
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert np.array_equal(b.grad, np.ones((2, 3)))

    def test_fresh_array_taken_when_dtype_matches(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        g = np.ones(3, dtype=np.float32)
        t._accumulate(g, fresh=True)
        assert t.grad is g
        u = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        u._accumulate(np.ones(3), fresh=True)
        assert u.grad.dtype == np.float32


def _graph_nodes(root):
    """Every tensor reachable from `root` through recorded parents."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _backward_keeping_grads(root):
    """Tensor.backward's pass with every gradient kept: the same reverse
    topological order, no gradient released."""
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in visited)
    root.grad = np.ones((), dtype=root.data.dtype)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


class TestReleasedGradients:
    def test_shared_intermediate(self):
        # h feeds two ops, so its gradient is a sum; it is dropped once used
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = x * x
        loss = (h * h + h).sum()
        loss.backward()
        assert h.grad is None and loss.grad is None
        assert np.array_equal(x.grad, 2 * x.data * (2 * h.data + 1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("condensed", [False, True])
    def test_network_non_leaves_released_leaves_keep_their_bytes(self, dtype, condensed):
        from condenseg.loss import LossConfig, total_loss
        from condenseg.net import NetConfig, apply_condensation, build
        from condenseg.volume import LabelMask

        cfg = NetConfig(input_size=16, layers_per_block=(2, 1, 2), pool_layers=1)

        def run(backward):
            net = build(cfg, rng=np.random.default_rng(3), dtype=dtype)
            if condensed:
                apply_condensation(net, cfg.condensation_factor - 1)
            rng = np.random.default_rng(4)
            x = Tensor(rng.standard_normal((2, 1, 16, 16)).astype(dtype), requires_grad=True)
            y = LabelMask(rng.integers(0, cfg.num_classes, (2, 16, 16)).astype(np.uint8))
            loss = total_loss(net.forward(x, training=True), y, LossConfig())
            loss = loss + net.lasso_penalty() * 1e-5
            inner = [n for n in _graph_nodes(loss) if n._backward is not None]
            backward(loss)
            return [p.grad.tobytes() for p in net.parameters()] + [x.grad.tobytes()], inner

        released, inner = run(Tensor.backward)
        kept, _ = run(_backward_keeping_grads)
        assert len(inner) > 20 and all(n.grad is None for n in inner)
        assert released == kept


def _lane_op(op, dtype, b):
    """(output, gradients) bytes of one op on seeded inputs, weighted sum backward."""
    rng = np.random.default_rng(b)
    if op == "conv2d":
        params = [rng.normal(size=(b, 3, 9, 9)), rng.normal(size=(4, 3, 3, 3))]
        fn = lambda x, k: conv2d(x, k, padding=1)  # noqa: E731
    elif op == "conv2d_transpose":
        params = [rng.normal(size=(b, 4, 5, 5)), rng.normal(size=(4, 3, 3, 3))]
        fn = lambda x, k: conv2d_transpose(x, k, stride=2, padding=1, size=(10, 10))  # noqa: E731
    else:
        params = [rng.normal(size=(b, 5, 6, 6)), rng.normal(size=5), rng.normal(size=5)]
        fn = lambda x, g, be: scale_shift(x, g, be, training=True)  # noqa: E731
    params = [Tensor(p.astype(dtype), requires_grad=True) for p in params]
    out = fn(*params)
    (out * Tensor(rng.normal(size=out.shape).astype(dtype))).sum().backward()
    return [out.data.tobytes()] + [p.grad.tobytes() for p in params]


class TestLanes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, 2, 3, 5])
    @pytest.mark.parametrize("op", ["conv2d", "conv2d_transpose", "scale_shift"])
    def test_bytes_do_not_depend_on_lanes(self, monkeypatch, op, b, dtype):
        # on three lanes switching as often as the interpreter allows:
        # the bytes of one lane
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = []
            for count in (1, 3):
                monkeypatch.setattr(T, "_inference_threads", lambda: count)
                with T._lanes():
                    runs.append(_lane_op(op, dtype, b))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == _lane_op(op, dtype, b)
        assert threading.active_count() == before

    def test_split_ranges(self, monkeypatch):
        monkeypatch.setattr(T, "_inference_threads", lambda: 3)
        seen = []
        with T._lanes():
            T._split(lambda s: seen.append((s.start, s.stop)), 7)
            with T.no_graph():
                T._split(lambda s: seen.append(("eval", s.start, s.stop)), 7)
        assert sorted(seen[:3]) == [(0, 2), (2, 4), (4, 7)]
        assert seen[3:] == [("eval", 0, 7)]

    @pytest.mark.parametrize("b", [0, 1])
    def test_batch_below_two_samples(self, monkeypatch, b):
        # a batch of 1 sample runs on the caller, whatever W; one of 0 is
        # rejected in both modes before the running stats are read or written
        rng = np.random.default_rng(b)
        x, gamma, beta = (rng.normal(size=s).astype(np.float32) for s in ((b, 4, 6, 6), 4, 4))
        runs = []
        for count in (1, 3):
            monkeypatch.setattr(T, "_inference_threads", lambda: count)
            stats = T.RunningStats(4)
            with T._lanes():
                if b == 0:
                    for training in (True, False):
                        with pytest.raises(ShapeError, match="the batch has no samples"):
                            scale_shift(Tensor(x), Tensor(gamma), Tensor(beta),
                                        training=training, running=stats)
                    assert not stats.initialized
                    assert np.array_equal(stats.mean, np.zeros(4))
                    assert np.array_equal(stats.var, np.ones(4))
                    continue
                out = scale_shift(Tensor(x), Tensor(gamma), Tensor(beta),
                                  training=True, running=stats)
            runs.append((out.shape, out.data.tobytes(), stats.mean.tobytes(),
                         stats.var.tobytes()))
        assert b == 0 or (runs[0] == runs[1] and runs[0][0] == (b, 4, 6, 6))

    def test_one_lane_starts_no_thread_and_nested_blocks_reuse(self, monkeypatch):
        before = threading.active_count()
        monkeypatch.setattr(T, "_inference_threads", lambda: 1)
        with T._lanes() as one:
            assert threading.active_count() == before and one.count == 1
        monkeypatch.setattr(T, "_inference_threads", lambda: 3)
        with T._lanes() as outer:
            monkeypatch.setattr(T, "_inference_threads", lambda: 2)
            with T._lanes() as inner:
                assert inner is outer and threading.active_count() == before + 2
        assert threading.active_count() == before

    def test_task_error_raised_after_every_lane_is_done(self, monkeypatch):
        finished = []

        def task(s):
            if s.start == 0:
                raise ValueError("lane 0")
            finished.append(s.start)

        monkeypatch.setattr(T, "_inference_threads", lambda: 3)
        with T._lanes():
            with pytest.raises(ValueError):
                T._split(task, 3)
            assert sorted(finished) == [1, 2]


class TestLaneTasks:
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    @pytest.mark.parametrize("count", [1, 3])
    def test_map_keeps_input_order(self, monkeypatch, count, n):
        seen = []

        def square(x):
            seen.append((threading.get_ident(), x))
            return x * x

        monkeypatch.setattr(T, "_inference_threads", lambda: count)
        with T._lanes() as pool:
            assert pool.map(square, list(range(n))) == [x * x for x in range(n)]
        # each lane took one contiguous run
        runs = {}
        for ident, x in seen:
            runs.setdefault(ident, []).append(x)
        k = max(1, min(count, n))
        want = [list(range(n * j // k, n * (j + 1) // k)) for j in range(k)]
        assert sorted(runs.values()) == [run for run in want if run]

    @pytest.mark.parametrize("failing", [(2,), (5,), (2, 5), (5, 6)])
    def test_map_raises_first_failing_item(self, monkeypatch, failing):
        def task(x):
            if x in failing:
                raise KeyError(x)
            return x

        monkeypatch.setattr(T, "_inference_threads", lambda: 3)
        with T._lanes() as pool:
            with pytest.raises(KeyError) as err:
                pool.map(task, range(7))
        assert err.value.args == (failing[0],)

    @pytest.mark.parametrize("count", [1, 2])
    def test_nested_map_refused(self, count):
        # an item that maps on the lanes running it, on the caller (item 0)
        # or on a worker (item 1 at W = 2), gets a RuntimeError instead of
        # waiting on lanes that are busy with the outer map
        pool = T._Lanes(count)
        got = []

        def outer(i):
            try:
                return pool.map(lambda x: x, [10 * i, 10 * i + 1])
            except RuntimeError as err:
                return str(err)

        thread = threading.Thread(target=lambda: got.append(pool.map(outer, [0, 1])),
                                  daemon=True)
        thread.start()
        thread.join(5)
        assert not thread.is_alive(), "the nested map did not return"
        assert got == [["lane maps do not nest: these lanes are already mapping"] * 2]
        assert pool.map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]
        pool.close()


class TestGradCheckHarness:
    def test_linear_op_exact(self):
        x = Tensor(np.abs(np.random.default_rng(20).normal(size=(3, 3))) + 0.1,
                   requires_grad=True)
        err = grad_check(lambda t: (t * 2.0 - 1.0).sum(), x)
        assert err < 1e-8

    def test_scalar_algebra_graph(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = (x * x + 3.0) / (x + 1.0)
        y.backward()
        # d/dx (x^2+3)/(x+1) at 2 = (2x(x+1)-(x^2+3))/(x+1)^2 = (12-7)/9
        assert abs(x.grad - 5.0 / 9.0) < 1e-12
