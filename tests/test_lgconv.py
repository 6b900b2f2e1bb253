"""Pruning arithmetic, penalty values, and inference-form equivalence."""

import sys
import threading

import numpy as np
import pytest

from condenseg import lgconv
from condenseg import tensor as T
from condenseg.lgconv import (
    CondensationSchedule,
    LGConvLayer,
    StageError,
    condense,
    group_lasso_penalty,
    importance_scores,
    lg_forward,
    schedule_stage,
    to_inference,
)
from condenseg.tensor import ShapeError, Tensor, conv2d, grad_check, he_normal, no_graph


def make_layer(h, n, groups=1, C=1, k=3, seed=0):
    layer = LGConvLayer(h, n, kernel_size=k, groups=groups, condensation_factor=C)
    he_normal(layer.kernel, np.random.default_rng(seed))
    return layer


class TestForward:
    def test_single_group_matches_dense(self):
        rng = np.random.default_rng(1)
        layer = make_layer(3, 4)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)))
        got = lg_forward(layer, x, padding=1)
        want = conv2d(x, layer.kernel, padding=1)
        assert np.array_equal(got.data, want.data)

    def test_block_diagonal_matches_two_convs(self):
        rng = np.random.default_rng(2)
        layer = make_layer(4, 6, groups=2)
        layer.mask[:3, 2:] = 0  # group 0 sees channels 0-1
        layer.mask[3:, :2] = 0  # group 1 sees channels 2-3
        layer.apply_mask()
        x = Tensor(rng.normal(size=(1, 4, 5, 5)))
        got = lg_forward(layer, x, padding=1).data

        xa = Tensor(x.data[:, :2])
        xb = Tensor(x.data[:, 2:])
        ka = Tensor(layer.kernel.data[:3, :2])
        kb = Tensor(layer.kernel.data[3:, 2:])
        want = np.concatenate([conv2d(xa, ka, padding=1).data,
                               conv2d(xb, kb, padding=1).data], axis=1)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_dead_channel_ignores_input(self):
        rng = np.random.default_rng(3)
        layer = make_layer(4, 4, groups=2)
        layer.mask[:, 1] = 0
        layer.apply_mask()
        x = rng.normal(size=(1, 4, 5, 5))
        base = lg_forward(layer, Tensor(x)).data
        x2 = x.copy()
        x2[:, 1] += 100.0
        assert np.array_equal(lg_forward(layer, Tensor(x2)).data, base)

    def test_channel_mismatch_raises(self):
        layer = make_layer(3, 4)
        with pytest.raises(ShapeError):
            lg_forward(layer, Tensor(np.zeros((1, 5, 6, 6))))

    def test_pruned_weights_get_zero_gradient(self):
        layer = make_layer(4, 4, groups=2, C=2)
        condense(layer)
        x = Tensor(np.random.default_rng(4).normal(size=(1, 4, 6, 6)))
        lg_forward(layer, x, padding=1).sum().backward()
        assert np.all(layer.kernel.grad[layer.mask[:, :, None, None]
                                        * np.ones_like(layer.kernel.data) == 0] == 0)


class TestGrouped:
    def test_writes_reach_kernel_and_mask(self):
        layer = make_layer(3, 6, groups=3)
        w, mask = layer.grouped()
        assert w.shape == (3, 2, 3, 3, 3) and mask.shape == (3, 2, 3)
        w[1, :, 2] = 7.0
        mask[1, :, 2] = 0
        assert np.all(layer.kernel.data[2:4, 2] == 7.0)
        assert np.all(layer.kernel.data[[0, 1, 4, 5], 2] != 7.0)
        assert np.array_equal(np.flatnonzero(layer.mask == 0), [2 * 3 + 2, 3 * 3 + 2])


class TestImportance:
    def test_equal_weights_equal_scores(self):
        layer = make_layer(5, 4, groups=2)
        layer.kernel.data[:] = 0.7
        s = importance_scores(layer)
        assert s.shape == (2, 5)
        assert np.allclose(s, 0.7)

    def test_hand_ranking(self):
        layer = make_layer(3, 2, k=1)
        layer.kernel.data[:, 0] = 0.5
        layer.kernel.data[:, 1] = -0.1
        layer.kernel.data[:, 2] = 0.9
        s = importance_scores(layer)[0]
        assert s[2] > s[0] > s[1]
        assert np.allclose(s, [0.5, 0.1, 0.9])

    def test_pruned_channel_scores_neg_inf(self):
        layer = make_layer(4, 4, C=2)
        layer.mask[:, 2] = 0
        assert importance_scores(layer)[0, 2] == -np.inf


class TestCondense:
    def test_alive_counts_h8_c4(self):
        layer = make_layer(8, 8, groups=4, C=4)
        expect = [6, 4, 2]
        for want in expect:
            rep = condense(layer)
            assert rep["alive_per_group"] == want
            assert layer.alive_per_group() == [want] * 4

    def test_alive_counts_h16_c4(self):
        layer = make_layer(16, 16, groups=4, C=4)
        got = [condense(layer)["alive_per_group"] for _ in range(3)]
        assert got == [12, 8, 4]

    def test_fully_condensed_raises(self):
        layer = make_layer(8, 8, groups=4, C=4)
        for _ in range(3):
            condense(layer)
        with pytest.raises(StageError):
            condense(layer)

    def test_dense_layer_never_condensable(self):
        layer = make_layer(8, 8, C=1)
        with pytest.raises(StageError):
            condense(layer)

    def test_matches_bottom_k_oracle(self):
        rng = np.random.default_rng(7)
        layer = make_layer(8, 4, groups=1, C=4, seed=7)
        means = np.abs(layer.kernel.data).mean(axis=(0, 2, 3))
        want_drop = sorted(np.argsort(means, kind="stable")[:2])  # 8 -> 6
        rep = condense(layer)
        assert rep["pruned"][0] == [int(i) for i in want_drop]

    def test_zero_channel_pruned_first(self):
        layer = make_layer(6, 3, groups=1, C=6)
        layer.kernel.data[:, 4] = 0.0
        rep = condense(layer)
        assert rep["pruned"][0] == [4]

    def test_monotone_and_masks_identical_within_group(self):
        layer = make_layer(16, 8, groups=2, C=4, seed=11)
        prev = [set(np.flatnonzero(layer.mask[r])) for r in (0, 4)]
        for _ in range(3):
            condense(layer)
            cur = []
            for g, row in enumerate((0, 4)):
                alive = set(np.flatnonzero(layer.mask[row]))
                assert alive <= prev[g]
                for r in range(row, row + 4):
                    assert np.array_equal(layer.mask[r], layer.mask[row])
                cur.append(alive)
            prev = cur
        # pruned weights are exactly zero
        assert np.all(layer.kernel.data[layer.mask == 0] == 0)

    def test_scale_covariant_decisions(self):
        a = make_layer(8, 4, groups=2, C=4, seed=13)
        b = make_layer(8, 4, groups=2, C=4, seed=13)
        b.kernel.data *= 3.5
        assert condense(a)["pruned"] == condense(b)["pruned"]


class TestGroupLasso:
    def test_zero_weights(self):
        layer = make_layer(4, 4)
        layer.kernel.data[:] = 0.0
        assert group_lasso_penalty(layer).item() == 0.0

    def test_hand_value_3_4_5(self):
        layer = make_layer(1, 2, k=1)
        layer.kernel.data[0, 0, 0, 0] = 3.0
        layer.kernel.data[1, 0, 0, 0] = 4.0
        assert abs(group_lasso_penalty(layer).item() - 5.0) < 1e-12

    def test_filter_permutation_invariant(self):
        layer = make_layer(5, 6, groups=2, seed=3)
        before = group_lasso_penalty(layer).item()
        layer.kernel.data[[0, 2]] = layer.kernel.data[[2, 0]]  # swap in group 0
        assert abs(group_lasso_penalty(layer).item() - before) < 1e-12

    def test_linear_scaling(self):
        layer = make_layer(5, 6, groups=3, seed=4)
        before = group_lasso_penalty(layer).item()
        layer.kernel.data *= 2.0
        assert abs(group_lasso_penalty(layer).item() - 2 * before) < 1e-9

    def test_nonnegative(self):
        layer = make_layer(6, 6, groups=2, seed=5)
        assert group_lasso_penalty(layer).item() > 0

    def test_gradient(self):
        layer = make_layer(4, 4, groups=2, seed=6)
        err = grad_check(lambda _: group_lasso_penalty(layer), layer.kernel)
        assert err < T.GRAD_TOL

    def test_zero_block_zero_gradient(self):
        layer = make_layer(4, 4, groups=2, C=2, seed=8)
        condense(layer)
        group_lasso_penalty(layer).backward()
        assert np.all(layer.kernel.grad[layer.mask[:, :, None, None]
                                        * np.ones_like(layer.kernel.data) == 0] == 0)


class TestSchedule:
    def test_boundaries_100_c4(self):
        sched = CondensationSchedule(100, 4)
        assert sched.stage_boundaries == [16, 33, 50]
        assert schedule_stage(sched, 0) == 0
        assert schedule_stage(sched, 15) == 0
        assert schedule_stage(sched, 16) == 1
        assert schedule_stage(sched, 49) == 2
        assert schedule_stage(sched, 50) == 3
        assert schedule_stage(sched, 99) == 3

    def test_c1_all_optimization(self):
        sched = CondensationSchedule(40, 1)
        assert sched.stage_boundaries == []
        assert schedule_stage(sched, 0) == 0
        assert schedule_stage(sched, 39) == 0

    def test_epoch_out_of_range(self):
        sched = CondensationSchedule(10, 2)
        with pytest.raises(ValueError):
            schedule_stage(sched, 10)
        with pytest.raises(ValueError):
            schedule_stage(sched, -1)

    def test_too_few_epochs_rejected(self):
        with pytest.raises(ValueError):
            CondensationSchedule(4, 4)


class TestInferenceForm:
    def test_dense_identity(self):
        layer = make_layer(4, 4, C=1, seed=9)
        inf = to_inference(layer)
        assert np.array_equal(inf.index[0], np.arange(4))
        assert np.array_equal(inf.grouped_kernel[0], layer.kernel.data)

    def test_weight_count_4x_reduction(self):
        layer = make_layer(8, 8, groups=4, C=4, seed=10)
        for _ in range(3):
            condense(layer)
        inf = to_inference(layer)
        assert inf.weight_count() == 144
        assert layer.kernel.data.size == 576
        assert inf.weight_count() == int(layer.mask.sum()) * 9

    def test_not_condensed_raises(self):
        layer = make_layer(8, 8, groups=4, C=4)
        with pytest.raises(StageError):
            to_inference(layer)

    def test_equivalence_100_inputs(self):
        rng = np.random.default_rng(12)
        layer = make_layer(8, 8, groups=4, C=4, seed=12)
        for _ in range(3):
            condense(layer)
        inf = to_inference(layer)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=(1, 8, 6, 6))
            dense = lg_forward(layer, Tensor(x), padding=1).data
            compact = inf.forward(x, padding=1)
            worst = max(worst, float(np.max(np.abs(dense - compact))))
        assert worst < T.INFERENCE_MATCH_TOL


ALIVE = {"disjoint": [[0, 1, 2, 3], [4, 5, 6, 7]],
         "overlapping": [[0, 2, 3, 5], [1, 2, 5, 7]]}


def condensed_layer(alive, k, dtype, seed):
    """A fully condensed 8-channel, 2-group layer of 6 filters keeping `alive`."""
    layer = LGConvLayer(8, 6, kernel_size=k, groups=2, condensation_factor=2, dtype=dtype)
    he_normal(layer.kernel, np.random.default_rng(seed))
    _, mask = layer.grouped()
    mask[...] = 0
    for g, channels in enumerate(ALIVE[alive]):
        mask[g, :, channels] = 1
    layer.apply_mask()
    layer.stage = 1
    return layer


def gathered_and_dense(layer, x0, g, training):
    """(output, x gradient, kernel gradient) bytes of lg_forward and of
    conv2d over the masked kernel, for output gradient g."""
    runs = []
    for gathered in (True, False):
        x = Tensor(x0.copy(), requires_grad=True)
        layer.kernel.zero_grad()
        k = layer.kernel
        if gathered:
            forward = lambda: lg_forward(layer, x, padding=k.shape[2] // 2)  # noqa: E731
        else:
            mask4 = np.ascontiguousarray(np.broadcast_to(layer.mask[:, :, None, None], k.shape))
            forward = lambda: conv2d(x, k * Tensor(mask4), padding=k.shape[2] // 2)  # noqa: E731
        if not training:
            with no_graph():
                runs.append([forward().data.tobytes()])
            continue
        out = forward()
        (out * Tensor(g)).sum().backward()
        runs.append([out.data.tobytes(), x.grad.tobytes(), k.grad.tobytes()])
    return runs


class TestGatheredForward:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("alive", sorted(ALIVE))
    def test_bytes_equal_masked_dense(self, alive, k, dtype, training):
        layer = condensed_layer(alive, k, dtype, seed=k)
        rng = np.random.default_rng(20 + k)
        x0 = rng.normal(size=(3, 8, 7, 5)).astype(dtype)
        g = rng.normal(size=(3, 6, 7, 5)).astype(dtype)
        gathered, dense = gathered_and_dense(layer, x0, g, training)
        assert gathered == dense

    def test_only_the_last_stage_gathers(self, monkeypatch):
        indices = []

        def recording(x, kernel, padding=0, index=None):
            indices.append(index)
            return conv2d(x, kernel, padding=padding, index=index)

        monkeypatch.setattr(lgconv, "conv2d", recording)
        layer = make_layer(8, 4, groups=2, C=4, seed=3)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 8, 5, 5)))
        for _ in range(3):
            lg_forward(layer, x, padding=1)
            condense(layer)
        lg_forward(layer, x, padding=1)
        assert [index is None for index in indices] == [True, True, True, False]
        assert np.array_equal(indices[-1], to_inference(layer).index)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, 2, 3, 5])
    def test_bytes_do_not_depend_on_lanes(self, monkeypatch, b, dtype):
        # on three lanes switching as often as the interpreter allows:
        # the bytes of one lane
        layer = condensed_layer("overlapping", 3, dtype, seed=b)
        rng = np.random.default_rng(b)
        x0 = rng.normal(size=(b, 8, 9, 9)).astype(dtype)
        g = rng.normal(size=(b, 6, 9, 9)).astype(dtype)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = []
            for count in (1, 3):
                monkeypatch.setattr(T, "_inference_threads", lambda: count)
                with T._lanes():
                    runs.append(gathered_and_dense(layer, x0, g, training=True)[0])
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == gathered_and_dense(layer, x0, g, training=True)[1]
        assert threading.active_count() == before
