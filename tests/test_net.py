"""Architecture wiring, accounting, condensation scheduling, checkpoints."""

import contextlib
import dataclasses
import functools
import json
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condenseg import tensor as T
from condenseg.lgconv import StageError, condensation_stage, condense
from condenseg.net import (
    CondenseBlock,
    ConfigError,
    NetConfig,
    Stem,
    Transition,
    apply_condensation,
    build,
    load_checkpoint,
    save_checkpoint,
)
from condenseg.tensor import ShapeError, Tensor, UninitializedStatsError, conv2d
from gradcheck import GRAD_TOL, grad_check


def small_config():
    return NetConfig(input_size=32, layers_per_block=(1, 1, 2, 1, 1),
                     pool_layers=2)


def small_net(seed=0):
    return build(small_config(), rng=np.random.default_rng(seed))


class TestConfig:
    def test_default_valid(self):
        cfg = NetConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.input_size = 100  # checked once, when built, so it cannot change

    def test_wrong_block_count(self):
        with pytest.raises(ConfigError, match="pool_layers must be 2"):
            NetConfig(layers_per_block=(2, 3, 4, 3, 2))  # pool_layers still 3

    def test_non_palindromic(self):
        with pytest.raises(ConfigError, match="palindromic"):
            NetConfig(layers_per_block=(2, 3, 4, 5, 4, 3, 1))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_num_classes_other_than_the_labels(self, n):
        # training's masks carry the four LABEL_NAMES classes, so any other
        # head fails at the first step; the config refuses it when built
        with pytest.raises(ConfigError, match="num_classes must be 4, got %d" % n):
            NetConfig(num_classes=n)

    def test_input_size_not_divisible(self):
        with pytest.raises(ConfigError, match="input_size 100 not divisible"):
            NetConfig(input_size=100)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_build_draws_kernels_in_parameter_order(self, dtype):
        # every 4-D parameter gets one He-normal draw, in parameter order;
        # nothing else draws, so the generator ends where the loop's does
        net_rng, loop_rng = np.random.default_rng(21), np.random.default_rng(21)
        net = build(small_config(), rng=net_rng, dtype=dtype)
        for p in net.parameters():
            if p.data.ndim == 4:
                fan_in = int(np.prod(p.shape[1:]))
                want = loop_rng.normal(0.0, np.sqrt(2.0 / fan_in), size=p.shape).astype(dtype)
                assert np.array_equal(p.data, want), p.name
        assert net_rng.integers(2 ** 63) == loop_rng.integers(2 ** 63)

    def test_error_lists_all_violations(self):
        with pytest.raises(ConfigError) as err:
            NetConfig(input_size=100, num_classes=1, growth_rate=15)
        msg = str(err.value)
        assert "divisible" in msg and "num_classes" in msg and "growth_rate" in msg


class TestAccounting:
    def test_default_param_band(self):
        net = build(NetConfig(), rng=np.random.default_rng(0))
        n = net.param_count("dense")
        assert 250_000 <= n <= 450_000
        assert net.param_count("alive") == n  # nothing pruned yet

    def test_alive_drops_to_quarter_of_lg_weights(self):
        net = small_net()
        for stage in (1, 2, 3):
            apply_condensation(net, stage)
        dense_lg = sum(lg.kernel.data.size for lg in net.lg_layers())
        alive_lg = sum(int(lg.mask.sum()) * 9 for lg in net.lg_layers())
        # ceil rounding adds at most (C-1)/C of a channel per filter
        assert alive_lg <= dense_lg / 4 + sum(9 * lg.out_channels
                                              for lg in net.lg_layers())
        assert net.param_count("alive") == net.param_count("dense") - (dense_lg - alive_lg)

    def test_flop_count_positive_and_mode_aware(self):
        net = small_net()
        dense = net.flop_count("dense")
        assert dense > 0
        for stage in (1, 2, 3):
            apply_condensation(net, stage)
        assert net.flop_count("alive") < dense

    @pytest.mark.parametrize("config, dense, alive", [
        (NetConfig(), (846_012_416, 297_194), (351_334_400, 140_378)),
        (small_config(), (15_241_216, 38_026), (7_444_480, 21_178)),
    ])
    def test_pinned_counts(self, config, dense, alive):
        net = build(config, rng=np.random.default_rng(0))
        assert (net.flop_count("dense"), net.param_count("dense")) == dense
        apply_condensation(net, 3)
        assert (net.flop_count("alive"), net.param_count("alive")) == alive
        assert (net.flop_count("dense"), net.param_count("dense")) == dense

    @pytest.mark.parametrize("condensed", [False, True], ids=["dense", "condensed"])
    def test_flop_count_is_the_conv_gemms(self, monkeypatch, condensed):
        # every conv runs one GEMM of all kernel weights over its input
        # positions; LG layers run masked dense, so "dense" counts them all
        net = small_net()
        if condensed:
            apply_condensation(net, 3)
        run = []
        conv = T._conv

        def counted(x, kernel, *args, **kwargs):
            run.append(kernel.data.size * x.shape[2] * x.shape[3])
            return conv(x, kernel, *args, **kwargs)

        monkeypatch.setattr(T, "_conv", counted)
        net.forward(Tensor(np.zeros((1, 1, 32, 32))), training=True)
        assert sum(run) == net.flop_count("dense")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            small_net().param_count("sparse")


class TestForward:
    def test_output_shape_and_prob_sums(self):
        net = small_net()
        for b in (1, 2, 3):
            x = Tensor(np.random.default_rng(b).normal(size=(b, 1, 32, 32)))
            out = net.forward(x, training=True)
            assert out.shape == (b, 4, 32, 32)
            assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-6

    def test_constant_input_near_uniform_output(self):
        # zero padding breaks exact spatial constancy (border effects spread
        # through pools/upsampling), so "no learned structure" is tested as:
        # interior probabilities loosely uniform, class means near the prior
        net = small_net(seed=4)
        x = Tensor(np.full((1, 1, 32, 32), 3.7))
        out = net.forward(x, training=True).data
        interior = np.abs(out[:, :, 8:24, 8:24] - 0.25)
        assert interior.max() < 0.3
        means = out.mean(axis=(0, 2, 3))
        assert np.all(means > 0.1) and np.all(means < 0.45)

    def test_wrong_input_size_raises(self):
        net = small_net()
        with pytest.raises(ShapeError):
            net.forward(Tensor(np.zeros((1, 1, 64, 64))))
        with pytest.raises(ShapeError):
            net.forward(Tensor(np.zeros((1, 2, 32, 32))))

    @pytest.mark.parametrize("training", [True, False])
    def test_empty_batch_raises(self, training):
        net = small_net()
        net.forward(Tensor(np.zeros((2, 1, 32, 32))), training=True)
        with pytest.raises(ShapeError, match="no samples"):
            net.forward(Tensor(np.zeros((0, 1, 32, 32))), training=training)

    def test_inference_before_stats_raises(self):
        with pytest.raises(UninitializedStatsError):
            small_net().forward(Tensor(np.zeros((1, 1, 32, 32))), training=False)

    def test_eval_graph_starts_at_head_batchnorm(self):
        # an eval forward records no graph at all: its output is a leaf
        net = small_net()
        x = Tensor(np.random.default_rng(6).normal(size=(1, 1, 32, 32)))
        net.forward(x, training=True)
        out = net.forward(x, training=False)
        assert out._parents == () and out._backward is None
        assert not out.requires_grad

    def test_training_forward_after_eval_records_graph(self):
        net = small_net()
        x = Tensor(np.random.default_rng(6).normal(size=(2, 1, 32, 32)))
        net.forward(x, training=True)
        net.forward(x, training=False)
        out = net.forward(x, training=True)
        assert out.requires_grad and out._parents
        for p in net.parameters():
            p.grad = None
        out.sum().backward()
        assert all(p.grad is not None for p in net.parameters())

    def test_deterministic(self):
        x = Tensor(np.random.default_rng(7).normal(size=(1, 1, 32, 32)))
        a = small_net(seed=5).forward(x, training=True).data
        b = small_net(seed=5).forward(x, training=True).data
        assert np.array_equal(a, b)


class TestApplyCondensation:
    def test_off_boundary_empty(self):
        net = small_net()
        for epoch in (0, 15):
            assert apply_condensation(net, condensation_stage(epoch, 100, 4)) == []

    def test_three_events_per_layer_over_run(self):
        net = small_net()
        n_lg = len(net.lg_layers())
        events = []
        alive = [net.param_count("alive")]
        for epoch in range(100):
            events.extend(apply_condensation(net, condensation_stage(epoch, 100, 4)))
            alive.append(net.param_count("alive"))
        assert len(events) == 3 * n_lg
        assert all(lg.stage == 3 for lg in net.lg_layers())
        assert all(a >= b for a, b in zip(alive, alive[1:]))  # non-increasing

    def test_catches_up_after_skipped_epochs(self):
        net = small_net()
        # straight to optimization
        events = apply_condensation(net, condensation_stage(60, 100, 4))
        assert len(events) == 3 * len(net.lg_layers())

    def test_stage_past_c_minus_1_rejected(self):
        net = small_net()
        with pytest.raises(StageError, match="fully condensed"):
            apply_condensation(net, 4)


class TestCheckpoint:
    def test_roundtrip_bytes_and_outputs(self, tmp_path):
        net = small_net(seed=9)
        x = Tensor(np.random.default_rng(10).normal(size=(2, 1, 32, 32)))
        net.forward(x, training=True)  # populate running stats
        apply_condensation(net, 1)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(net, p1, epoch=3)
        net2, header = load_checkpoint(p1)
        assert header["epoch"] == 3
        save_checkpoint(net2, p2, epoch=3)
        assert p1.read_bytes() == p2.read_bytes()
        a = net.forward(x, training=False).data
        b = net2.forward(x, training=False).data
        assert np.array_equal(a, b)
        assert [lg.stage for lg in net2.lg_layers()] == \
               [lg.stage for lg in net.lg_layers()]

    def test_failed_save_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "n.ckpt"
        save_checkpoint(small_net(seed=3), path, epoch=1)
        old = path.read_bytes()

        def no_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(OSError, match="replace failed"):
            save_checkpoint(small_net(seed=4), path, epoch=2)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert load_checkpoint(path)[1]["epoch"] == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        p = tmp_path / "n.ckpt"
        save_checkpoint(small_net(seed=3), p)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_checkpoint created a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        legacy = np.random.get_state()[1].copy()
        net, _ = load_checkpoint(p)
        assert np.array_equal(np.random.get_state()[1], legacy)
        save_checkpoint(net, tmp_path / "m.ckpt")
        assert (tmp_path / "m.ckpt").read_bytes() == p.read_bytes()

    def test_header_records_provenance(self, tmp_path, monkeypatch):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        p = tmp_path / "p.ckpt"
        for threads in ("3", None):
            for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
                monkeypatch.delenv(var, raising=False)
            if threads is not None:
                monkeypatch.setenv("GOTO_NUM_THREADS", threads)
            save_checkpoint(small_net(), p)
            header = json.loads(p.read_bytes().split(b"\n", 1)[0])
            assert header["provenance"] == {
                "numpy": np.__version__, "blas": blas["name"],
                "blas_version": blas["version"],
                "blas_thread_env": {"OPENBLAS_NUM_THREADS": None,
                                    "GOTO_NUM_THREADS": threads,
                                    "OMP_NUM_THREADS": None},
                "cpu_count": os.cpu_count()}

    def test_load_ignores_provenance(self, tmp_path):
        net = small_net(seed=4)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 1, 32, 32)))
        net.forward(x, training=True)
        p = tmp_path / "p.ckpt"
        want = net.forward(x, training=False).data
        for edit in (lambda h: h.pop("provenance"),
                     lambda h: h.update(provenance={"numpy": "0.0", "blas": None})):
            save_checkpoint(net, p)
            _edit_checkpoint(p, edit)
            loaded, _ = load_checkpoint(p)
            assert np.array_equal(loaded.forward(x, training=False).data, want)

    def test_header_is_version_2_without_history(self, tmp_path):
        p = tmp_path / "h.ckpt"
        save_checkpoint(small_net(), p)
        header = json.loads(p.read_bytes().split(b"\n", 1)[0])
        assert header["version"] == 2 and "history" not in header

    def test_version_1_with_history_loads(self, tmp_path):
        # version 1 files also carry each layer's pruning log, which loading ignores
        net = small_net(seed=8)
        x = Tensor(np.random.default_rng(9).normal(size=(2, 1, 32, 32)))
        net.forward(x, training=True)
        history = {lg.name: [] for lg in net.lg_layers()}
        for name, report in apply_condensation(net, 3):
            history[name].append(report)
        p = tmp_path / "v1.ckpt"
        save_checkpoint(net, p)
        _edit_checkpoint(p, lambda h: h.update(version=1, history=history))
        loaded, header = load_checkpoint(p)
        assert header["version"] == 1
        assert np.array_equal(loaded.forward(x, training=False).data,
                              net.forward(x, training=False).data)
        assert [lg.stage for lg in loaded.lg_layers()] == [3] * len(history)

    @pytest.mark.parametrize("edit", [
        lambda h: h.update(version=0), lambda h: h.update(version=3),
        lambda h: h.update(version="2"), lambda h: h.update(version=2.0),
        lambda h: h.update(version=True), lambda h: h.pop("version"),
    ], ids=["0", "3", "str", "float", "bool", "missing"])
    def test_other_versions_rejected(self, tmp_path, edit):
        p = tmp_path / "v.ckpt"
        save_checkpoint(small_net(), p)
        _edit_checkpoint(p, edit)
        with pytest.raises(ValueError, match=r"version is .*, not one of \(1, 2\)|has no version"):
            load_checkpoint(p)

    def test_bad_header_raises(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"not json\n\x00\x01")
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_truncated_raises(self, tmp_path):
        net = small_net()
        p = tmp_path / "t.ckpt"
        save_checkpoint(net, p)
        data = p.read_bytes()
        p.write_bytes(data[:len(data) - 100])
        with pytest.raises(ValueError):
            load_checkpoint(p)


def _edit_checkpoint(path, edit, drop=(), retype=None):
    """Rewrite a checkpoint's header with `edit`, removing the manifest
    entries and buffer bytes of the names in `drop` and storing the buffer
    named `retype` as float64."""
    data = path.read_bytes()
    cut = data.index(b"\n")
    header, blob = json.loads(data[:cut]), data[cut + 1:]
    kept, parts, offset = [], [], 0
    for item in header["manifest"]:
        n = int(np.prod(item["shape"])) * np.dtype(item["dtype"]).itemsize
        buf = blob[offset:offset + n]
        if item["name"] == retype:
            buf = np.frombuffer(buf, item["dtype"]).astype("<f8").tobytes()
            item["dtype"] = "<f8"
        if item["name"] not in drop:
            kept.append(item)
            parts.append(buf)
        offset += n
    header["manifest"] = kept
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"".join(parts))


class TestIncompleteCheckpoint:
    @pytest.fixture
    def ckpt(self, tmp_path):
        p = tmp_path / "net.ckpt"
        save_checkpoint(small_net(), p)
        return p

    def test_missing_buffer(self, ckpt):
        _edit_checkpoint(ckpt, lambda h: None, drop=("dec0.layer0.lg.mask",))
        with pytest.raises(ValueError, match="missing buffer dec0.layer0.lg.mask"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("name", ["stem.nope", "stem.dw3"], ids=["unknown", "repeated"])
    def test_unknown_or_repeated_buffer(self, ckpt, name):
        # the second entry takes the name: one the network lacks, or the first's
        _edit_checkpoint(ckpt, lambda h: h["manifest"][1].update(name=name))
        with pytest.raises(ValueError, match="unknown or repeated buffer " + name):
            load_checkpoint(ckpt)

    def test_buffer_of_another_shape(self, ckpt):
        _edit_checkpoint(ckpt, lambda h: h["manifest"][0]["shape"].reverse())
        with pytest.raises(ValueError, match=re.escape(
                "stem.dw3 has shape (3, 3, 1, 1), expected (1, 1, 3, 3)")):
            load_checkpoint(ckpt)

    def test_bytes_after_last_buffer(self, ckpt):
        ckpt.write_bytes(ckpt.read_bytes() + bytes(4))
        with pytest.raises(ValueError, match="4 trailing bytes"):
            load_checkpoint(ckpt)

    def test_bn_initialized_length(self, ckpt):
        _edit_checkpoint(ckpt, lambda h: h["bn_initialized"].pop())
        with pytest.raises(ValueError, match="bn_initialized"):
            load_checkpoint(ckpt)

    def test_lg_stages_keys(self, ckpt):
        _edit_checkpoint(ckpt, lambda h: h["lg_stages"].pop("enc1.layer0.lg"))
        with pytest.raises(ValueError, match="lg_stages has no enc1.layer0.lg"):
            load_checkpoint(ckpt)
        _edit_checkpoint(ckpt, lambda h: h["lg_stages"].update({"enc1.layer0.lg": 0, "extra.lg": 0}))
        with pytest.raises(ValueError, match="lg_stages has unknown fields: extra.lg"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("edit, field", [
        (lambda h: h.pop("config"), "header has no config"),
        (lambda h: h.pop("manifest"), "header has no manifest"),
        (lambda h: h["config"].update(dropout=0.1), "config has unknown fields: dropout"),
        (lambda h: h["lg_stages"].update({"enc1.layer0.lg": "x"}), "lg_stages: enc1.layer0.lg is 'x'"),
        (lambda h: h["lg_stages"].update({"enc1.layer0.lg": 99}), "enc1.layer0.lg is at stage 99, outside"),
        (lambda h: h["lg_stages"].update({"enc1.layer0.lg": True}), "lg_stages: enc1.layer0.lg is True"),
        (lambda h: h["bn_initialized"].__setitem__(0, "yes"), "bn_initialized"),
        (lambda h: h.update(config=[]), "config is \\[\\], not a dict"),
        (lambda h: h.update(manifest={}), "manifest is {}, not a list"),
        (lambda h: h.update(lg_stages=[]), "lg_stages is \\[\\], not a dict"),
        (lambda h: h.update(bn_initialized=3), "bn_initialized is 3, not a list"),
        (lambda h: h.pop("lg_stages"), "header has no lg_stages"),
        (lambda h: h["manifest"].__setitem__(0, 1), "manifest entry 1"),
        (lambda h: h["manifest"][0].pop("shape"), "manifest entry .* shape"),
        (lambda h: h["manifest"][0].update(shape=[-1]), "manifest entry .* shape"),
        (lambda h: h["manifest"][0].update(dtype="zz"), "manifest entry .* dtype"),
        (lambda h: h["manifest"][0].update(name=["stem.dw3"]), "manifest entry .* name"),
        (lambda h: h.update(epoch="x"), "epoch is 'x', not an int"),
        (lambda h: h.update(epoch=None), "epoch is None, not an int"),
        (lambda h: h.update(epoch=[1]), "epoch is \\[1\\], not an int"),
        (lambda h: h.update(epoch=True), "epoch is True, not an int"),
        (lambda h: h.update(epoch=2.0), "epoch is 2.0, not an int"),
    ], ids=["no_config", "no_manifest", "unknown_config_key",
            "stage_str", "stage_out_of_range", "stage_bool", "flag_str",
            "config_list", "manifest_dict", "lg_stages_list", "flags_int", "no_lg_stages",
            "entry_int", "entry_no_shape", "entry_negative_shape", "entry_dtype_zz",
            "entry_name_list", "epoch_str", "epoch_null", "epoch_list", "epoch_bool",
            "epoch_float"])
    def test_malformed_header(self, ckpt, edit, field):
        _edit_checkpoint(ckpt, edit)
        with pytest.raises(ValueError, match=field):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("line", [b"{nope", b'{"format": "condenseg-net",', b"\xff\xff"],
                             ids=["bare_word", "cut_short", "not_utf8"])
    def test_header_not_json(self, ckpt, line):
        data = ckpt.read_bytes()
        ckpt.write_bytes(line + data[data.index(b"\n"):])
        with pytest.raises(ValueError, match="checkpoint .*net.ckpt: header is not valid JSON"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("line", [b"[]", b"1", b"null", b'"x"'])
    def test_header_not_object(self, ckpt, line):
        data = ckpt.read_bytes()
        ckpt.write_bytes(line + data[data.index(b"\n"):])
        with pytest.raises(ValueError, match="header is not a JSON object"):
            load_checkpoint(ckpt)

    @pytest.mark.parametrize("key, value", [
        ("groups", "4"), ("input_size", None), ("growth_rate", 16.0),
        ("pool_layers", True), ("layers_per_block", 3), ("layers_per_block", [1, 1, "2", 1, 1]),
    ], ids=["str", "null", "float", "bool", "blocks_int", "blocks_str_entry"])
    def test_config_value_of_wrong_type(self, ckpt, key, value):
        _edit_checkpoint(ckpt, lambda h: h["config"].update({key: value}))
        with pytest.raises(ConfigError, match=": %s is " % key):
            load_checkpoint(ckpt)

    def test_mixed_dtype(self, tmp_path):
        p = tmp_path / "f32.ckpt"
        save_checkpoint(build(small_config(), rng=np.random.default_rng(0),
                              dtype=np.float32), p)
        _edit_checkpoint(p, lambda h: None, retype="enc1.layer0.bn.gamma")
        with pytest.raises(ValueError, match="enc1.layer0.bn.gamma has dtype <f8"):
            load_checkpoint(p)


LG = "enc1.layer0.lg"


def _flip_one_row(lg):
    lg.mask[0, 0] = 1 - lg.mask[0, 0]


def _drop_group_channel(lg):
    group = lg.grouped()[1][0]
    group[:, np.flatnonzero(group[0])[0]] = 0


def _non_binary_group(lg):
    # the group's alive count stays right: one channel doubled, one dropped
    group = lg.grouped()[1][0]
    first, second = np.flatnonzero(group[0])[:2]
    group[:, first], group[:, second] = 2, 0


def _revive_pruned_weight(lg):
    out_channel, in_channel = np.argwhere(lg.mask == 0)[0]
    lg.kernel.data[out_channel, in_channel, 1, 1] = 5.0


class TestCondensationState:
    @pytest.mark.parametrize("mask_edit, header_edit, field", [
        (None, lambda h: h["lg_stages"].update({LG: 0}),
         LG + " mask is not 0/1 keeping 24 channels per group at stage 0"),
        (_flip_one_row, None, LG + " mask rows differ"),
        (_drop_group_channel, None, LG + " mask is not 0/1 keeping 6 channels"),
        (_non_binary_group, None, LG + " mask is not 0/1 keeping 6 channels"),
        (_revive_pruned_weight, None, LG + " kernel has nonzero weights where its mask is 0"),
    ], ids=["stage_edited_to_0", "group_rows_differ",
            "group_alive_count", "group_mask_not_binary", "pruned_weight_nonzero"])
    def test_inconsistent_state_rejected(self, tmp_path, mask_edit, header_edit, field):
        net = small_net()
        apply_condensation(net, 3)  # fully condensed
        if mask_edit is not None:
            mask_edit(next(lg for lg in net.lg_layers() if lg.name == LG))
        p = tmp_path / "c.ckpt"
        save_checkpoint(net, p)
        if header_edit is not None:
            _edit_checkpoint(p, header_edit)
        with pytest.raises(ValueError, match=field):
            load_checkpoint(p)


    def test_negative_zero_pruned_weights_load(self, tmp_path):
        net = small_net()
        apply_condensation(net, 3)
        for lg in net.lg_layers():
            lg.kernel.data[lg.mask == 0] = -0.0
        p = tmp_path / "z.ckpt"
        save_checkpoint(net, p)
        loaded, _ = load_checkpoint(p)
        assert [lg.stage for lg in loaded.lg_layers()] == [3] * len(net.lg_layers())


# fixed example sets: the suite gives the same verdict on every run
FUZZ = dict(max_examples=100, deadline=None, derandomize=True, database=None)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8)


@functools.lru_cache(maxsize=None)
def _condensed_checkpoint():
    """(header line, buffers) of a fully condensed small checkpoint, made once."""
    net = small_net()
    apply_condensation(net, 3)
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "c.ckpt")
        save_checkpoint(net, p)
        with open(p, "rb") as f:
            return tuple(f.read().split(b"\n", 1))


def _load_with_header(header, blob):
    """load_checkpoint on `header` as the JSON header line before `blob`;
    a ValueError is the documented rejection, anything else escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "f.ckpt")
        with open(p, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n" + blob)
        try:
            load_checkpoint(p)
        except ValueError:
            pass


class TestHeaderFuzz:
    @settings(**FUZZ)
    @given(json_values)
    def test_any_json_header(self, value):
        _load_with_header(value, _condensed_checkpoint()[1])

    @settings(**FUZZ)
    @given(st.data())
    def test_one_field_replaced(self, data):
        head, blob = _condensed_checkpoint()
        header = json.loads(head)
        header[data.draw(st.sampled_from(sorted(header)))] = data.draw(json_values)
        _load_with_header(header, blob)


class TestCheckpointRoundTrip:
    @settings(**dict(FUZZ, max_examples=25))
    @given(st.data())
    def test_state_stages_flags_and_eval_bytes(self, data):
        outer, inner = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
        groups = data.draw(st.sampled_from([1, 2, 4]))
        config = NetConfig(input_size=16, growth_rate=groups * data.draw(st.integers(1, 2)),
                           groups=groups, condensation_factor=data.draw(st.integers(1, 4)),
                           layers_per_block=(outer, inner, outer), initial_features=8,
                           pool_layers=1)
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        net = build(config, rng=np.random.default_rng(data.draw(st.integers(0, 99))), dtype=dtype)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 1, 16, 16)).astype(dtype))
        warm = data.draw(st.booleans())
        if warm:
            net.forward(x, training=True)  # running stats and their flags
        for lg in net.lg_layers():
            for _ in range(data.draw(st.integers(0, config.condensation_factor - 1))):
                condense(lg)
        with tempfile.TemporaryDirectory() as tmp:
            p = os.path.join(tmp, "r.ckpt")
            save_checkpoint(net, p)
            back, _ = load_checkpoint(p)
        assert [(n, a.dtype, a.tobytes()) for n, a in back.state_entries()] == \
               [(n, a.dtype, a.tobytes()) for n, a in net.state_entries()]
        assert [lg.stage for lg in back.lg_layers()] == [lg.stage for lg in net.lg_layers()]
        assert [bn.stats.initialized for bn in back.bn_modules()] == [warm] * len(net.bn_modules())
        if warm:
            assert back.forward(x).data.tobytes() == net.forward(x).data.tobytes()


class TestGradients:
    def test_spot_check_params(self):
        # full-coverage finite-difference sweep lives in the acceptance suite
        net = small_net(seed=11)
        x = Tensor(np.random.default_rng(12).normal(size=(1, 1, 32, 32)))
        w = np.random.default_rng(13).normal(size=(1, 4, 32, 32))

        def f(_):
            out = net.forward(x, training=True)
            return (out * Tensor(w)).sum()

        rng = np.random.default_rng(14)
        targets = [net.encoders[0].layers[0].lg.kernel,
                   net.bottleneck.layers[1].bn.gamma,
                   net.up_blocks[0].up,
                   net.head.kernel]
        for p in targets:
            assert grad_check(f, p, rng=rng) < GRAD_TOL


def _concat(tensors):
    """Reference channel concat: a fresh copy forward, and a backward that
    hands each input a copy of its slice of the gradient."""
    out = T._result(np.concatenate([t.data for t in tensors], axis=1), tuple(tensors))
    if out.requires_grad:

        def backward(g):
            ofs = 0
            for t in tensors:
                if t.requires_grad:
                    t._accumulate(g[:, ofs:ofs + t.shape[1]])
                ofs += t.shape[1]

        out._backward = backward
    return out


def _concat_block_forward(block, x, training):
    """The block as a chain of concatenations: every layer's input a fresh copy."""
    for layer in block.layers:
        x = _concat([x, layer.forward(x, training)])
    return x


def _concat_stem_forward(stem, x, training):
    """The stem with its two branches joined by a fresh concatenation."""
    return _concat([conv2d(conv2d(x, stem.dw3, padding=1), stem.pw3),
                    conv2d(conv2d(x, stem.dw5, padding=2), stem.pw5)])


def _stem_run(forward, dtype, b, training):
    """Output and gradient bytes of one seeded 8-channel stem; an eval
    forward runs without a graph, as the network runs it."""
    stem = Stem(8, 16, dtype)
    rng = np.random.default_rng(b)
    for k in stem.parts:
        T.he_normal(k, rng)
    x = Tensor(rng.normal(0.3, 1.5, (b, 1, 16, 16)).astype(dtype), requires_grad=True, name="x")
    with contextlib.nullcontext() if training else T.no_graph():
        out = forward(stem, x, training)
    if training:
        (out * Tensor(rng.standard_normal(out.shape).astype(dtype))).sum().backward()
    run = {"output": (out.data.dtype, out.data.shape, out.data.tobytes())}
    for t in (x,) + stem.parts:
        run[t.name] = None if t.grad is None else t.grad.tobytes()
    return run


def _seeded_block(dtype, training, condensed, rng):
    """A 3-layer block over 12 channels at 8x8, drawn from `rng`; its BNs hold
    running stats unless `training`."""
    cfg = NetConfig(growth_rate=8, groups=2, condensation_factor=4)
    block = CondenseBlock(12, 3, 8, cfg, dtype, "blk")
    for layer in block.layers:
        T.he_normal(layer.lg.kernel, rng)
        layer.bn.gamma.data[...] = rng.uniform(0.5, 1.5, layer.bn.gamma.shape)
        layer.bn.beta.data[...] = rng.normal(size=layer.bn.beta.shape)
        if not training:
            c = layer.bn.gamma.shape[0]
            layer.bn.stats.update(rng.normal(size=c), rng.uniform(0.5, 2.0, c))
        while condensed and layer.lg.stage < cfg.condensation_factor - 1:
            condense(layer.lg)
    return block


def _block_run(forward, dtype, b, training, condensed, transition=False):
    """Output, gradient and running-stat bytes of one seeded 3-layer block,
    and of the Transition that reads it when `transition`."""
    rng = np.random.default_rng(b)
    block = _seeded_block(dtype, training, condensed, rng)
    x = Tensor(rng.normal(0.3, 1.5, (b, 12, 8, 8)).astype(dtype), requires_grad=True, name="x")
    out = forward(block, x, training)
    params = [p for layer in block.layers for p in (layer.lg.kernel, layer.bn.gamma,
                                                    layer.bn.beta)]
    bns = [layer.bn for layer in block.layers]
    if transition:
        tr = Transition(block.out_channels, 8, dtype, "tr")
        T.he_normal(tr.kernel, rng)
        tr.bn.gamma.data[...] = rng.uniform(0.5, 1.5, tr.bn.gamma.shape)
        out = tr.forward(out, training)
        params += [tr.kernel, tr.bn.gamma, tr.bn.beta]
        bns.append(tr.bn)
    (out * Tensor(rng.standard_normal(out.shape).astype(dtype))).sum().backward()
    run = {"output": (out.data.dtype, out.data.tobytes())}
    for t in [x] + params:
        run[t.name] = None if t.grad is None else t.grad.tobytes()
    for bn in bns:
        run[bn.gamma.name + ".stats"] = bn.stats.mean.tobytes() + bn.stats.var.tobytes()
    return run


class TestBlockBuffer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("condensed", [False, True])
    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
    def test_bytes_of_a_concat_chain(self, monkeypatch, dtype, training, condensed, b):
        # one lane, then three: the buffer keeps the bytes the chain of
        # copies gives, output, gradients and running stats
        want = _block_run(_concat_block_forward, dtype, b, training, condensed)
        # the input and every kernel get gradients in both modes
        assert all(want[k] is not None for k in want if k == "x" or k.endswith(".kernel"))
        for count in (1, 3):
            monkeypatch.setattr(T, "_inference_threads", lambda: count)
            with T._lanes():
                got = _block_run(CondenseBlock.forward, dtype, b, training, condensed)
            assert got == want, count

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("b", [1, 4])
    def test_stem_bytes_of_a_concat(self, monkeypatch, dtype, training, b):
        # the stem's one buffer keeps the bytes of a fresh concatenation of
        # its branches: output, x's gradient and its four kernels' gradients
        want = _stem_run(_concat_stem_forward, dtype, b, training)
        assert all((v is not None) == training for k, v in want.items() if k != "output")
        for count in (1, 3):
            monkeypatch.setattr(T, "_inference_threads", lambda: count)
            with T._lanes():
                got = _stem_run(Stem.forward, dtype, b, training)
            assert got == want, count

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("condensed", [False, True])
    @pytest.mark.parametrize("b", [1, 3, 4])
    def test_shared_normalisation_bytes(self, monkeypatch, dtype, condensed, b):
        # the block's BNs and the Transition's share one normalisation of
        # the buffer, each normalising only the channels new to it; the
        # reference's BNs each normalise their own fresh input whole
        want = _block_run(_concat_block_forward, dtype, b, True, condensed, transition=True)
        assert all(v is not None for v in want.values())
        for count in (1, 3):
            monkeypatch.setattr(T, "_inference_threads", lambda: count)
            with T._lanes():
                got = _block_run(CondenseBlock.forward, dtype, b, True, condensed,
                                 transition=True)
            assert got == want, count

    def test_each_layer_output_held_once(self):
        # a training forward keeps each layer's output only in the buffer,
        # while x, a leaf that requires grad, keeps its own array
        rng = np.random.default_rng(0)
        block = _seeded_block(np.float64, True, False, rng)
        x = Tensor(rng.normal(size=(2, 12, 8, 8)), requires_grad=True)
        node = out = block.forward(x, True)
        outputs = []
        while len(node._parents) == 2:
            node, new = node._parents
            outputs.append(new)
        assert len(outputs) == 3 and node._parents == (x,)
        assert all(np.shares_memory(t.data, out.data) for t in outputs)
        assert not np.shares_memory(x.data, out.data)

    def test_eval_block_input_released(self):
        # an eval forward leaves the block's input holding the buffer's copy,
        # so the caller's reference keeps no array of its own
        rng = np.random.default_rng(1)
        block = _seeded_block(np.float64, False, False, rng)
        x = Tensor(rng.normal(size=(2, 12, 8, 8)))
        want = x.data.copy()
        with T.no_graph():
            out = block.forward(x, False)
        assert np.shares_memory(x.data, out.data)
        assert np.array_equal(out.data[:, :12], want) and np.array_equal(x.data, want)

    def test_training_forward_memory(self):
        # what a training forward of the default net at 64x64, batch 4,
        # float32 leaves for its backward: one buffer per block, one
        # normalised copy per block channel and each BN's own output
        net = build(NetConfig(input_size=64), rng=np.random.default_rng(2), dtype=np.float32)
        x = Tensor(np.random.default_rng(3).standard_normal((4, 1, 64, 64)).astype(np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = net.forward(x, training=True)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (4, 4, 64, 64)
        assert held < 80 * 2 ** 20, held / 2 ** 20

    def test_grow_channels_checks_the_buffer(self):
        buf = np.zeros((2, 5, 4, 4))
        prefix = T.grow_channels(buf, Tensor(np.ones((2, 3, 4, 4))))
        with pytest.raises(ShapeError):
            T.grow_channels(buf, Tensor(np.ones((2, 3, 4, 4))), prefix)  # 6 > 5 channels
        with pytest.raises(ShapeError):
            T.grow_channels(buf, Tensor(np.ones((1, 2, 4, 4))), prefix)  # batch 1 of 2
        out = T.grow_channels(buf, Tensor(np.full((2, 2, 4, 4), 2.0)), prefix)
        assert np.shares_memory(out.data, buf) and out.shape == (2, 5, 4, 4)
        assert np.array_equal(out.data[:, 3:], np.full((2, 2, 4, 4), 2.0))
