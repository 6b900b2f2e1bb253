"""Training loop behavior, evaluation pipeline, and report files."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import types
import weakref

import numpy as np
import pytest

from condenseg import tensor as tensor_mod
from condenseg import train as train_mod
from condenseg.net import ConfigError, NetConfig, build, save_checkpoint
from condenseg.phantom import PhantomSpec, build_cohort, generate_phantom
from condenseg.roi import center_box
from condenseg.tensor import NumericsError, Tensor
from condenseg.train import (
    TrainConfig,
    emit_report_csv,
    evaluate,
    predict_masks,
    train,
)
from condenseg.volume import LV, RV, CineVolume, LabelMask


def tiny_cohort(n=6, seed0=100):
    spec = PhantomSpec(image_size=64, frames=4, slices=3,
                       endo_radius_px=(7.0, 8.5), wall_px=(2.5, 3.0),
                       contraction=(0.3, 0.4), center_jitter_px=2)
    return [generate_phantom(spec, seed0 + i, name="s%02d" % i) for i in range(n)]


def tiny_net(**kw):
    base = dict(input_size=32, layers_per_block=(1, 1, 2, 1, 1), pool_layers=2,
                condensation_factor=1)
    base.update(kw)
    return NetConfig(**base)


def tiny_config(**kw):
    base = dict(epochs=2, batch_size=2, batches_per_epoch=2, seed=3, net=tiny_net())
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        for config, field in ((cfg, "epochs"), (cfg.loss, "alpha")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, field, 0)  # checked once, when built, so it cannot change

    def test_bad_values_listed(self):
        with pytest.raises(ConfigError) as err:
            TrainConfig(epochs=0, learning_rate=-1.0)
        assert "epochs" in str(err.value) and "learning_rate" in str(err.value)

    def test_fraction_overflow(self):
        with pytest.raises(ConfigError):
            TrainConfig(train_fraction=0.9, val_fraction=0.2)

    def test_dict_roundtrip(self):
        cfg = tiny_config(learning_rate=5e-4, group_lasso_coefficient=2e-5)
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_json_file(self, tmp_path):
        cfg = tiny_config(epochs=7)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert TrainConfig.from_json(path) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            TrainConfig.from_dict({"epochs": 3, "momentum": 0.9})

    @pytest.mark.parametrize("obj, key", [
        ({"net": {"input_size": 32, "dropout": 0.1}}, "net config has unknown fields: dropout"),
        ({"loss": {"gamma": 2.0}}, "loss config has unknown fields: gamma"),
        ({"net": [32]}, "net config must be an object"),
    ], ids=["net", "loss", "net_not_object"])
    def test_unknown_nested_field_rejected(self, obj, key):
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_dict(obj)

    @pytest.mark.parametrize("obj, key", [
        ({"epochs": "5"}, "epochs"), ({"epochs": True}, "epochs"),
        ({"seed": 1.5}, "seed"), ({"learning_rate": None}, "learning_rate"),
        ({"learning_rate": False}, "learning_rate"), ({"loss": {"alpha": "0.5"}}, "alpha"),
        ({"net": {"groups": "4"}}, "groups"), ({"net": {"layers_per_block": 3}}, "layers_per_block"),
        ({"net": {"layers_per_block": [1, 1.0, 1]}}, "layers_per_block"),
    ], ids=["epochs_str", "epochs_bool", "seed_float", "lr_null", "lr_bool", "alpha_str",
            "groups_str", "blocks_int", "blocks_float_entry"])
    def test_wrongly_typed_value_rejected(self, obj, key):
        with pytest.raises(ConfigError, match=": %s is " % key):
            TrainConfig.from_dict(obj)

    @pytest.mark.parametrize("obj, key", [
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"group_lasso_coefficient": float("inf")}, "group_lasso_coefficient"),
        ({"group_lasso_coefficient": float("nan")}, "group_lasso_coefficient"),
    ], ids=["lr_nan", "lr_inf", "lasso_inf", "lasso_nan"])
    def test_non_finite_value_rejected(self, obj, key):
        with pytest.raises(ConfigError, match=key + " must be finite"):
            TrainConfig.from_dict(obj)

    @pytest.mark.parametrize("loss, key", [
        ({"alpha": 2}, "alpha"), ({"alpha": float("nan")}, "alpha"),
        ({"epsilon": 0}, "epsilon"), ({"epsilon": float("nan")}, "epsilon"),
        ({"epsilon": float("inf")}, "epsilon"),
    ], ids=["alpha_2", "alpha_nan", "epsilon_0", "epsilon_nan", "epsilon_inf"])
    def test_bad_loss_value_is_config_error(self, loss, key):
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_dict({"loss": loss})

    @pytest.mark.parametrize("obj", [[], [["epochs", 3]], [1], None, "x", 5],
                             ids=["empty_list", "pairs", "int_list", "null", "str", "int"])
    def test_not_an_object_rejected(self, obj):
        with pytest.raises(ConfigError, match="config must be an object"):
            TrainConfig.from_dict(obj)

    @pytest.mark.parametrize("obj, key", [
        ({"epochs": 2}, "epochs"), ({"seed": -1}, "seed"),
        ({"loss": {"scale": -1}}, "scale"), ({"loss": {"scale": float("nan")}}, "scale"),
        ({"loss": {"scale": float("inf")}}, "scale"),
        ({"loss": {"edge_scale": -0.5}}, "edge_scale"),
        ({"loss": {"edge_scale": float("nan")}}, "edge_scale"),
        ({"loss": {"edge_scale": float("-inf")}}, "edge_scale"),
    ], ids=["epochs_too_few_for_schedule", "seed_negative", "scale_negative", "scale_nan",
            "scale_inf", "edge_scale_negative", "edge_scale_nan", "edge_scale_minus_inf"])
    def test_value_that_fails_later_rejected_up_front(self, obj, key):
        with pytest.raises(ConfigError, match=key):
            TrainConfig.from_dict(obj)

    def test_zero_scales_accepted(self):
        cfg = TrainConfig.from_dict({"seed": 0, "loss": {"scale": 0, "edge_scale": 0.0}})
        assert cfg.loss.scale == 0 and cfg.loss.edge_scale == 0

    def test_invalid_json_file_names_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"epochs": 3,')
        with pytest.raises(ConfigError, match="cfg.json is not valid JSON"):
            TrainConfig.from_json(path)

    def test_int_accepted_for_float_field(self):
        cfg = TrainConfig.from_dict({"learning_rate": 1, "loss": {"alpha": 1}})
        assert cfg.learning_rate == 1 and cfg.loss.alpha == 1

    def test_nested_fields_default(self):
        cfg = TrainConfig.from_dict({"net": {"input_size": 32}})
        assert cfg.net == NetConfig(input_size=32)


class TestTrainLoop:
    def test_zero_lr_leaves_weights(self):
        subs = tiny_cohort(4)
        cfg = tiny_config(epochs=1, learning_rate=0.0)
        net, _ = train(subs[:3], cfg, val_subjects=subs[3:])
        fresh, _ = train(subs[:3], tiny_config(epochs=1, learning_rate=1e-3),
                         val_subjects=subs[3:])
        # same seed: both nets start identical; only the lr=0 one must stay put
        from condenseg.net import build
        ref = build(cfg.net, rng=np.random.default_rng(cfg.seed), dtype=np.float32)
        for p, q in zip(net.parameters(), ref.parameters()):
            assert np.array_equal(p.data, q.data), p.name
        changed = any(not np.array_equal(p.data, q.data)
                      for p, q in zip(fresh.parameters(), ref.parameters()))
        assert changed

    def test_zero_lr_condensation_still_masks(self):
        subs = tiny_cohort(4)
        cfg = tiny_config(epochs=4, learning_rate=0.0,
                          net=tiny_net(condensation_factor=2))
        net, hist = train(subs[:3], cfg, val_subjects=subs[3:])
        lg = net.lg_layers()[0]
        assert lg.stage == 1
        assert (lg.mask == 0).any()
        assert np.all(lg.kernel.data[lg.mask == 0] == 0)
        assert hist["condensation"]

    def test_history_lengths(self):
        subs = tiny_cohort(5)
        cfg = tiny_config(epochs=3)
        _, hist = train(subs[:4], cfg, val_subjects=subs[4:])
        assert len(hist["loss"]) == 3
        assert len(hist["val_dice"]) == 3
        assert len(hist["alive_params"]) == 3
        assert all(np.isfinite(v) for v in hist["loss"])

    def test_alive_counts_non_increasing(self):
        subs = tiny_cohort(4)
        cfg = tiny_config(epochs=4, net=tiny_net(condensation_factor=2))
        _, hist = train(subs[:3], cfg, val_subjects=subs[3:])
        alive = hist["alive_params"]
        assert all(a >= b for a, b in zip(alive, alive[1:]))
        assert alive[-1] < alive[0]

    def test_lasso_only_while_stages_remain(self, monkeypatch):
        # C = 4 over 6 epochs: the stages start at epochs 1, 2 and 3, the
        # last one fully condensing, so the lasso acts in epochs 0-2 only
        lassos = []

        def recorded(net, params, adam, images, labels, loss_cfg, lasso):
            lassos.append(lasso)
            return 0.0

        monkeypatch.setattr(train_mod, "_step", recorded)
        cfg = tiny_config(epochs=6, batches_per_epoch=1, group_lasso_coefficient=3e-5,
                          net=tiny_net(condensation_factor=4))
        train(tiny_cohort(2), cfg, val_subjects=[])  # no step ran, so no validation
        assert lassos == [3e-5] * 3 + [0.0] * 3

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_step_graph_dead_before_next_forward(self, monkeypatch, lanes):
        # Tensor has no __weakref__ slot, so watch the training output's array:
        # the softmax closure and the loss graph hold it while the graph lives
        from condenseg.net import Network
        monkeypatch.setattr(tensor_mod, "_inference_threads", lambda: lanes)
        real_forward = Network.forward
        last, seen = [None], []

        def watched(net, x, training=False):
            seen.append((training, last[0] is not None and last[0]() is not None))
            out = real_forward(net, x, training=training)
            if training:
                last[0] = weakref.ref(out.data)
            return out

        monkeypatch.setattr(Network, "forward", watched)
        subs = tiny_cohort(4)
        train(subs[:3], tiny_config(epochs=2, batches_per_epoch=3), val_subjects=subs[3:])
        # 3 steps then a validation forward per lane (two central slices), per epoch
        assert [t for t, _ in seen] == ([True] * 3 + [False] * lanes) * 2
        assert not any(alive for _, alive in seen)

    def test_nan_abort_names_position(self):
        subs = tiny_cohort(3)
        subs[0].cine.data[:] = np.nan
        cfg = tiny_config(epochs=1)
        with pytest.raises(NumericsError, match="epoch 0"):
            train(subs[:2], cfg, val_subjects=subs[2:])

    def test_non_finite_gradient_names_position(self, monkeypatch):
        import condenseg.train as train_module
        real_step = train_module.adam_step

        def poisoned_step(params, state):
            params[-1].grad[...] = np.nan
            real_step(params, state)

        monkeypatch.setattr(train_module, "adam_step", poisoned_step)
        subs = tiny_cohort(3)
        with pytest.raises(NumericsError, match="epoch 0, batch 0: .*head.kernel"):
            train(subs[:2], tiny_config(epochs=1), val_subjects=subs[2:])

    def test_non_finite_loss_names_position(self, monkeypatch):
        # a NaN loss that no op rejected: _step raises, train names the step
        real_loss, calls = train_mod.total_loss, []

        def poisoned_loss(pred, mask, cfg):
            calls.append(None)
            loss = real_loss(pred, mask, cfg)
            return loss * float("nan") if len(calls) == 4 else loss

        monkeypatch.setattr(train_mod, "total_loss", poisoned_loss)
        subs = tiny_cohort(3)
        with pytest.raises(NumericsError, match="epoch 1, batch 1: non-finite loss nan"):
            train(subs[:2], tiny_config(epochs=2), val_subjects=subs[2:])

    def test_empty_val_subjects_skip_validation(self, monkeypatch):
        def no_forward(net, images):
            raise AssertionError("validation forward ran")

        monkeypatch.setattr(train_mod, "_forward_batches", no_forward)
        _, hist = train(tiny_cohort(2), tiny_config(epochs=2), val_subjects=[])
        assert len(hist["val_dice"]) == 2 and all(np.isnan(v) for v in hist["val_dice"])

    def test_split_leaving_no_training_subject(self):
        # one subject: round(0.4 * 1) leaves the training set empty
        with pytest.raises(ValueError, match="left the training set empty"):
            train(tiny_cohort(1), tiny_config(train_fraction=0.4, val_fraction=0.5))

    def test_internal_split_used_when_no_val(self):
        subs = tiny_cohort(6)
        cfg = tiny_config(epochs=1, train_fraction=0.5, val_fraction=0.5)
        _, hist = train(subs, cfg)
        assert np.isfinite(hist["val_dice"][0])

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            train([], tiny_config())


class TestInferenceThreads:
    @pytest.mark.parametrize("env, threads", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 4), ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1), ({"OPENBLAS_NUM_THREADS": "junk"}, 1),
        ({"OPENBLAS_NUM_THREADS": "9"}, 1), ({"OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "junk", "GOTO_NUM_THREADS": "2"}, 2),
    ], ids=["unset", "1", "2", "0", "junk", "above_cpus", "omp_1", "junk_then_goto_2"])
    def test_cpus_over_blas_threads(self, monkeypatch, env, threads):
        # on 4 usable CPUs, whatever this machine has
        monkeypatch.setattr(tensor_mod, "_usable_cpus", lambda: 4)
        for var in tensor_mod.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert tensor_mod._inference_threads() == threads

    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_split_matches_one_forward(self, monkeypatch, n):
        # three threads in this process, switching as often as the interpreter
        # allows: bytes and order as one batch-n forward, no thread left over
        monkeypatch.setattr(tensor_mod, "_inference_threads", lambda: 3)
        net = build(tiny_net(), rng=np.random.default_rng(1), dtype=np.float32)
        net.forward(Tensor(np.ones((2, 1, 32, 32), dtype=np.float32)), training=True)
        images = np.random.default_rng(n).normal(size=(n, 1, 32, 32)).astype(np.float32)
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            probs = train_mod._forward_batches(net, images)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert probs.tobytes() == net.forward(Tensor(images)).data.tobytes()

    @pytest.mark.parametrize("shape", [(0, 1, 32, 32), (0, 1, 64, 64)], ids=["32", "64"])
    def test_no_slices_rejected(self, shape):
        net = build(tiny_net(), rng=np.random.default_rng(1), dtype=np.float32)
        with pytest.raises(ValueError, match="no slices"):
            train_mod._forward_batches(net, np.zeros(shape, np.float32))

    @pytest.mark.skipif(tensor_mod._usable_cpus() < 2,
                        reason="one CPU: inference runs on the calling thread only")
    def test_parallel_bytes_equal_one_slice_forwards(self):
        # at one BLAS thread every usable CPU runs a share of the slices
        env = {k: v for k, v in os.environ.items() if k not in tensor_mod.BLAS_THREAD_VARS}
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(p for p in [
            os.path.dirname(os.path.dirname(train_mod.__file__)),
            env.get("PYTHONPATH")] if p)
        done = subprocess.run([sys.executable, "-c", PARALLEL_CHECK], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["threads", str(tensor_mod._usable_cpus()), "same"]


PARALLEL_CHECK = """
import threading
import numpy as np
from condenseg.net import NetConfig, build
from condenseg.tensor import Tensor, _inference_threads
from condenseg import train as t

net = build(NetConfig(input_size=32, layers_per_block=(1, 1, 2, 1, 1), pool_layers=2),
            rng=np.random.default_rng(1), dtype=np.float32)
net.forward(Tensor(np.random.default_rng(2).normal(size=(4, 1, 32, 32))
                   .astype(np.float32)), training=True)
images = np.random.default_rng(3).normal(size=(20, 1, 32, 32)).astype(np.float32)
print("threads", _inference_threads())
probs = t._forward_batches(net, images)
assert threading.active_count() == 1, "a pool thread outlived the call"
one = [net.forward(Tensor(images[i:i + 1]), training=False).data for i in range(20)]
print("same" if probs.tobytes() == np.concatenate(one).tobytes() else "differ")
"""


class TestTrainingLanes:
    def test_bytes_and_history_do_not_depend_on_lanes(self, monkeypatch, tmp_path):
        # one lane, then three with the interpreter switching threads as
        # often as it allows: same checkpoint, same history
        subs = tiny_cohort(5)
        cfg = tiny_config(epochs=4, batch_size=3, net=tiny_net(condensation_factor=2))
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        runs = []
        try:
            for lanes in (1, 3):
                monkeypatch.setattr(tensor_mod, "_inference_threads", lambda: lanes)
                net, history = train(subs[:4], cfg, val_subjects=subs[4:])
                path = tmp_path / ("%d.ckpt" % lanes)
                save_checkpoint(net, path)
                runs.append((path.read_bytes(), history))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("central", [False, True], ids=["training", "validation"])
    @pytest.mark.parametrize("n", [2, 5])
    def test_slices_do_not_depend_on_lanes(self, monkeypatch, n, central):
        # the crop of every subject, one after another on this thread
        subs = tiny_cohort(n)
        images, labels = [], []
        for sub in subs:
            box = train_mod.cine_box(sub.cine, 32)
            z = slice(1, 2) if central else slice(None)
            for frame, mask in ((sub.ed_frame, sub.ed_mask), (sub.es_frame, sub.es_mask)):
                images.append(train_mod._frame_slices(sub.cine, frame, box, z))
                labels.append(train_mod.crop_mask(mask, box).data[z])
        want = [np.concatenate(images), np.concatenate(labels)]
        before = threading.active_count()
        for lanes in (1, 3):
            monkeypatch.setattr(tensor_mod, "_inference_threads", lambda: lanes)
            with tensor_mod._lanes():
                got = train_mod._training_slices(subs, 32, central=central)
            assert threading.active_count() == before
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
                [(a.dtype, a.shape, a.tobytes()) for a in want]

    def test_train_crops_on_its_lanes(self, monkeypatch):
        # both crops run inside train's lanes and give train the same bytes
        real = train_mod._training_slices
        seen = []

        def watched(subjects, size, central=False):
            out = real(subjects, size, central=central)
            seen.append((tensor_mod._local.pool.count, central,
                         [a.tobytes() for a in out]))
            return out

        monkeypatch.setattr(train_mod, "_training_slices", watched)
        subs = tiny_cohort(5)
        before = threading.active_count()
        for lanes in (1, 3):
            monkeypatch.setattr(tensor_mod, "_inference_threads", lambda: lanes)
            train(subs[:4], tiny_config(epochs=2, batches_per_epoch=1), val_subjects=subs[4:])
            assert threading.active_count() == before
        assert [(count, central) for count, central, _ in seen] == \
            [(1, False), (1, True), (3, False), (3, True)]
        assert seen[0][2] == seen[2][2] and seen[1][2] == seen[3][2]

    @pytest.mark.skipif(tensor_mod._usable_cpus() < 2,
                        reason="one CPU: training runs on the calling thread only")
    def test_parallel_training_bytes_equal_one_lane(self):
        # at one BLAS thread every usable CPU is a lane
        env = {k: v for k, v in os.environ.items() if k not in tensor_mod.BLAS_THREAD_VARS}
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(p for p in [
            os.path.dirname(os.path.dirname(train_mod.__file__)),
            env.get("PYTHONPATH")] if p)
        done = subprocess.run([sys.executable, "-c", TRAIN_LANES_CHECK], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["lanes", str(tensor_mod._usable_cpus()), "same"]


TRAIN_LANES_CHECK = """
import os, tempfile, threading
from condenseg.net import NetConfig, save_checkpoint
from condenseg.phantom import PhantomSpec, generate_phantom
from condenseg import tensor, train as t

spec = PhantomSpec(image_size=64, frames=4, slices=3, endo_radius_px=(7.0, 8.5),
                   wall_px=(2.5, 3.0), contraction=(0.3, 0.4), center_jitter_px=2)
subs = [generate_phantom(spec, 100 + i, name="s%02d" % i) for i in range(5)]
cfg = t.TrainConfig(epochs=4, batch_size=3, batches_per_epoch=2, seed=3,
                    net=NetConfig(input_size=32, layers_per_block=(1, 1, 2, 1, 1),
                                  pool_layers=2, condensation_factor=2))
print("lanes", tensor._inference_threads())
runs = []
with tempfile.TemporaryDirectory() as tmp:
    for rule in (tensor._inference_threads, lambda: 1):
        tensor._inference_threads = rule
        net, history = t.train(subs[:4], cfg, val_subjects=subs[4:])
        assert threading.active_count() == 1, "a lane outlived train()"
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(net, path)
        with open(path, "rb") as f:
            runs.append((f.read(), history))
print("same" if runs[0] == runs[1] else "differ")
"""


class TestCineBox:
    def test_one_frame_cine_gets_the_centre_box(self):
        cine = CineVolume(build_cohort(1, seed=1)[0].cine.data[:1])
        assert train_mod.cine_box(cine, 64) == center_box(cine.data.shape[2:], size=64)


class TestEvaluate:
    def test_ground_truth_against_itself(self):
        subs = tiny_cohort(4)
        res = evaluate(None, subs)
        assert all(abs(v - 1.0) < 1e-12 for v in res.mean_dice.values())
        for param, value in res.rho.items():
            assert abs(value - 1.0) < 1e-12, param
        assert all(v == 0.0 for v in res.mean_abs_error.values())

    def test_ground_truth_reports_are_separate_dicts(self):
        sub = evaluate(None, tiny_cohort(1)).subjects[0]
        assert sub.predicted == sub.reference and sub.predicted is not sub.reference
        kept = dict(sub.reference)
        sub.predicted["ef_percent"] = -1.0
        assert sub.reference == kept

    def test_untrained_net_does_not_crash(self):
        subs = tiny_cohort(3)
        cfg = tiny_config(epochs=1, learning_rate=0.0)
        net, _ = train(subs[:2], cfg, val_subjects=subs[2:])
        res = evaluate(net, subs)
        assert len(res.subjects) == 3
        for r in res.subjects:
            assert set(r.predicted) == set(r.reference)

    def test_predicted_masks_full_size(self):
        subs = tiny_cohort(2)
        cfg = tiny_config(epochs=1)
        net, _ = train(subs[:1], cfg, val_subjects=subs[1:])
        ed, es = predict_masks(net, subs[0])
        assert ed.data.shape == subs[0].ed_mask.data.shape
        assert es.data.shape == subs[0].es_mask.data.shape

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate(None, [])

    @pytest.mark.parametrize("erased, blank, kept", [
        (RV, "rv_ef_percent", ("lv_edv_ml", "lv_esv_ml", "ef_percent", "myo_mass_g")),
        (LV, "ef_percent", ("lv_esv_ml", "rv_ef_percent", "myo_mass_g")),
    ], ids=["no_rv", "no_lv"])
    def test_structure_missing_at_ed_blanks_only_its_ef(self, erased, blank, kept):
        whole = build_cohort(1, seed=3)[0]
        ed = whole.ed_mask.data.copy()
        ed[ed == erased] = 0
        sub = dataclasses.replace(whole, ed_mask=LabelMask(ed))
        want = evaluate(None, [whole]).subjects[0].predicted
        got = evaluate(None, [sub]).subjects[0]
        assert math.isnan(got.predicted[blank]) and math.isnan(got.reference[blank])
        for param in kept:
            assert got.predicted[param] == got.reference[param] == want[param], param
        if erased == LV:
            assert got.predicted["lv_edv_ml"] == 0.0

    def test_failing_subject_and_frame_named(self):
        # a NaN written into a checked cine, inside its crop box, reaches the
        # softmax; the error names the subject and the frame it was in
        subs = build_cohort(2, seed=3)
        net = build(NetConfig(input_size=64, condensation_factor=2),
                    rng=np.random.default_rng(0), dtype=np.float32)
        x = np.random.default_rng(1).normal(size=(2, 1, 64, 64)).astype(np.float32)
        net.forward(Tensor(x), training=True)  # sets the running stats
        sub = subs[1]
        cy, cx = (int(c) for c in train_mod.cine_box(sub.cine, 64).center)
        sub.cine.data[sub.ed_frame, 3, cy, cx] = np.nan
        with pytest.raises(NumericsError, match="^subject %s: frame %d: softmax_channels produced"
                           % (sub.name, sub.ed_frame)) as info:
            evaluate(net, subs)
        cause = info.value.__cause__
        assert type(cause) is NumericsError and type(cause.__cause__) is NumericsError
        assert str(cause.__cause__).startswith("softmax_channels produced")


class TestReportCsv:
    def test_row_counts(self, tmp_path):
        subs = tiny_cohort(2)
        res = evaluate(None, subs)
        data_path, summary_path = emit_report_csv(res, tmp_path / "report.csv")
        data = open(data_path).read().splitlines()
        summary = open(summary_path).read().splitlines()
        assert len(data) == 1 + 2 * 5
        assert len(summary) == 1 + 5
        assert data[0] == "subject,group,parameter,predicted,ground_truth"
        assert summary[0] == "parameter,rho,mean_abs_error"

    def test_byte_identical_rerun(self, tmp_path):
        subs = tiny_cohort(3)
        res = evaluate(None, subs)
        a, asum = emit_report_csv(res, tmp_path / "a.csv")
        b, bsum = emit_report_csv(res, tmp_path / "b.csv")
        assert open(a, "rb").read() == open(b, "rb").read()
        assert open(asum, "rb").read() == open(bsum, "rb").read()

    def test_fields_are_quoted(self, tmp_path):
        subs = tiny_cohort(2)
        fields = [("a,b", 'say "hi"'), ("two\nlines", 'x,"y"\n')]
        for sub, (name, group) in zip(subs, fields):
            sub.name, sub.group = name, group
        data_path, _ = emit_report_csv(evaluate(None, subs), tmp_path / "report.csv")
        with open(data_path, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + 2 * 5 and all(len(row) == 5 for row in rows)
        assert {(row[0], row[1]) for row in rows[1:]} == set(fields)

    def test_empty_writes_nothing(self, tmp_path):
        from condenseg.train import EvalResult
        empty = EvalResult([], {}, {}, {})
        target = tmp_path / "nope.csv"
        with pytest.raises(ValueError):
            emit_report_csv(empty, target)
        assert not target.exists()


def test_submodule_import_gives_the_module():
    import condenseg.train as m
    assert isinstance(m, types.ModuleType)
    assert m.train is train
