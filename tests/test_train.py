"""Training loop behavior, evaluation pipeline, and report files."""

import json
import types

import numpy as np
import pytest

from condenseg.net import ConfigError, NetConfig
from condenseg.phantom import PhantomSpec, generate_phantom
from condenseg.tensor import NumericsError
from condenseg.train import (
    TrainConfig,
    emit_report_csv,
    evaluate,
    predict_masks,
    train,
)


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
        TrainConfig().validate()

    def test_bad_values_listed(self):
        cfg = TrainConfig(epochs=0, learning_rate=-1.0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert "epochs" in str(err.value) and "learning_rate" in str(err.value)

    def test_fraction_overflow(self):
        with pytest.raises(ConfigError):
            TrainConfig(train_fraction=0.9, val_fraction=0.2).validate()

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
        ({"net": {"input_size": 32, "dropout": 0.1}}, "net config fields: dropout"),
        ({"loss": {"gamma": 2.0}}, "loss config fields: gamma"),
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
        with pytest.raises(ConfigError, match="wrong type: " + key):
            TrainConfig.from_dict(obj)

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

    def test_internal_split_used_when_no_val(self):
        subs = tiny_cohort(6)
        cfg = tiny_config(epochs=1, train_fraction=0.5, val_fraction=0.5)
        _, hist = train(subs, cfg)
        assert np.isfinite(hist["val_dice"][0])

    def test_empty_training_set(self):
        with pytest.raises(ValueError):
            train([], tiny_config())


class TestEvaluate:
    def test_ground_truth_against_itself(self):
        subs = tiny_cohort(4)
        res = evaluate(None, subs)
        assert all(abs(v - 1.0) < 1e-12 for v in res.mean_dice.values())
        for param, value in res.rho.items():
            assert abs(value - 1.0) < 1e-12, param
        assert all(v == 0.0 for v in res.mean_abs_error.values())

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
