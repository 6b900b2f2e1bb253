"""End-to-end CLI workflow on a miniature cohort."""

import json
import re

import pytest

from condenseg.cli import main
from condenseg.dataset import load_dataset, save_dataset
from condenseg.net import NetConfig, Network, load_checkpoint
from condenseg.phantom import PhantomSpec, generate_phantom
from condenseg.train import TrainConfig
from condenseg.volume import RV, CineVolume, load_volume, save_volume


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset + config + checkpoint shared by the command tests."""
    root = tmp_path_factory.mktemp("cliwork")
    spec = PhantomSpec(image_size=64, frames=4, slices=3,
                       endo_radius_px=(7.0, 8.5), wall_px=(2.5, 3.0),
                       contraction=(0.3, 0.4), center_jitter_px=2)
    subs = [generate_phantom(spec, 300 + i, name="s%02d" % i) for i in range(5)]
    data = root / "data"
    save_dataset(data, subs)

    cfg = TrainConfig(epochs=2, batch_size=2, batches_per_epoch=2, seed=5,
                      train_fraction=0.6, val_fraction=0.2,
                      net=NetConfig(input_size=32, layers_per_block=(1, 1, 2, 1, 1),
                                    pool_layers=2, condensation_factor=1))
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))

    ckpt = root / "model.ckpt"
    assert main(["train", "--data", str(data), "--config", str(cfg_path),
                 "--out", str(ckpt)]) == 0
    return {"root": root, "data": data, "subjects": subs,
            "cfg": cfg_path, "ckpt": ckpt}


class TestPhantomCommand:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "cohort"
        assert main(["phantom", "--count", "5", "--out", str(out),
                     "--seed", "9"]) == 0
        subs = load_dataset(out)
        assert len(subs) == 5
        assert len({s.group for s in subs}) == 5

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["phantom", "--count", "2", "--out", str(a), "--seed", "4"])
        main(["phantom", "--count", "2", "--out", str(b), "--seed", "4"])
        fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        for rel in fa:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestRoiCommand:
    def test_json_and_saliency(self, workdir, tmp_path):
        cine = workdir["data"] / "s00" / "cine.bin"
        out = tmp_path / "roi.json"
        pgm = tmp_path / "sal.pgm"
        assert main(["roi", "--in", str(cine), "--out", str(out),
                     "--saliency", str(pgm)]) == 0
        roi = json.loads(out.read_text())
        assert set(roi) == {"center", "radius", "corner", "size"}
        truth = workdir["subjects"][0].truth
        assert abs(roi["center"][0] - truth["roi_center"][0]) <= 3
        header = pgm.read_bytes()[:2]
        assert header == b"P5"


class TestSegmentCommand:
    def test_mask_written(self, workdir, tmp_path):
        out = tmp_path / "mask.bin"
        cine = workdir["data"] / "s01" / "cine.bin"
        assert main(["segment", "--ckpt", str(workdir["ckpt"]),
                     "--in", str(cine), "--out", str(out)]) == 0
        mask = load_volume(out)
        assert mask.data.shape == workdir["subjects"][1].ed_mask.data.shape

    def test_forwards_each_slice_once(self, workdir, tmp_path, monkeypatch):
        forwarded = []
        original = Network.forward

        def counting(net, x, training=False):
            forwarded.append(x.shape[0])
            return original(net, x, training)

        monkeypatch.setattr(Network, "forward", counting)
        cine = workdir["data"] / "s01" / "cine.bin"
        assert main(["segment", "--ckpt", str(workdir["ckpt"]), "--in", str(cine),
                     "--out", str(tmp_path / "m.bin"), "--frame", "1"]) == 0
        assert sum(forwarded) == load_volume(cine).data.shape[1]

    def test_one_frame_cine_segmented_in_the_centre_box(self, workdir, tmp_path):
        cine, out = tmp_path / "cine.bin", tmp_path / "mask.bin"
        save_volume(cine, CineVolume(load_volume(workdir["data"] / "s01" / "cine.bin").data[:1]))
        assert main(["segment", "--ckpt", str(workdir["ckpt"]), "--in", str(cine),
                     "--out", str(out), "--frame", "0"]) == 0
        assert load_volume(out).data.shape == workdir["subjects"][1].ed_mask.data.shape

    def test_bad_frame(self, workdir, tmp_path):
        cine = workdir["data"] / "s01" / "cine.bin"
        with pytest.raises(SystemExit):
            main(["segment", "--ckpt", str(workdir["ckpt"]), "--in", str(cine),
                  "--out", str(tmp_path / "m.bin"), "--frame", "99"])


class TestParamsCommand:
    def test_matches_truth(self, workdir, tmp_path):
        sub_dir = workdir["data"] / "s02"
        geom_path = tmp_path / "geom.json"
        meta = json.loads((sub_dir / "meta.json").read_text())
        geom_path.write_text(json.dumps(meta["geometry"]))
        out = tmp_path / "params.json"
        assert main(["params", "--ed", str(sub_dir / "ed_mask.bin"),
                     "--es", str(sub_dir / "es_mask.bin"),
                     "--geom", str(geom_path), "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        truth = workdir["subjects"][2].truth
        assert abs(got["ef_percent"] - truth["ef_percent"]) < 1e-9
        assert abs(got["lv_edv_ml"] - truth["lv_edv_ml"]) < 1e-9

    def test_no_rv_at_ed_writes_nan_rv_ef(self, workdir, tmp_path):
        sub_dir = workdir["data"] / "s02"
        geom_path = tmp_path / "geom.json"
        meta = json.loads((sub_dir / "meta.json").read_text())
        geom_path.write_text(json.dumps(meta["geometry"]))
        ed = load_volume(sub_dir / "ed_mask.bin")
        ed.data[ed.data == RV] = 0
        save_volume(tmp_path / "ed_mask.bin", ed)
        out = tmp_path / "params.json"
        assert main(["params", "--ed", str(tmp_path / "ed_mask.bin"),
                     "--es", str(sub_dir / "es_mask.bin"),
                     "--geom", str(geom_path), "--out", str(out)]) == 0
        assert '"rv_ef_percent": NaN' in out.read_text()
        got = json.loads(out.read_text())
        assert abs(got["ef_percent"] - workdir["subjects"][2].truth["ef_percent"]) < 1e-9

    @pytest.mark.parametrize("geom, match", [
        ({}, "has no pixel_spacing_mm"),
        ([1.5, 1.5], "must be an object"),
        ({"pixel_spacing_mm": 1.5, "slice_thickness_mm": 8.0, "slice_gap_mm": 2.0},
         "pixel_spacing_mm is 1.5"),
        ({"pixel_spacing_mm": [1e200, 1e200], "slice_thickness_mm": 1e200, "slice_gap_mm": 0.0},
         "pixel_spacing_mm must be at most"),
    ], ids=["empty", "list", "spacing_scalar", "overflowing"])
    def test_bad_geometry_file(self, workdir, tmp_path, geom, match):
        sub_dir = workdir["data"] / "s02"
        geom_path = tmp_path / "geom.json"
        geom_path.write_text(json.dumps(geom))
        with pytest.raises(ValueError, match=match):
            main(["params", "--ed", str(sub_dir / "ed_mask.bin"),
                  "--es", str(sub_dir / "es_mask.bin"),
                  "--geom", str(geom_path), "--out", str(tmp_path / "params.json")])
        assert not (tmp_path / "params.json").exists()

    def test_geometry_file_not_json(self, workdir, tmp_path):
        sub_dir = workdir["data"] / "s02"
        geom_path = tmp_path / "geom.json"
        geom_path.write_text('{"pixel_spacing_mm": [1.5, 1.5],')
        with pytest.raises(ValueError, match=re.escape(str(geom_path)) + " is not valid JSON"):
            main(["params", "--ed", str(sub_dir / "ed_mask.bin"),
                  "--es", str(sub_dir / "es_mask.bin"),
                  "--geom", str(geom_path), "--out", str(tmp_path / "params.json")])
        assert not (tmp_path / "params.json").exists()


class TestWrongVolumeKind:
    @pytest.mark.parametrize("command, wrong, given, expected", [
        (["roi", "--in", "{es}"], "es", "LabelMask", "CineVolume"),
        (["segment", "--ckpt", "{ckpt}", "--in", "{es}"], "es", "LabelMask", "CineVolume"),
        (["params", "--ed", "{cine}", "--es", "{es}", "--geom", "{geom}"],
         "cine", "CineVolume", "LabelMask"),
        (["params", "--ed", "{ed}", "--es", "{cine}", "--geom", "{geom}"],
         "cine", "CineVolume", "LabelMask"),
    ], ids=["roi_mask", "segment_mask", "params_cine_ed", "params_cine_es"])
    def test_rejected_naming_file(self, workdir, tmp_path, command, wrong, given, expected):
        sub_dir = workdir["data"] / "s02"
        geom_path = tmp_path / "geom.json"
        geom_path.write_text(json.dumps(json.loads((sub_dir / "meta.json").read_text())["geometry"]))
        paths = {"cine": sub_dir / "cine.bin", "ed": sub_dir / "ed_mask.bin",
                 "es": sub_dir / "es_mask.bin", "ckpt": workdir["ckpt"], "geom": geom_path}
        out = tmp_path / "out"
        argv = [arg.format(**paths) for arg in command] + ["--out", str(out)]
        with pytest.raises(ValueError, match="%s holds a %s, expected a %s" % (
                re.escape(str(paths[wrong])), given, expected)):
            main(argv)
        assert not out.exists()


class TestEvalCommand:
    def test_csv_pair(self, workdir, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["eval", "--ckpt", str(workdir["ckpt"]),
                     "--data", str(workdir["data"]), "--out", str(out)]) == 0
        assert out.exists()
        summary = tmp_path / "report_summary.csv"
        assert summary.exists()
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5 * 5


class TestPruneReport:
    def test_lists_layers(self, workdir, capsys):
        assert main(["prune-report", "--ckpt", str(workdir["ckpt"])]) == 0
        text = capsys.readouterr().out
        assert "stage" in text and "alive" in text
        assert "parameters: dense" in text
        net, _ = load_checkpoint(workdir["ckpt"])
        assert "MACs per image: dense %d, alive %d\n" % (
            net.flop_count("dense"), net.flop_count("alive")) in text


class TestParsing:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            main(["phantom", "--count", "3"])
