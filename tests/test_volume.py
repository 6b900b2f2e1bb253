"""Container types and the on-disk volume format."""

import json

import numpy as np
import pytest

from condenseg.volume import (
    CineVolume,
    DtypeError,
    Geometry,
    HeaderError,
    LabelMask,
    TruncationError,
    VolumeFormatError,
    load_volume,
    save_volume,
    LV,
)


class TestGeometry:
    def test_defaults(self):
        g = Geometry()
        assert g.pixel_spacing_mm == (1.5, 1.5)
        assert g.slice_step_mm() == 10.0

    def test_roundtrip_dict(self):
        g = Geometry((1.25, 1.25), 6.0, 1.5)
        assert Geometry.from_dict(g.to_dict()) == g

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Geometry((0.0, 1.0), 8.0, 2.0)
        with pytest.raises(ValueError):
            Geometry((1.0, 1.0), -1.0, 2.0)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            Geometry((1.0, 1.0), 8.0, -0.5)


class TestContainers:
    def test_cine_shape_properties(self):
        v = CineVolume(np.zeros((12, 8, 64, 64), dtype=np.float32))
        assert v.frames == 12 and v.slices == 8

    def test_cine_requires_4d(self):
        with pytest.raises(ValueError):
            CineVolume(np.zeros((8, 64, 64), dtype=np.float32))

    def test_cine_preserves_float64(self):
        v = CineVolume(np.zeros((2, 2, 4, 4), dtype=np.float64))
        assert v.data.dtype == np.float64

    def test_cine_casts_ints(self):
        v = CineVolume(np.zeros((2, 2, 4, 4), dtype=np.int16))
        assert v.data.dtype == np.float32

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            LabelMask(np.full((4, 4), 9, dtype=np.uint8))

    def test_mask_class_counts(self):
        m = LabelMask(np.array([[0, 3], [3, 1]], dtype=np.uint8))
        assert list(m.class_counts()) == [1, 1, 0, 2]


class TestFileFormat:
    def test_cine_roundtrip_bits(self, tmp_path):
        rng = np.random.default_rng(3)
        vol = CineVolume(rng.random((3, 2, 10, 12)).astype(np.float32),
                         Geometry((1.25, 1.25), 7.0, 1.0))
        path = tmp_path / "v.bin"
        save_volume(path, vol)
        first = path.read_bytes()
        back = load_volume(path)
        assert isinstance(back, CineVolume)
        assert back.data.tobytes() == vol.data.tobytes()
        assert back.geometry == vol.geometry
        save_volume(path, back)
        assert path.read_bytes() == first

    def test_mask_roundtrip(self, tmp_path):
        m = LabelMask(np.random.default_rng(0).integers(0, 4, (5, 9, 9), dtype=np.uint8))
        path = tmp_path / "m.bin"
        save_volume(path, m)
        back = load_volume(path)
        assert isinstance(back, LabelMask)
        assert np.array_equal(back.data, m.data)
        assert back.label_names == m.label_names

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not json at all\n" + b"\x00" * 16)
        with pytest.raises(HeaderError):
            load_volume(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        head = json.dumps({"magic": "something-else"}) + "\n"
        path.write_bytes(head.encode())
        with pytest.raises(HeaderError):
            load_volume(path)

    def test_unknown_dtype(self, tmp_path):
        vol = CineVolume(np.zeros((1, 1, 4, 4), dtype=np.float32))
        path = tmp_path / "v.bin"
        save_volume(path, vol)
        raw = path.read_bytes()
        split = raw.index(b"\n")
        header = json.loads(raw[:split])
        header["dtype"] = "c128"
        path.write_bytes(json.dumps(header).encode() + raw[split:])
        with pytest.raises(DtypeError):
            load_volume(path)

    @pytest.mark.parametrize("dims", [[1, "2", 2, 2], [1, 2, 2, 2.0], [1, 2, 2, True]])
    def test_dims_must_be_ints(self, tmp_path, dims):
        path = tmp_path / "v.bin"
        save_volume(path, CineVolume(np.zeros((1, 2, 2, 2), dtype=np.float32)))
        raw = path.read_bytes()
        split = raw.index(b"\n")
        header = json.loads(raw[:split])
        header["dims"] = dims
        path.write_bytes(json.dumps(header).encode() + raw[split:])
        with pytest.raises(HeaderError):
            load_volume(path)

    def test_truncated_payload(self, tmp_path):
        vol = CineVolume(np.ones((2, 2, 8, 8), dtype=np.float32))
        path = tmp_path / "v.bin"
        save_volume(path, vol)
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(TruncationError):
            load_volume(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        vol = CineVolume(np.ones((1, 1, 4, 4), dtype=np.float32))
        path = tmp_path / "v.bin"
        save_volume(path, vol)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(TruncationError):
            load_volume(path)

    def test_errors_share_base(self):
        assert issubclass(HeaderError, VolumeFormatError)
        assert issubclass(DtypeError, VolumeFormatError)
        assert issubclass(TruncationError, VolumeFormatError)

    def test_mask_labels_survive(self, tmp_path):
        data = np.zeros((2, 6, 6), dtype=np.uint8)
        data[:, 2:4, 2:4] = LV
        path = tmp_path / "m.bin"
        save_volume(path, LabelMask(data))
        assert load_volume(path).class_counts()[LV] == 8
