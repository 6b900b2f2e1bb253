"""Container types and the on-disk volume format."""

import json
import os
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("obj, match", [
        ({}, "geometry has no pixel_spacing_mm"),
        ([], "geometry must be an object"),
        (3.0, "geometry must be an object"),
        ({"pixel_spacing_mm": 1.5, "slice_thickness_mm": 8, "slice_gap_mm": 2},
         "pixel_spacing_mm is 1.5"),
        ({"pixel_spacing_mm": [1.5], "slice_thickness_mm": 8, "slice_gap_mm": 2},
         "pixel_spacing_mm is \\[1.5\\]"),
        ({"pixel_spacing_mm": [1.5, 1.5], "slice_thickness_mm": "8", "slice_gap_mm": 2},
         "slice_thickness_mm is '8'"),
        ({"pixel_spacing_mm": [1.5, 1.5], "slice_thickness_mm": 8}, "has no slice_gap_mm"),
        ({"pixel_spacing_mm": [1.5, True], "slice_thickness_mm": 8, "slice_gap_mm": 2},
         "pixel_spacing_mm"),
        ({"pixel_spacing_mm": [1.5, 10 ** 400], "slice_thickness_mm": 8, "slice_gap_mm": 2},
         "pixel_spacing_mm is too large for a float"),
        ({"pixel_spacing_mm": [1.5, 1.5], "slice_thickness_mm": 10 ** 400, "slice_gap_mm": 2},
         "slice_thickness_mm is too large for a float"),
        ({"pixel_spacing_mm": [1.5, 1.5], "slice_thickness_mm": 8, "slice_gap_mm": 10 ** 400},
         "slice_gap_mm is too large for a float"),
        ({"pixel_spacing_mm": [1.5, 1.5], "slice_thickness_mm": 8, "slice_gap_mm": 1e200},
         "slice_gap_mm must be at most 1e\\+06 mm"),
    ], ids=["empty", "list", "scalar", "spacing_scalar", "spacing_short", "thickness_str",
            "no_gap", "spacing_bool", "spacing_huge_int", "thickness_huge_int", "gap_huge_int",
            "gap_overflowing"])
    def test_from_dict_names_the_field(self, obj, match):
        with pytest.raises(ValueError, match=match):
            Geometry.from_dict(obj)

    def test_int_values_keep_their_type(self):
        g = Geometry.from_dict({"pixel_spacing_mm": [1, 2], "slice_thickness_mm": 8,
                                "slice_gap_mm": 2})
        assert g.pixel_spacing_mm == (1.0, 2.0) and type(g.pixel_spacing_mm[0]) is float
        assert type(g.slice_thickness_mm) is int and type(g.slice_gap_mm) is int

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

    @pytest.mark.parametrize("shape, dim", [
        ((0, 2, 8, 8), "T"), ((2, 0, 64, 64), "Z"), ((2, 2, 0, 8), "H"), ((2, 2, 8, 0), "W"),
    ], ids=["t0", "z0", "h0", "w0"])
    def test_cine_empty_dim_rejected(self, shape, dim):
        with pytest.raises(ValueError, match="empty %s dim" % dim):
            CineVolume(np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_cine_non_finite_rejected(self, value):
        data = np.zeros((2, 3, 4, 5), dtype=np.float32)
        data[1, 2, 3, 0] = data[1, 2, 3, 4] = value
        with pytest.raises(ValueError, match=r"2 values that are not finite, the first at"
                                             r" \(t, z, y, x\) = \(1, 2, 3, 0\)"):
            CineVolume(data)

    def test_cine_preserves_float64(self):
        v = CineVolume(np.zeros((2, 2, 4, 4), dtype=np.float64))
        assert v.data.dtype == np.float64

    def test_cine_casts_ints(self):
        v = CineVolume(np.zeros((2, 2, 4, 4), dtype=np.int16))
        assert v.data.dtype == np.float32

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            LabelMask(np.full((4, 4), 9, dtype=np.uint8))

    @pytest.mark.parametrize("data, match", [
        (np.zeros((2, 4, 4), dtype=np.float32), "integer data"),
        (np.zeros(4, dtype=np.uint8), "at least \\(H,W\\) dims"),
    ], ids=["float", "1d"])
    def test_mask_data_rejected(self, data, match):
        with pytest.raises(ValueError, match=match):
            LabelMask(data)

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

    def test_loaded_arrays_writable_and_aligned(self, tmp_path):
        # a loaded cine and mask are writable, aligned arrays holding the
        # bytes after their file's header line
        rng = np.random.default_rng(5)
        for name, obj in (("c.bin", CineVolume(rng.random((2, 3, 5, 7)).astype(np.float32))),
                          ("m.bin", LabelMask(rng.integers(0, 4, (3, 5, 7)).astype(np.uint8)))):
            path = tmp_path / name
            save_volume(path, obj)
            back = load_volume(path)
            assert back.data.flags.writeable and back.data.flags.aligned, name
            assert back.data.tobytes() == path.read_bytes().split(b"\n", 1)[1], name
            back.data[...] = 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_loaded_from_a_pipe(self, tmp_path):
        # a pipe reports no size: its bytes are read to its end all the same
        data = np.random.default_rng(7).random((2, 3, 9, 9)).astype(np.float32)
        path, pipe = tmp_path / "v.bin", tmp_path / "pipe"
        save_volume(path, CineVolume(data))
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            back = load_volume(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(back.data, data) and back.data.flags.aligned

    def test_cine_read_once(self, tmp_path):
        # the bytes land once, in the array the volume keeps: the traced
        # peak of a load is that array plus the finite check's bool mask
        data = np.random.default_rng(6).random((6, 8, 64, 64)).astype(np.float32)
        path = tmp_path / "v.bin"
        save_volume(path, CineVolume(data))
        tracemalloc.start()
        try:
            back = load_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, data)
        assert peak < 1.5 * data.nbytes, peak / data.nbytes

    def test_non_finite_buffer_rejected(self, tmp_path):
        path = tmp_path / "v.bin"
        save_volume(path, CineVolume(np.zeros((1, 2, 3, 3), dtype=np.float32)))
        raw = path.read_bytes()
        at = raw.index(b"\n") + 1 + 4 * 7  # the pixel (0, 0, 2, 1)
        path.write_bytes(raw[:at] + np.array(np.nan, "<f4").tobytes() + raw[at + 4:])
        with pytest.raises(VolumeFormatError, match=r"v\.bin: cine volume has 1 values that are"
                                                    r" not finite, the first at .* = \(0, 0, 2, 1\)"):
            load_volume(path)

    def test_mask_roundtrip(self, tmp_path):
        m = LabelMask(np.random.default_rng(0).integers(0, 4, (5, 9, 9), dtype=np.uint8))
        path = tmp_path / "m.bin"
        save_volume(path, m)
        back = load_volume(path)
        assert isinstance(back, LabelMask)
        assert np.array_equal(back.data, m.data)
        assert back.label_names == m.label_names

    @pytest.mark.parametrize("make", [
        lambda: CineVolume(np.zeros((0, 2, 8, 8), dtype=np.float32)),
        lambda: CineVolume(np.zeros((2, 0, 8, 8), dtype=np.float32)),
        lambda: CineVolume(np.zeros((2, 2, 0, 8), dtype=np.float32)),
        lambda: CineVolume(np.zeros((2, 2, 8, 0), dtype=np.float32)),
        lambda: LabelMask(np.zeros((0, 8, 8), dtype=np.uint8)),
        lambda: LabelMask(np.zeros((2, 0, 8), dtype=np.uint8)),
    ], ids=["cine_t0", "cine_z0", "cine_h0", "cine_w0", "mask_z0", "mask_h0"])
    def test_empty_refused_before_writing(self, tmp_path, make):
        # load_volume refuses a zero dim, so no such file is written: an
        # empty cine is refused when built, an empty mask by save_volume
        path = tmp_path / "empty.bin"
        with pytest.raises(ValueError):
            save_volume(path, make())
        assert not path.exists()

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

    @staticmethod
    def _with_header_field(tmp_path, key, value):
        path = tmp_path / "v.bin"
        save_volume(path, CineVolume(np.zeros((1, 2, 2, 2), dtype=np.float32)))
        raw = path.read_bytes()
        split = raw.index(b"\n")
        header = json.loads(raw[:split])
        header[key] = value
        path.write_bytes(json.dumps(header).encode() + raw[split:])
        return path

    @pytest.mark.parametrize("dims", [[1, "2", 2, 2], [1, 2, 2, 2.0], [1, 2, 2, True]])
    def test_dims_must_be_ints(self, tmp_path, dims):
        with pytest.raises(HeaderError):
            load_volume(self._with_header_field(tmp_path, "dims", dims))

    @pytest.mark.parametrize("key,value", [
        ("spacing_mm", 1.5), ("spacing_mm", [1.5]), ("spacing_mm", [1.5, -1]),
        ("spacing_mm", [float("nan"), 1]), ("spacing_mm", [1.5, float("inf")]),
        ("slice_thickness_mm", "8"), ("slice_thickness_mm", float("nan")),
        ("slice_gap_mm", None), ("slice_gap_mm", float("nan")),
        pytest.param("spacing_mm", [10 ** 400, 1.5], id="spacing_mm-huge_int"),
        pytest.param("slice_gap_mm", 10 ** 400, id="slice_gap_mm-huge_int")])
    def test_bad_geometry_is_header_error(self, tmp_path, key, value):
        with pytest.raises(HeaderError, match="bad geometry"):
            load_volume(self._with_header_field(tmp_path, key, value))

    @pytest.mark.parametrize("key,value", [
        ("spacing_mm", [True, True]), ("spacing_mm", [1.5, True]), ("slice_thickness_mm", True),
        ("slice_gap_mm", False)])
    def test_boolean_geometry_is_header_error(self, tmp_path, key, value):
        # JSON true is no number, here as in a geometry file or meta.json
        with pytest.raises(HeaderError, match="bad geometry"):
            load_volume(self._with_header_field(tmp_path, key, value))

    def test_header_roundtrips_to_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_volume(a, CineVolume(np.ones((1, 2, 2, 2), dtype=np.float32),
                                  Geometry((0.75, 1.25), 6, 0.0)))
        save_volume(b, load_volume(a))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().split(b"\n")[0] == (
            b'{"dims":[1,2,2,2],"dtype":"f32","label_names":null,"slice_gap_mm":0.0,'
            b'"slice_thickness_mm":6,"spacing_mm":[0.75,1.25]}')

    @pytest.mark.parametrize("line", [b"[]", b"1", b"null", b'"x"'])
    def test_header_not_object(self, tmp_path, line):
        path = tmp_path / "v.bin"
        path.write_bytes(line + b"\n" + b"\x00" * 16)
        with pytest.raises(HeaderError, match="not a JSON object"):
            load_volume(path)

    @pytest.mark.parametrize("line", [b"{nope", b'{"dims": [1,', b"\xff\xff\xff",
                                      b"[" * 100000 + b"]" * 100000],
                             ids=["bare_word", "cut_short", "not_utf8", "nested_too_deep"])
    def test_header_not_json(self, tmp_path, line):
        path = tmp_path / "v.bin"
        path.write_bytes(line + b"\n" + b"\x00" * 16)
        with pytest.raises(HeaderError, match="v.bin: header line is not valid JSON"):
            load_volume(path)

    @pytest.mark.parametrize("names, match", [
        (5, "label_names must be a list of strings"),
        ([1, 2, 3, 4], "label_names must be a list of strings"),
        (["background", "lv"], "labels outside"),
        (0, "label_names must be a list of strings"),
        (False, "label_names must be a list of strings"),
        ("", "label_names must be a list of strings"),
        ({}, "label_names must be a list of strings"),
        ([], r"labels outside \[0, 0\)"),
    ], ids=["int", "int_entries", "too_few", "zero", "false", "empty_string", "empty_object",
            "empty_list"])
    def test_bad_label_names(self, tmp_path, names, match):
        path = tmp_path / "m.bin"
        save_volume(path, LabelMask(np.full((1, 2, 2), LV, dtype=np.uint8)))
        raw = path.read_bytes()
        split = raw.index(b"\n")
        header = json.loads(raw[:split])
        header["label_names"] = names
        path.write_bytes(json.dumps(header).encode() + raw[split:])
        with pytest.raises(HeaderError, match=match):
            load_volume(path)

    @pytest.mark.parametrize("tag", [["f32"], {"f32": 1}, 4])
    def test_dtype_not_a_string(self, tmp_path, tag):
        with pytest.raises(DtypeError):
            load_volume(self._with_header_field(tmp_path, "dtype", tag))

    def test_mask_with_frames_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_volume(path, LabelMask(np.zeros((2, 2, 2), dtype=np.uint8)))
        raw = path.read_bytes()
        split = raw.index(b"\n")
        header = json.loads(raw[:split])
        header["dims"] = [2, 1, 2, 2]  # the same bytes as two frames of one slice
        path.write_bytes(json.dumps(header).encode() + raw[split:])
        with pytest.raises(HeaderError, match="label masks must have T=1, got 2"):
            load_volume(path)

    @pytest.mark.parametrize("obj, error, match", [
        (LabelMask(np.zeros((4, 4), dtype=np.uint8)), ValueError, "only \\(Z,H,W\\) masks"),
        (np.zeros((1, 1, 4, 4), dtype=np.float32), TypeError, "not 'ndarray'"),
    ], ids=["mask_2d", "plain_array"])
    def test_unsavable_object_rejected(self, tmp_path, obj, error, match):
        path = tmp_path / "v.bin"
        with pytest.raises(error, match=match):
            save_volume(path, obj)
        assert not path.exists()

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


# fixed example sets: the suite gives the same verdict on every run
PROPERTY = dict(deadline=None, derandomize=True, database=None)
lengths = st.floats(1e-3, 1e3, allow_nan=False)


@st.composite
def volumes(draw):
    """A CineVolume with random geometry or a LabelMask, of random dims."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z, h, w = (draw(st.integers(1, 6)) for _ in range(3))
    if draw(st.booleans()):
        geom = Geometry((draw(lengths), draw(lengths)), draw(lengths),
                        draw(st.floats(0, 1e3, allow_nan=False)))
        data = rng.standard_normal((draw(st.integers(1, 4)), z, h, w))
        return CineVolume(data.astype(np.float32), geom)
    n = draw(st.integers(1, 4))
    return LabelMask(rng.integers(0, n, (z, h, w)).astype(np.uint8), num_classes=n)


class TestRoundTripProperty:
    @settings(max_examples=60, **PROPERTY)
    @given(volumes())
    def test_save_load_roundtrip(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.bin")
            save_volume(path, obj)
            back = load_volume(path)
        assert type(back) is type(obj)
        assert back.data.dtype == obj.data.dtype
        assert back.data.shape == obj.data.shape
        assert back.data.tobytes() == obj.data.tobytes()
        if isinstance(obj, CineVolume):
            assert back.geometry == obj.geometry
        else:
            assert back.num_classes == obj.num_classes
            assert back.label_names == obj.label_names


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8)


def _load_with_header(header, blob):
    """load_volume on `header` as the JSON header line before `blob`; a
    VolumeFormatError is the documented rejection, anything else escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.bin")
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n" + blob)
        try:
            load_volume(path)
        except VolumeFormatError:
            pass


class TestHeaderFuzz:
    @settings(max_examples=100, **PROPERTY)
    @given(json_values)
    def test_any_json_header(self, value):
        _load_with_header(value, b"\x00" * 16)

    @settings(max_examples=100, **PROPERTY)
    @given(st.data())
    def test_one_field_replaced(self, data):
        obj = data.draw(st.sampled_from([
            CineVolume(np.ones((2, 1, 2, 2), dtype=np.float32)),
            LabelMask(np.full((1, 2, 2), LV, dtype=np.uint8))]))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.bin")
            save_volume(path, obj)
            with open(path, "rb") as f:
                head, blob = f.read().split(b"\n", 1)
        header = json.loads(head)
        header[data.draw(st.sampled_from(sorted(header)))] = data.draw(json_values)
        _load_with_header(header, blob)
