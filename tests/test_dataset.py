"""Dataset round-trips and stratified splitting."""

import functools
import json
import os
import re
import tempfile
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condenseg import dataset as dataset_mod
from condenseg.dataset import (
    StratificationError,
    load_dataset,
    save_dataset,
    split_dataset,
    stratified_kfold,
)
from condenseg.phantom import PhantomSpec, build_cohort, generate_phantom
from condenseg.volume import LabelMask, save_volume

Stub = namedtuple("Stub", "group")


def tiny_cohort(n=6):
    spec = PhantomSpec(image_size=64, frames=4, slices=2,
                       endo_radius_px=(7.0, 8.0), wall_px=(2.5, 3.0),
                       contraction=(0.3, 0.4), center_jitter_px=2)
    return [generate_phantom(spec, 100 + i, name="sub-%02d" % i) for i in range(n)]


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        subs = tiny_cohort(3)
        save_dataset(tmp_path / "ds", subs)
        back = load_dataset(tmp_path / "ds")
        assert [s.name for s in back] == [s.name for s in subs]
        for a, b in zip(subs, back):
            assert a.group == b.group
            assert a.ed_frame == b.ed_frame and a.es_frame == b.es_frame
            assert np.array_equal(a.cine.data, b.cine.data)
            assert np.array_equal(a.ed_mask.data, b.ed_mask.data)
            assert np.array_equal(a.es_mask.data, b.es_mask.data)
            assert a.truth == b.truth
            assert a.geometry == b.geometry

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "ds", [])

    def test_duplicate_names_rejected(self, tmp_path):
        subs = tiny_cohort(2)
        subs[1].name = subs[0].name
        with pytest.raises(ValueError):
            save_dataset(tmp_path / "ds", subs)

    @pytest.mark.parametrize("names", [["sub-00", "../escaped"], ["sub-00", ""],
                                       ["sub-00", "sub-01", "sub-00"]],
                             ids=["traversal", "empty", "duplicate"])
    def test_unsafe_names_rejected_before_writing(self, tmp_path, names):
        subs = tiny_cohort(len(names))
        for sub, name in zip(subs, names):
            sub.name = name
        with pytest.raises(ValueError, match="subjects is"):
            save_dataset(tmp_path / "root", subs)
        assert os.listdir(tmp_path) == []

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope")

    def test_failed_save_over_a_dataset_leaves_no_manifest(self, tmp_path, monkeypatch):
        # the fifth volume is the second subject's ED mask: with the old manifest
        # left, the second subject would load a new cine beside the old masks
        root = tmp_path / "ds"
        save_dataset(root, build_cohort(3, seed=1))
        saved = []

        def failing(path, obj):
            saved.append(path)
            if len(saved) == 5:
                raise OSError("disk full")
            save_volume(path, obj)

        monkeypatch.setattr(dataset_mod, "save_volume", failing)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(root, build_cohort(3, seed=2))
        with pytest.raises(FileNotFoundError):
            load_dataset(root)


@functools.lru_cache(maxsize=None)
def one_subject():
    return tiny_cohort(1)[0]


META = os.path.join("sub-00", "meta.json")


def _drop(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _set(key, value):
    return lambda obj: dict(obj, **{key: value})


def _saved_with(root, name, edit):
    """A one-subject dataset at `root` whose file `name` is replaced by
    `edit` of its JSON."""
    save_dataset(root, [one_subject()])
    path = os.path.join(root, name)
    with open(path) as f:
        obj = json.load(f)
    with open(path, "w") as f:
        json.dump(edit(obj), f)


class TestManifestAndMeta:
    @pytest.mark.parametrize("name, edit, match", [
        ("manifest.json", lambda m: [], "manifest.json must be an object"),
        ("manifest.json", _drop("subjects"), "manifest.json has no subjects"),
        ("manifest.json", _set("subjects", 5), "subjects is 5"),
        ("manifest.json", _set("subjects", "sub-00"), "subjects is 'sub-00'"),
        ("manifest.json", _set("subjects", [".."]), "subjects is \\['\\.\\.'\\]"),
        ("manifest.json", _set("subjects", ["."]), "subjects is \\['\\.'\\]"),
        ("manifest.json", _set("subjects", [""]), "subjects is \\[''\\]"),
        ("manifest.json", _set("subjects", ["sub-00/.."]), "subjects is"),
        ("manifest.json", _set("subjects", [3]), "subjects is \\[3\\]"),
        ("manifest.json", _set("subjects", ["sub-00", "sub-00"]), "subjects is"),
        ("manifest.json", _set("magic", "other"), "magic is 'other'"),
        (META, lambda m: [m], "meta.json must be an object"),
        (META, _drop("geometry"), "meta.json has no geometry"),
        (META, _set("ed_frame", 99), "ed_frame is 99, not an int in \\[0, 4\\)"),
        (META, _set("es_frame", -1), "es_frame is -1"),
        (META, _set("ed_frame", True), "ed_frame is True"),
        (META, _set("es_frame", 2.0), "es_frame is 2.0"),
        (META, _set("group", 5), "group is 5"),
        (META, _set("name", None), "name is None"),
        (META, _set("truth", 5), "truth is 5"),
        (META, _set("geometry", {}), "meta.json geometry has no pixel_spacing_mm"),
        (META, _set("geometry", [1.5, 1.5]), "meta.json geometry must be an object"),
    ], ids=["manifest_list", "no_subjects", "subjects_int", "subjects_str", "dotdot", "dot",
            "empty_name", "separator", "name_int", "duplicate", "magic",
            "meta_list", "no_geometry", "ed_frame_99", "es_frame_negative", "ed_frame_bool",
            "es_frame_float", "group_int", "name_null", "truth_int",
            "geometry_empty", "geometry_list"])
    def test_bad_field_names_file_and_field(self, tmp_path, name, edit, match):
        _saved_with(tmp_path, name, edit)
        with pytest.raises(ValueError, match=match):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name, source, kind", [
        ("cine.bin", "ed_mask.bin", "expected a CineVolume"),
        ("ed_mask.bin", "cine.bin", "expected a LabelMask"),
        ("es_mask.bin", "cine.bin", "expected a LabelMask"),
    ], ids=["mask_as_cine", "cine_as_ed_mask", "cine_as_es_mask"])
    def test_volume_of_the_wrong_kind(self, tmp_path, name, source, kind):
        save_dataset(tmp_path, [one_subject()])
        folder = tmp_path / "sub-00"
        (folder / name).write_bytes((folder / source).read_bytes())
        with pytest.raises(ValueError, match=r"sub-00.%s holds a \w+, %s" % (name, kind)):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["manifest.json", META], ids=["manifest", "meta"])
    @pytest.mark.parametrize("text", [b"{nope", b'{"subjects": [', b"\xff\xff", b""],
                             ids=["bare_word", "cut_short", "not_utf8", "empty"])
    def test_invalid_json_names_the_file(self, tmp_path, name, text):
        save_dataset(tmp_path, [one_subject()])
        (tmp_path / name).write_bytes(text)
        with pytest.raises(ValueError, match=re.escape(os.path.join(str(tmp_path), name))
                           + " is not valid JSON"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("index, meta_name", [(0, "other"), (1, "sub-00")],
                             ids=["renamed", "shared"])
    def test_meta_name_other_than_its_folder(self, tmp_path, index, meta_name):
        # save_dataset writes each folder's name; a hand edit could load a
        # subject under another name, or two subjects under one
        save_dataset(tmp_path, tiny_cohort(2))
        path = tmp_path / ("sub-%02d" % index) / "meta.json"
        path.write_text(json.dumps(_set("name", meta_name)(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape("%s: name is %r, not 'sub-%02d'"
                                                       % (path, meta_name, index))):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name, shape", [
        ("ed_mask.bin", (2, 48, 48)), ("es_mask.bin", (2, 64, 80)), ("ed_mask.bin", (1, 64, 64)),
    ], ids=["ed_other_size", "es_other_size", "fewer_slices"])
    def test_mask_shape_other_than_its_cine(self, tmp_path, name, shape):
        # such a mask loaded and was cropped with its cine's box into wrong labels
        save_dataset(tmp_path, [one_subject()])
        path = os.path.join(tmp_path, "sub-00", name)
        save_volume(path, LabelMask(np.zeros(shape, dtype=np.uint8)))
        with pytest.raises(ValueError, match=re.escape(
                "%s: mask shape %s is not its cine's (Z, H, W) (2, 64, 64)" % (path, shape))):
            load_dataset(tmp_path)

    def test_missing_subject_folder(self, tmp_path):
        _saved_with(tmp_path, "manifest.json", _set("subjects", ["sub-00", "gone"]))
        with pytest.raises(OSError):
            load_dataset(tmp_path)


# fixed example sets: the suite gives the same verdict on every run
PROPERTY = dict(max_examples=100, deadline=None, derandomize=True, database=None)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8)


def _load_rejecting(name, edit):
    """load_dataset after `edit` of file `name`: a ValueError is the
    documented rejection, and an OSError only a listed folder that is not
    there; anything else escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        _saved_with(tmp, name, edit)
        try:
            load_dataset(tmp)
        except ValueError:
            pass
        except OSError:
            assert name == "manifest.json"


# the fields save_dataset writes to each file
FIELDS = {"manifest.json": ("magic", "subjects", "version"),
          META: ("ed_frame", "es_frame", "geometry", "group", "name", "truth")}


class TestFileFuzz:
    @settings(**PROPERTY)
    @given(st.sampled_from(sorted(FIELDS)), json_values)
    def test_any_json_file(self, name, value):
        _load_rejecting(name, lambda obj: value)

    @settings(**PROPERTY)
    @given(st.data())
    def test_one_field_replaced(self, data):
        name = data.draw(st.sampled_from(sorted(FIELDS)))
        key = data.draw(st.sampled_from(FIELDS[name]))
        _load_rejecting(name, _set(key, data.draw(json_values)))


class TestKfold:
    def test_hundred_subjects_four_per_group(self):
        subjects = [Stub("g%d" % (i % 5)) for i in range(100)]
        folds = stratified_kfold(subjects, k=5, seed=0)
        assert sorted(sum(folds, [])) == list(range(100))
        for fold in folds:
            counts = Counter(subjects[i].group for i in fold)
            assert all(c == 4 for c in counts.values())

    def test_fifty_subjects_two_per_group(self):
        subjects = build_cohort(50, seed=0)
        folds = stratified_kfold(subjects, k=5, seed=1)
        assert sorted(sum(folds, [])) == list(range(50))
        for fold in folds:
            counts = Counter(subjects[i].group for i in fold)
            assert len(counts) == 5 and all(c == 2 for c in counts.values())

    def test_uneven_groups_balanced(self):
        subjects = [Stub("a")] * 7 + [Stub("b")] * 5
        folds = stratified_kfold(subjects, k=3, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 4, 4]

    def test_k1_is_whole_set(self):
        subjects = [Stub("a"), Stub("b")]
        assert stratified_kfold(subjects, k=1, seed=9) == [[0, 1]]

    def test_small_group_raises(self):
        subjects = [Stub("a")] * 6 + [Stub("b")] * 2
        with pytest.raises(StratificationError):
            stratified_kfold(subjects, k=3, seed=0)

    def test_same_seed_same_folds(self):
        subjects = [Stub("g%d" % (i % 3)) for i in range(30)]
        assert stratified_kfold(subjects, 5, seed=4) == stratified_kfold(subjects, 5, seed=4)
        assert stratified_kfold(subjects, 5, seed=4) != stratified_kfold(subjects, 5, seed=5)


class TestFractionSplit:
    def test_partition(self):
        subjects = [Stub("g%d" % (i % 5)) for i in range(40)]
        train, val, test = split_dataset(subjects, 0.7, 0.15, seed=2)
        assert sorted(train + val + test) == list(range(40))
        assert not set(train) & set(val) and not set(val) & set(test)

    def test_seventy_fifteen_fifteen(self):
        subjects = [Stub("g%d" % (i % 5)) for i in range(100)]
        train, val, test = split_dataset(subjects, 0.7, 0.15, seed=0)
        assert (len(train), len(val), len(test)) == (70, 15, 15)

    def test_stratified_per_group(self):
        subjects = [Stub("g%d" % (i % 5)) for i in range(100)]
        train, _, _ = split_dataset(subjects, 0.7, 0.15, seed=0)
        counts = Counter(subjects[i].group for i in train)
        assert all(c == 14 for c in counts.values())

    def test_fraction_overflow(self):
        with pytest.raises(ValueError):
            split_dataset([Stub("a")] * 10, 0.8, 0.4)
