"""Cohort persistence and stratified splitting."""

import contextlib
import os

import numpy as np

from .phantom import PhantomSubject as Subject
from .schema import PRESENT, check, dumps, is_int, optional, read_json, write_file
from .volume import CineVolume, Geometry, LabelMask, load_kind, save_volume

DATASET_MAGIC = "condenseg-dataset"


class StratificationError(ValueError):
    """A pathology group is too small for the requested split."""


_MANIFEST = {"magic": (lambda m: m == DATASET_MAGIC, repr(DATASET_MAGIC)),
             "subjects": (lambda names: isinstance(names, list)
                          and all(isinstance(n, str) and n not in ("", ".", "..")
                                  and os.path.basename(n) == n for n in names)
                          and len(set(names)) == len(names),
                          "a list of distinct subject folder names")}
_STRING = (lambda v: isinstance(v, str), "a string")


def save_dataset(root, subjects):
    """Write one directory per subject plus a manifest listing them.  A name
    that load_dataset's manifest rule rejects raises ValueError before
    anything is written.  The old manifest goes before any subject file and the
    new one is written last, so a save that fails part-way leaves no manifest."""
    if not subjects:
        raise ValueError("refusing to write an empty dataset")
    manifest = check({"magic": DATASET_MAGIC, "version": 1,
                      "subjects": [sub.name for sub in subjects]},
                     _MANIFEST, ValueError, "dataset manifest")
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(root, "manifest.json"))
    for sub in subjects:
        folder = os.path.join(root, sub.name)
        os.makedirs(folder, exist_ok=True)
        save_volume(os.path.join(folder, "cine.bin"), sub.cine)
        save_volume(os.path.join(folder, "ed_mask.bin"), sub.ed_mask)
        save_volume(os.path.join(folder, "es_mask.bin"), sub.es_mask)
        meta = {"name": sub.name, "group": sub.group,
                "ed_frame": sub.ed_frame, "es_frame": sub.es_frame,
                "geometry": sub.geometry.to_dict(), "truth": sub.truth}
        write_file(os.path.join(folder, "meta.json"), [dumps(meta)])
    write_file(os.path.join(root, "manifest.json"), [dumps(manifest)])


def load_dataset(root):
    """Read back what save_dataset wrote, subjects in manifest order.  A bad
    manifest.json or meta.json field (a name not its folder's too) raises
    ValueError naming the file and the field, a cine or mask file holding
    the other kind of volume or a mask whose shape is not its cine's
    (Z, H, W) one naming the file; a listed subject folder that does not
    exist, OSError."""
    path = os.path.join(root, "manifest.json")
    manifest = check(read_json(path, ValueError), _MANIFEST, ValueError, path)
    subjects = []
    for name in manifest["subjects"]:
        folder = os.path.join(root, name)
        meta_path = os.path.join(folder, "meta.json")
        meta = read_json(meta_path, ValueError)
        cine = load_kind(os.path.join(folder, "cine.bin"), CineVolume)
        frame = (lambda t: is_int(t) and 0 <= t < cine.frames, "an int in [0, %d)" % cine.frames)
        check(meta, {"name": (lambda n: n == name, repr(name)), "group": _STRING,
                     "ed_frame": frame, "es_frame": frame, "geometry": PRESENT,
                     "truth": optional((lambda t: isinstance(t, dict), "an object"))},
              ValueError, meta_path)
        cine.geometry = Geometry.from_dict(meta["geometry"], meta_path + " geometry")
        masks = []
        for path in (os.path.join(folder, "ed_mask.bin"), os.path.join(folder, "es_mask.bin")):
            masks.append(load_kind(path, LabelMask))
            if masks[-1].shape != cine.data.shape[1:]:
                raise ValueError("%s: mask shape %s is not its cine's (Z, H, W) %s"
                                 % (path, masks[-1].shape, cine.data.shape[1:]))
        subjects.append(Subject(
            name=name, group=meta["group"], cine=cine,
            ed_frame=meta["ed_frame"], es_frame=meta["es_frame"],
            ed_mask=masks[0], es_mask=masks[1], truth=meta.get("truth", {})))
    return subjects


def _group_indices(subjects):
    groups = {}
    for i, sub in enumerate(subjects):
        groups.setdefault(sub.group, []).append(i)
    return groups


def stratified_kfold(subjects, k=5, seed=0):
    """Split indices into k folds with near-equal group counts each.

    Folds are disjoint, exhaustive, and deterministic for a given seed.
    """
    if k < 1:
        raise ValueError("k must be positive")
    groups = _group_indices(subjects)
    for tag, members in groups.items():
        if len(members) < k:
            raise StratificationError(
                "group %r has %d members, fewer than k=%d" % (tag, len(members), k))
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for offset, tag in enumerate(sorted(groups)):
        members = np.array(groups[tag])
        rng.shuffle(members)
        for i, idx in enumerate(members):
            folds[(i + offset) % k].append(int(idx))
    return [sorted(f) for f in folds]


def check_fractions(train_fraction, val_fraction):
    """Raise ValueError unless 0 < train <= 1, val >= 0 and train + val <= 1."""
    if not 0 < train_fraction <= 1 or val_fraction < 0:
        raise ValueError("split fractions must be positive")
    if train_fraction + val_fraction > 1 + 1e-12:
        raise ValueError("split fractions exceed 1")


def split_dataset(subjects, train_fraction=0.7, val_fraction=0.15, seed=0):
    """Stratified train/val/test index split; the remainder is the test set."""
    check_fractions(train_fraction, val_fraction)
    rng = np.random.default_rng(seed)
    groups = _group_indices(subjects)
    train, val, test = [], [], []
    for tag in sorted(groups):
        members = np.array(groups[tag])
        rng.shuffle(members)
        n = len(members)
        n_train = int(round(train_fraction * n))
        n_val = int(round(val_fraction * n))
        n_train = min(n_train, n)
        n_val = min(n_val, n - n_train)
        train.extend(int(i) for i in members[:n_train])
        val.extend(int(i) for i in members[n_train:n_train + n_val])
        test.extend(int(i) for i in members[n_train + n_val:])
    return sorted(train), sorted(val), sorted(test)
