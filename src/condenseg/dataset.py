"""Cohort persistence and stratified splitting."""

import json
import os

import numpy as np

from .phantom import PhantomSubject as Subject
from .volume import Geometry, load_volume, save_volume

DATASET_MAGIC = "condenseg-dataset"


class StratificationError(ValueError):
    """A pathology group is too small for the requested split."""


def save_dataset(root, subjects):
    """Write one directory per subject plus a manifest listing them."""
    if not subjects:
        raise ValueError("refusing to write an empty dataset")
    os.makedirs(root, exist_ok=True)
    names = []
    for sub in subjects:
        if sub.name in names:
            raise ValueError("duplicate subject name %r" % sub.name)
        names.append(sub.name)
        folder = os.path.join(root, sub.name)
        os.makedirs(folder, exist_ok=True)
        save_volume(os.path.join(folder, "cine.bin"), sub.cine)
        save_volume(os.path.join(folder, "ed_mask.bin"), sub.ed_mask)
        save_volume(os.path.join(folder, "es_mask.bin"), sub.es_mask)
        truth = dict(sub.truth)
        if "roi_center" in truth:
            truth["roi_center"] = list(truth["roi_center"])
        meta = {"name": sub.name, "group": sub.group,
                "ed_frame": sub.ed_frame, "es_frame": sub.es_frame,
                "geometry": sub.geometry.to_dict(), "truth": truth}
        with open(os.path.join(folder, "meta.json"), "w") as f:
            json.dump(meta, f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
    manifest = {"magic": DATASET_MAGIC, "version": 1, "subjects": names}
    with open(os.path.join(root, "manifest.json"), "w") as f:
        json.dump(manifest, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_dataset(root):
    """Read back what save_dataset wrote; subject order follows the manifest."""
    path = os.path.join(root, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    if manifest.get("magic") != DATASET_MAGIC:
        raise ValueError("%s is not a dataset manifest" % path)
    subjects = []
    for name in manifest["subjects"]:
        folder = os.path.join(root, name)
        with open(os.path.join(folder, "meta.json")) as f:
            meta = json.load(f)
        truth = meta.get("truth", {})
        if "roi_center" in truth:
            truth["roi_center"] = tuple(truth["roi_center"])
        cine = load_volume(os.path.join(folder, "cine.bin"))
        cine.geometry = Geometry.from_dict(meta["geometry"])
        subjects.append(Subject(
            name=meta["name"], group=meta["group"], cine=cine,
            ed_frame=meta["ed_frame"], es_frame=meta["es_frame"],
            ed_mask=load_volume(os.path.join(folder, "ed_mask.bin")),
            es_mask=load_volume(os.path.join(folder, "es_mask.bin")),
            truth=truth))
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
