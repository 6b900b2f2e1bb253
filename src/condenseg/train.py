"""Training loop, evaluation pipeline, and report emission."""

import csv
import dataclasses
import functools
import math
import os
import warnings

import numpy as np

from .clinical import ClinicalReport, SegmentationResult, report
from .dataset import check_fractions, split_dataset
from .lgconv import CondensationSchedule, schedule_stage
from .loss import LossConfig, total_loss
from .metrics import dice_score, hausdorff, pearson
from .net import NetConfig, apply_condensation, build
from .roi import DetectionError, _crop2d, center_box, crop_mask, detect_roi, paste_mask
from .schema import ConfigError, parse, read_config
from .tensor import AdamState, NumericsError, Tensor, _lanes, adam_step
from .volume import LABEL_NAMES, LV, LabelMask


@dataclasses.dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 4
    batches_per_epoch: int = 12
    learning_rate: float = 2e-3
    seed: int = 0
    group_lasso_coefficient: float = 1e-5
    train_fraction: float = 0.7
    val_fraction: float = 0.15
    loss: LossConfig = dataclasses.field(default_factory=LossConfig)
    net: NetConfig = dataclasses.field(default_factory=lambda: NetConfig(input_size=64))

    def validate(self):
        problems = []
        if self.epochs < 1:
            problems.append("epochs must be >= 1")
        if self.seed < 0:
            problems.append("seed must be >= 0, got %d" % self.seed)
        if self.batch_size < 1 or self.batches_per_epoch < 1:
            problems.append("batch counts must be >= 1")
        for name in ("learning_rate", "group_lasso_coefficient"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                problems.append("%s must be finite and nonnegative, got %r" % (name, value))
        try:
            check_fractions(self.train_fraction, self.val_fraction)
        except ValueError as err:
            problems.append(str(err))
        if problems:
            raise ConfigError("; ".join(problems))
        violations = self.net.violations()
        if violations:
            raise ConfigError("; ".join(violations))
        try:
            CondensationSchedule(self.epochs, self.net.condensation_factor)
        except ValueError as err:
            raise ConfigError("epochs: %s" % err) from None

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj):
        cfg = read_config(cls, obj)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path):
        """The config in JSON file `path`; ConfigError naming a file of invalid JSON."""
        with open(path, "rb") as f:
            return cls.from_dict(parse(f.read(), ConfigError, os.fspath(path)))


def normalize_slice(plane):
    """Zero-mean unit-ish variance; keeps constant slices finite."""
    plane = plane.astype(np.float32)
    return (plane - plane.mean()) / (plane.std() + 1e-6)


def cine_box(cine, size):
    """ROI box of a cine volume; the centre box when detection fails."""
    try:
        return detect_roi(cine, size=size)
    except DetectionError:
        return center_box(cine.data.shape[2:], size=size)


def _frame_slices(cine, frame, box, z=slice(None)):
    """The `z` planes of one cine frame, cropped and normalised: (Z,1,h,w) float32."""
    return np.stack([normalize_slice(_crop2d(p, box)) for p in cine.data[frame, z]])[:, None]


def _subject_slices(sub, size, central):
    """One subject's [(images, labels)] of its ED then ES frame."""
    box = cine_box(sub.cine, size)
    mid = sub.cine.slices // 2
    z = slice(mid, mid + 1) if central else slice(None)
    return [(_frame_slices(sub.cine, frame, box, z), crop_mask(mask, box).data[z])
            for frame, mask in ((sub.ed_frame, sub.ed_mask), (sub.es_frame, sub.es_mask))]


def _training_slices(subjects, size, central=False):
    """Crop all annotated frames once; returns (images, labels) arrays.

    With `central` only each subject's middle slice is kept, as validation
    scores it.  The subjects are cropped on the lanes open on this thread,
    or on lanes (`_lanes`) opened for the call, and joined in subject
    order, so the bytes do not depend on W."""
    with _lanes() as pool:
        done = pool.map(functools.partial(_subject_slices, size=size, central=central),
                        subjects)
    pairs = [pair for frames in done for pair in frames]
    return (np.concatenate([images for images, _ in pairs]),
            np.concatenate([labels for _, labels in pairs]))


CHUNK = 8  # most slices per inference forward


def _forward_batches(net, images):
    """Inference over (N,1,H,W); returns the stacked probabilities.

    The W lanes open on this thread, or lanes (`_lanes`) opened for this
    call, share the slices: W*ceil(N/(W*CHUNK)) near-equal
    contiguous chunks (N if fewer), each lane a contiguous run of them
    (`_Lanes.map`), lane 0 the caller.  An eval forward treats each slice
    on its own (per-slice GEMMs, running-stat normalization, per-pixel
    softmax), so the bytes depend neither on W nor on the chunks."""
    n = len(images)
    if n == 0:
        raise ValueError("_forward_batches: the batch has no slices, shape %s" % (images.shape,))
    with _lanes() as pool:
        chunks = np.array_split(images, min(n, pool.count * -(-n // (pool.count * CHUNK))))
        done = pool.map(lambda c: net.forward(Tensor(c.astype(net.dtype)), training=False).data,
                        chunks)
    return np.concatenate(done, axis=0)


def _step(net, params, adam, images, labels, loss_cfg, lasso):
    """One Adam step on a batch; returns its loss.  The step's graph lives in
    this frame alone, so it is freed on return, before the next step's
    forward or a validation pass runs."""
    pred = net.forward(Tensor(images), training=True)
    loss = total_loss(pred, LabelMask(labels), loss_cfg)
    if lasso:
        loss = loss + net.lasso_penalty() * lasso
    value = float(loss.data)
    if not math.isfinite(value):
        raise NumericsError("non-finite loss %r" % value)
    for p in params:
        p.grad = None
    loss.backward()
    adam_step(params, adam)
    return value


def train(subjects, cfg: TrainConfig, val_subjects=None):
    """Fit a network on ED/ES slices of `subjects`.

    When `val_subjects` is None the configured split fractions carve a
    validation set out of `subjects`.  Returns (net, history) where
    history tracks per-epoch loss, validation LV Dice on central slices,
    and the alive parameter count.  Cropping and the epochs run on lanes
    opened once here (`_lanes`, tensor.py): `_training_slices` splits the
    subjects over them, the training ops their samples, and validation's
    `_forward_batches` reuses them.
    Each step runs in `_step`, so no step's graph outlives it: the next
    step's forward and validation start with only the parameters, their
    Adam moments and the data held.
    """
    cfg.validate()
    if not subjects:
        raise ValueError("empty training set")
    if val_subjects is None:
        tr_idx, val_idx, _ = split_dataset(
            subjects, cfg.train_fraction, cfg.val_fraction, seed=cfg.seed)
        val_subjects = [subjects[i] for i in val_idx]
        subjects = [subjects[i] for i in tr_idx]
        if not subjects:
            raise ValueError("split fractions left the training set empty")

    rng = np.random.default_rng(cfg.seed)
    net = build(cfg.net, rng=rng, dtype=np.float32)
    adam = AdamState(learning_rate=cfg.learning_rate)
    sched = CondensationSchedule(cfg.epochs, cfg.net.condensation_factor)

    size = cfg.net.input_size
    params = net.parameters()
    history = {"loss": [], "val_dice": [], "alive_params": [], "condensation": []}
    with _lanes():
        images, labels = _training_slices(subjects, size)
        val_images, val_labels = (_training_slices(val_subjects, size, central=True)
                                  if val_subjects else (None, None))
        for epoch in range(cfg.epochs):
            for name, event in apply_condensation(net, epoch, sched):
                history["condensation"].append(
                    {"epoch": epoch, "layer": name, "stage": event["stage"]})
            # the group lasso acts only while the schedule still condenses
            lasso = (cfg.group_lasso_coefficient
                     if schedule_stage(sched, epoch) < cfg.net.condensation_factor - 1 else 0.0)

            epoch_loss = 0.0
            for step in range(cfg.batches_per_epoch):
                pick = rng.integers(0, len(images), size=cfg.batch_size)
                try:
                    value = _step(net, params, adam, images[pick], labels[pick], cfg.loss, lasso)
                except NumericsError as err:
                    raise NumericsError(
                        "training aborted at epoch %d, batch %d: %s"
                        % (epoch, step, err)) from err
                epoch_loss += value
                net.apply_masks()

            history["loss"].append(epoch_loss / cfg.batches_per_epoch)
            if val_images is not None:
                probs = _forward_batches(net, val_images)
                history["val_dice"].append(
                    dice_score(np.argmax(probs, axis=1), val_labels, LV))
            else:
                history["val_dice"].append(float("nan"))
            history["alive_params"].append(net.param_count("alive"))
    return net, history


# -- evaluation ---------------------------------------------------------


def predict_masks(net, subject):
    """ROI-crop, segment every slice of both annotated frames, paste back.

    With net=None the ground-truth masks pass straight through, which
    exercises the rest of the pipeline with a perfect segmenter.
    """
    if net is None:
        return subject.ed_mask, subject.es_mask
    box = cine_box(subject.cine, net.config.input_size)
    return (segment_frame(net, subject.cine, subject.ed_frame, box),
            segment_frame(net, subject.cine, subject.es_frame, box))


def segment_frame(net, cine, frame, box):
    """Segment every slice of one cine frame inside `box`; returns the
    label mask pasted back to the full slice size."""
    probs = _forward_batches(net, _frame_slices(cine, frame, box))
    pred = LabelMask(np.argmax(probs, axis=1).astype(np.uint8))
    return paste_mask(pred, box, cine.data.shape[2:])


def _report_or_nan(seg):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return report(seg).to_dict()
    except ValueError:
        return {name: float("nan") for name in ClinicalReport.PARAMETERS}


@dataclasses.dataclass
class SubjectResult:
    name: str
    group: str
    dice: dict          # label name -> Dice at ED
    hausdorff_mm: dict  # label name -> worst-slice distance at ED (nan if undefined)
    predicted: dict     # clinical parameter -> value
    reference: dict


@dataclasses.dataclass
class EvalResult:
    subjects: list
    rho: dict
    mean_abs_error: dict
    mean_dice: dict


def evaluate(net, subjects):
    """Full inference pipeline per subject plus cohort-level agreement."""
    if not subjects:
        raise ValueError("nothing to evaluate")
    results = []
    for sub in subjects:
        pred_ed, pred_es = predict_masks(net, sub)
        geometry = sub.geometry
        dice = {}
        hd = {}
        for label, name in enumerate(LABEL_NAMES[1:], start=1):
            dice[name] = dice_score(pred_ed.data, sub.ed_mask.data, label)
            try:
                hd[name] = hausdorff(pred_ed.data, sub.ed_mask.data, label,
                                     geometry.pixel_spacing_mm)
            except ValueError:
                hd[name] = float("nan")
        predicted = _report_or_nan(SegmentationResult(pred_ed, pred_es, geometry))
        reference = _report_or_nan(SegmentationResult(sub.ed_mask, sub.es_mask, geometry))
        predicted = {k: predicted[k] for k in ClinicalReport.PARAMETERS}
        reference = {k: reference[k] for k in ClinicalReport.PARAMETERS}
        results.append(SubjectResult(sub.name, sub.group, dice, hd,
                                     predicted, reference))

    rho, mae = {}, {}
    for param in ClinicalReport.PARAMETERS:
        pairs = [(r.predicted[param], r.reference[param]) for r in results
                 if math.isfinite(r.predicted[param])
                 and math.isfinite(r.reference[param])]
        if len(pairs) >= 2:
            p = np.array([a for a, _ in pairs])
            g = np.array([b for _, b in pairs])
            try:
                rho[param] = pearson(p, g)
            except ValueError:
                rho[param] = float("nan")
            mae[param] = float(np.abs(p - g).mean())
        else:
            rho[param] = float("nan")
            mae[param] = float("nan")

    mean_dice = {}
    for name in LABEL_NAMES[1:]:
        mean_dice[name] = float(np.mean([r.dice[name] for r in results]))
    return EvalResult(results, rho, mae, mean_dice)


def emit_report_csv(result: EvalResult, path):
    """Write per-subject parameter rows plus a *_summary.csv sibling.

    Deterministic: same results produce byte-identical files.
    """
    if not result.subjects:
        raise ValueError("refusing to write an empty report")
    path = os.fspath(path)
    stem, ext = os.path.splitext(path)
    summary_path = stem + "_summary" + (ext or ".csv")

    def fmt(x):
        return "%.10g" % x

    params = ClinicalReport.PARAMETERS
    rows = [["subject", "group", "parameter", "predicted", "ground_truth"]]
    rows += [[res.name, res.group, p, fmt(res.predicted[p]), fmt(res.reference[p])]
             for res in sorted(result.subjects, key=lambda r: r.name) for p in params]
    summary = [["parameter", "rho", "mean_abs_error"]]
    summary += [[p, fmt(result.rho[p]), fmt(result.mean_abs_error[p])] for p in params]
    for target, table in ((path, rows), (summary_path, summary)):
        with open(target, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(table)
    return [path, summary_path]
