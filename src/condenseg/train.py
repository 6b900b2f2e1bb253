"""Training loop, evaluation pipeline, and report emission."""

import dataclasses
import json
import math
import os
import warnings

import numpy as np

from .clinical import ClinicalReport, SegmentationResult, report
from .dataset import check_fractions, split_dataset
from .lgconv import CondensationSchedule, schedule_stage
from .loss import LossConfig, total_loss
from .metrics import dice_score, hausdorff, pearson
from .net import ConfigError, NetConfig, _check_fields, apply_condensation, build
from .roi import DetectionError, _crop2d, center_box, crop_mask, detect_roi, paste_mask
from .tensor import AdamState, NumericsError, Tensor, adam_step
from .volume import LV, LabelMask


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
        if self.batch_size < 1 or self.batches_per_epoch < 1:
            problems.append("batch counts must be >= 1")
        if self.learning_rate < 0:
            problems.append("learning_rate must be nonnegative")
        if self.group_lasso_coefficient < 0:
            problems.append("group_lasso_coefficient must be nonnegative")
        try:
            check_fractions(self.train_fraction, self.val_fraction)
        except ValueError as err:
            problems.append(str(err))
        if problems:
            raise ConfigError("; ".join(problems))
        violations = self.net.violations()
        if violations:
            raise ConfigError("; ".join(violations))

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["loss"] = dataclasses.asdict(self.loss)
        out["net"] = self.net.to_dict()
        return out

    @classmethod
    def from_dict(cls, obj):
        obj = dict(obj)
        _check_fields(cls, obj, "config")
        if "loss" in obj:
            obj["loss"] = LossConfig(**_check_fields(LossConfig, obj["loss"], "loss config"))
        if "net" in obj:
            obj["net"] = NetConfig.from_dict(obj["net"])
        cfg = cls(**obj)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path):
        with open(path) as f:
            return cls.from_dict(json.load(f))


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


def _training_slices(subjects, size, central=False):
    """Crop all annotated frames once; returns (images, labels) arrays.

    With `central` only each subject's middle slice is kept, as validation
    scores it."""
    images, labels = [], []
    for sub in subjects:
        box = cine_box(sub.cine, size)
        mid = sub.cine.slices // 2
        z = slice(mid, mid + 1) if central else slice(None)
        for frame, mask in ((sub.ed_frame, sub.ed_mask), (sub.es_frame, sub.es_mask)):
            images.append(_frame_slices(sub.cine, frame, box, z))
            labels.append(crop_mask(mask, box).data[z])
    return np.concatenate(images), np.concatenate(labels)


CHUNK = 8  # slices per inference forward


def _forward_batches(net, images):
    """Inference over (N,1,H,W) in chunks of CHUNK; returns stacked probabilities."""
    outs = []
    for i in range(0, len(images), CHUNK):
        x = Tensor(images[i:i + CHUNK].astype(net.dtype), requires_grad=False)
        outs.append(net.forward(x, training=False).data)
    return np.concatenate(outs, axis=0)


def train(subjects, cfg: TrainConfig, val_subjects=None):
    """Fit a network on ED/ES slices of `subjects`.

    When `val_subjects` is None the configured split fractions carve a
    validation set out of `subjects`.  Returns (net, history) where
    history tracks per-epoch loss, validation LV Dice on central slices,
    and the alive parameter count.
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
    images, labels = _training_slices(subjects, size)
    val_images, val_labels = (_training_slices(val_subjects, size, central=True)
                              if val_subjects else (None, None))

    params = net.parameters()
    history = {"loss": [], "val_dice": [], "alive_params": [], "condensation": []}

    for epoch in range(cfg.epochs):
        for name, event in apply_condensation(net, epoch, sched):
            history["condensation"].append(
                {"epoch": epoch, "layer": name, "stage": event["stage"]})
        condensing = schedule_stage(sched, epoch) < cfg.net.condensation_factor - 1

        epoch_loss = 0.0
        for step in range(cfg.batches_per_epoch):
            pick = rng.integers(0, len(images), size=cfg.batch_size)
            x = Tensor(images[pick], requires_grad=False)
            y = LabelMask(labels[pick])
            try:
                pred = net.forward(x, training=True)
                loss = total_loss(pred, y, cfg.loss)
                if condensing and cfg.group_lasso_coefficient:
                    loss = loss + net.lasso_penalty() * cfg.group_lasso_coefficient
                value = float(loss.data)
                if not math.isfinite(value):
                    raise NumericsError("non-finite loss %r" % value)
                for p in params:
                    p.grad = None
                loss.backward()
                adam_step(params, adam)
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
        for label, name in ((1, "rv"), (2, "myocardium"), (3, "lv")):
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
    for name in ("rv", "myocardium", "lv"):
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

    lines = ["subject,group,parameter,predicted,ground_truth"]
    for res in sorted(result.subjects, key=lambda r: r.name):
        for param in ClinicalReport.PARAMETERS:
            lines.append(",".join([res.name, res.group, param,
                                   fmt(res.predicted[param]),
                                   fmt(res.reference[param])]))
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")

    lines = ["parameter,rho,mean_abs_error"]
    for param in ClinicalReport.PARAMETERS:
        lines.append(",".join([param, fmt(result.rho[param]),
                               fmt(result.mean_abs_error[param])]))
    with open(summary_path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")
    return [path, summary_path]
