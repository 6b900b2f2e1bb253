"""Print one sha256 per artefact whose bytes the network code fixes.

A change meant to keep every number must print the same lines as its base,
each tree running its own copy of this script:

    PYTHONPATH=src python3 tools/digest.py > after.txt
    PYTHONPATH=/path/to/base/src python3 /path/to/base/tools/digest.py > before.txt
    diff before.txt after.txt

Artefacts, one line each:
- float32 `scale_shift` on a seeded batch: the training-mode output, its
  gradients for x, gamma and beta, and the inference-mode output with the
  running stats that training pass left (one digest);
- for seeded float64 and float32 nets, dense and after full condensation:
  the training-mode output, the loss with its group-lasso term, every
  parameter gradient (one digest over all of them, in parameter order) and
  the eval-mode output;
- a training run in the determinism criterion's configuration: its
  checkpoint file, its two eval CSVs, and the eval-mode output of the
  checkpoint after a reload;
- the files the CLI writes for the first validation subject of that run,
  with its checkpoint: `condenseg roi --saliency`'s JSON and PGM, the ED
  and ES masks of `condenseg segment`, and `condenseg params`'s JSON of
  those two masks, each file name then its bytes (one digest; the
  commands' standard output is left out);
- the float64 bytes of every Dice and Hausdorff distance that run's
  `evaluate` reports, then of `hausdorff` between each ED mask of a
  12-phantom cohort and its ES mask, and between it and itself rolled one
  pixel along a row, for labels 1-3 at the cohort's pixel spacing (one
  digest);
- the (centre, radius, score) that `hough_circle` finds on the saliency map
  of every subject of a 20-phantom cohort;
- every file `save_dataset` writes for a 3-phantom cohort (manifest, meta
  and volume files), each relative path then its bytes, in sorted
  relative-path order (one digest); then what `load_dataset` reads back from
  them, per subject in manifest order its name, group, frames, geometry and
  truth as JSON, then its cine and mask bytes (one digest);
- the images and labels `_training_slices` crops from a 7-phantom cohort:
  the training set's every slice of 5 subjects, then the central slices of
  the other 2 as validation takes them (one digest);
- the float64 bytes of every Dice, Hausdorff distance and predicted and
  reference clinical parameter of each subject, then of every correlation,
  mean absolute error and mean Dice, that `evaluate(None, ...)` reports for
  a 12-phantom cohort scored against its own ground truth (one digest).

Bytes depend on the BLAS thread count, so it is set to 1 before NumPy
loads unless the environment already sets it; compare two trees at the
same count.  The path of the imported package and, at the end, the
process's peak resident set size and then the `tracemalloc` peak of one
training step go to stderr, apart from the lines to compare: a report, not
a check.  That step is the second `train._step` (the first fills Adam's
moments) of the default net at 64x64, float32, batch 4, lasso off.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import sys
import tempfile
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import condenseg  # noqa: E402
from condenseg.cli import main as cli_main  # noqa: E402
from condenseg.clinical import ClinicalReport  # noqa: E402
from condenseg.dataset import load_dataset, save_dataset  # noqa: E402
from condenseg.loss import LossConfig, total_loss  # noqa: E402
from condenseg.metrics import hausdorff  # noqa: E402
from condenseg.net import (NetConfig, apply_condensation, build,  # noqa: E402
                           load_checkpoint, save_checkpoint)
from condenseg.phantom import PhantomSpec, build_cohort, generate_phantom  # noqa: E402
from condenseg.roi import first_harmonic_map, hough_circle  # noqa: E402
from condenseg.tensor import AdamState, RunningStats, Tensor, scale_shift  # noqa: E402
from condenseg.train import (TrainConfig, _step, _training_slices,  # noqa: E402
                             emit_report_csv, evaluate, train)
from condenseg.volume import LABEL_NAMES, LabelMask, save_volume  # noqa: E402

LASSO = 1e-5


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a if isinstance(a, bytes) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def scale_shift_lines():
    rng = np.random.default_rng(8)
    f32 = np.float32
    x = Tensor(rng.normal(0.5, 2.0, (4, 6, 8, 8)).astype(f32), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 6).astype(f32), requires_grad=True)
    beta = Tensor(rng.normal(size=6).astype(f32), requires_grad=True)
    running = RunningStats(6, dtype=f32)
    out = scale_shift(x, gamma, beta, running=running)
    (out * Tensor(rng.standard_normal(x.shape).astype(f32))).sum().backward()
    x_eval = Tensor(rng.normal(0.5, 2.0, x.shape).astype(f32))
    infer = scale_shift(x_eval, gamma, beta, training=False, running=running)
    yield "tensor/scale_shift", sha(out.data, x.grad, gamma.grad, beta.grad, infer.data)


def net_lines(dtype, condensed):
    tag = "%s/%s" % (np.dtype(dtype).name, "condensed" if condensed else "dense")
    cfg = NetConfig(input_size=32)
    net = build(cfg, rng=np.random.default_rng(5), dtype=dtype)
    if condensed:
        apply_condensation(net, cfg.condensation_factor - 1)
    rng = np.random.default_rng(6)
    x, x_eval = (Tensor(rng.standard_normal((2, 1, 32, 32)).astype(dtype)) for _ in "ab")
    y = LabelMask(rng.integers(0, cfg.num_classes, (2, 32, 32)).astype(np.uint8))
    out = net.forward(x, training=True)
    loss = total_loss(out, y, LossConfig()) + net.lasso_penalty() * LASSO
    loss.backward()
    params = net.parameters()
    yield tag + "/train_output", sha(out.data)
    yield tag + "/loss", sha(loss.data)
    yield tag + "/gradients", sha(*(p.grad for p in params))
    yield tag + "/eval_output", sha(net.forward(x_eval, training=False).data)


def determinism_run_lines(tmp):
    """The determinism criterion's run, once."""
    spec = PhantomSpec(image_size=64, frames=4, slices=3,
                       endo_radius_px=(7.0, 8.5), wall_px=(2.5, 3.0),
                       contraction=(0.3, 0.4), center_jitter_px=2)
    subs = [generate_phantom(spec, 700 + i, name="s%02d" % i) for i in range(6)]
    cfg = TrainConfig(epochs=4, batch_size=2, batches_per_epoch=3, seed=13,
                      net=NetConfig(input_size=32, layers_per_block=(1, 1, 2, 1, 1),
                                    pool_layers=2, condensation_factor=2))
    net, history = train(subs[:4], cfg, val_subjects=subs[4:])
    ckpt = os.path.join(tmp, "run.ckpt")
    save_checkpoint(net, ckpt, epoch=cfg.epochs,
                    extra={"train_config": cfg.to_dict(), "run_history": history})
    result = evaluate(net, subs[4:])
    csv, summary = emit_report_csv(result, os.path.join(tmp, "run.csv"))
    for name, path in (("checkpoint", ckpt), ("eval_csv", csv), ("eval_summary_csv", summary)):
        with open(path, "rb") as f:
            yield "run/" + name, sha(f.read())
    yield "metrics/evaluate", metrics_digest(result)
    reloaded, _ = load_checkpoint(ckpt)
    x = np.random.default_rng(7).standard_normal((2, 1, 32, 32)).astype(reloaded.dtype)
    yield "run/reloaded_eval_output", sha(reloaded.forward(Tensor(x), training=False).data)
    yield "cli/files", cli_files_digest(os.path.join(tmp, "cli"), ckpt, subs[4])


def metrics_digest(result):
    """Digest of `result`'s Dice and Hausdorff figures, then of Hausdorff
    distances between the ED mask of each of 12 phantoms and its ES mask and
    its one-pixel roll."""
    values = [fig[name] for sub in result.subjects for fig in (sub.dice, sub.hausdorff_mm)
              for name in LABEL_NAMES[1:]]
    for sub in build_cohort(12, seed=19):
        ed = sub.ed_mask.data
        values += [hausdorff(ed, other, label, sub.geometry.pixel_spacing_mm)
                   for label in (1, 2, 3) for other in (sub.es_mask.data, np.roll(ed, 1, axis=-1))]
    return sha(np.array(values, dtype=np.float64))


def cli_files_digest(folder, ckpt, sub):
    """Digest of what `roi --saliency`, `segment` (ED, ES) and `params` write for `sub`."""
    os.mkdir(folder)
    at = functools.partial(os.path.join, folder)
    save_volume(at("cine.bin"), sub.cine)
    with open(at("geom.json"), "w") as f:
        json.dump(sub.geometry.to_dict(), f)
    commands = [["roi", "--in", at("cine.bin"), "--out", at("roi.json"),
                 "--saliency", at("saliency.pgm")]]
    commands += [["segment", "--ckpt", ckpt, "--in", at("cine.bin"), "--out", at(name),
                  "--frame", str(frame)]
                 for name, frame in (("ed.bin", sub.ed_frame), ("es.bin", sub.es_frame))]
    commands += [["params", "--ed", at("ed.bin"), "--es", at("es.bin"),
                  "--geom", at("geom.json"), "--out", at("params.json")]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            cli_main(argv)
    blobs = []
    for name in ("roi.json", "saliency.pgm", "ed.bin", "es.bin", "params.json"):
        with open(at(name), "rb") as f:
            blobs += [name.encode(), f.read()]
    return sha(*blobs)


def evaluate_truth_lines():
    result = evaluate(None, build_cohort(12, seed=23))
    params, names = ClinicalReport.PARAMETERS, LABEL_NAMES[1:]
    values = [table[key] for sub in result.subjects
              for table, keys in ((sub.dice, names), (sub.hausdorff_mm, names),
                                  (sub.predicted, params), (sub.reference, params))
              for key in keys]
    values += [result.rho[p] for p in params] + [result.mean_abs_error[p] for p in params]
    values += [result.mean_dice[name] for name in names]
    yield "metrics/evaluate_truth", sha(np.array(values, dtype=np.float64))


def roi_lines():
    votes = [hough_circle(first_harmonic_map(sub.cine).sum(axis=0))
             for sub in build_cohort(20, seed=7)]
    yield "roi/hough", sha(np.array([(cx, cy, r, score) for (cx, cy), r, score in votes]))


def dataset_lines(tmp):
    root = os.path.join(tmp, "cohort")
    save_dataset(root, build_cohort(3, seed=11))
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, names in os.walk(root) for f in names)
    blobs = []
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as f:
            blobs += [rel.encode(), f.read()]
    yield "dataset/files", sha(*blobs)
    blobs = []
    for sub in load_dataset(root):
        fields = [sub.name, sub.group, sub.ed_frame, sub.es_frame, sub.geometry.to_dict(),
                  sub.truth]
        blobs += [json.dumps(fields, sort_keys=True).encode(),
                  sub.cine.data, sub.ed_mask.data, sub.es_mask.data]
    yield "dataset/loaded", sha(*blobs)


def training_slices_lines():
    subs = build_cohort(7, seed=17)
    yield "train/training_slices", sha(*_training_slices(subs[:5], 64),
                                       *_training_slices(subs[5:], 64, central=True))


def step_peak_mib():
    """Traced peak, in MiB, of the second training step of the default net at
    64x64, float32, batch 4, lasso off."""
    net = build(NetConfig(input_size=64), rng=np.random.default_rng(5), dtype=np.float32)
    rng = np.random.default_rng(6)
    images = rng.standard_normal((4, 1, 64, 64)).astype(np.float32)
    labels = rng.integers(0, net.config.num_classes, (4, 64, 64)).astype(np.uint8)
    args = (net, net.parameters(), AdamState(), images, labels, LossConfig(), 0.0)
    _step(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _step(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def main():
    print("condenseg from %s" % os.path.dirname(condenseg.__file__), file=sys.stderr)
    lines = list(scale_shift_lines())
    lines += [line for dtype in (np.float64, np.float32) for condensed in (False, True)
             for line in net_lines(dtype, condensed)]
    with tempfile.TemporaryDirectory() as tmp:
        lines += determinism_run_lines(tmp)
        lines += roi_lines()
        lines += dataset_lines(tmp)
    lines += training_slices_lines()
    lines += evaluate_truth_lines()
    for name, digest in lines:
        print("%s  %s" % (digest, name))
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("peak RSS %.1f MB" % peak, file=sys.stderr)
    print("traced training step peak %.1f MiB" % step_peak_mib(), file=sys.stderr)


if __name__ == "__main__":
    main()
