"""Print one sha256 per artefact whose bytes the network code fixes.

A change meant to keep every number must print the same lines as its base:

    PYTHONPATH=src python3 tools/digest.py > after.txt
    PYTHONPATH=/path/to/base/src python3 tools/digest.py > before.txt
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
- the (centre, radius, score) that `hough_circle` finds on the saliency map
  of every subject of a 20-phantom cohort;
- every file `save_dataset` writes for a 3-phantom cohort (manifest, meta
  and volume files), each relative path then its bytes, in sorted
  relative-path order (one digest).

Bytes depend on the BLAS thread count, so it is set to 1 before NumPy
loads unless the environment already sets it; compare two trees at the
same count.  The path of the imported package and, at the end, the
process's peak resident set size go to stderr, apart from the lines to
compare: a report, not a check.
"""

import hashlib
import os
import resource
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import condenseg  # noqa: E402
from condenseg.dataset import save_dataset  # noqa: E402
from condenseg.lgconv import CondensationSchedule  # noqa: E402
from condenseg.loss import LossConfig, total_loss  # noqa: E402
from condenseg.net import (NetConfig, apply_condensation, build,  # noqa: E402
                           load_checkpoint, save_checkpoint)
from condenseg.phantom import PhantomSpec, build_cohort, generate_phantom  # noqa: E402
from condenseg.roi import first_harmonic_map, hough_circle  # noqa: E402
from condenseg.tensor import RunningStats, Tensor, scale_shift  # noqa: E402
from condenseg.train import TrainConfig, emit_report_csv, evaluate, train  # noqa: E402
from condenseg.volume import LabelMask  # noqa: E402

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
        apply_condensation(net, 59, CondensationSchedule(60, cfg.condensation_factor))
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
    csv, summary = emit_report_csv(evaluate(net, subs[4:]), os.path.join(tmp, "run.csv"))
    for name, path in (("checkpoint", ckpt), ("eval_csv", csv), ("eval_summary_csv", summary)):
        with open(path, "rb") as f:
            yield "run/" + name, sha(f.read())
    reloaded, _ = load_checkpoint(ckpt)
    x = np.random.default_rng(7).standard_normal((2, 1, 32, 32)).astype(reloaded.dtype)
    yield "run/reloaded_eval_output", sha(reloaded.forward(Tensor(x), training=False).data)


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


def main():
    print("condenseg from %s" % os.path.dirname(condenseg.__file__), file=sys.stderr)
    lines = list(scale_shift_lines())
    lines += [line for dtype in (np.float64, np.float32) for condensed in (False, True)
             for line in net_lines(dtype, condensed)]
    with tempfile.TemporaryDirectory() as tmp:
        lines += determinism_run_lines(tmp)
        lines += roi_lines()
        lines += dataset_lines(tmp)
    for name, digest in lines:
        print("%s  %s" % (digest, name))
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("peak RSS %.1f MB" % peak, file=sys.stderr)


if __name__ == "__main__":
    main()
