"""The three benchmark workloads; run.py starts each in its own process.

    python3 perfbench/workloads.py --workload train --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object: correct, attempted,
failed, metrics (end-to-end with --trace 0, per-layer with --trace 1),
plus the machine it ran on and the workload's figures under the names
used in perfbench/README.md.  The BLAS thread count is fixed by run.py
through the environment before NumPy loads.
"""

import time

T_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

C = {name: importlib.import_module("condenseg." + name) for name in spans.LAYERS}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Input make-up of every workload.  "tiny" is for perfbench/smoke.py only:
# it keeps every code path and check but drops the quality floors, which
# a network trained for six steps cannot meet.
PROFILES = {
    "full": {
        # the criterion-8 cohort with the schedule cut to 6 epochs: stages
        # fire at epochs 1, 2 and 3, so epochs 3-5 run fully condensed
        "train": dict(subjects=50, folds=5, input=64, epochs=6, batches=3, batch=4,
                      setup_repeats=3, dice_floor=0.3),
        # 32 steps, condensing at epochs 1, 2 and 4.  The floors catch a
        # network that stopped learning; perfbench/README.md lists the
        # figures seen, which they sit well below
        "infer": dict(subjects=50, folds=5, input=64, epochs=8, batches=4, batch=4,
                      setup_repeats=1, lv_dice_floor=0.85, ef_rho_floor=0.5),
        # 60 subjects: ROI misses (about 1 in 200) stay far from 5%
        "cohort": dict(subjects=60, setup_repeats=1),
    },
    "tiny": {
        "train": dict(subjects=10, folds=2, input=32, epochs=6, batches=1, batch=2,
                      setup_repeats=1, dice_floor=0.0),
        "infer": dict(subjects=10, folds=2, input=32, epochs=6, batches=1, batch=2,
                      setup_repeats=1, lv_dice_floor=0.0, ef_rho_floor=-1.0),
        "cohort": dict(subjects=5, setup_repeats=1),
    },
}

ROI_TOL_PX = 3
ROI_HIT_SHARE = 0.95
EF_TOL_PP = 0.5
CHUNK = 8  # slices per inference forward, as condenseg.train._forward_batches


class Run:
    """Operation counts, check outcomes and spans of one workload process."""

    def __init__(self, tracer, seed, work):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failed checks, tied to an operation or not
        self.quality = {}  # figures the quality floors are checked on
        self.tracer = tracer
        self.seed = seed
        self.work = work

    def ops(self, count, failed=0):
        self.attempted += count
        self.failed += failed

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
            print("CHECK FAILED: " + message, file=sys.stderr)
        return ok

    def quiet(self):
        """No spans from the benchmark's own checks."""
        return self.tracer.paused()


def _report_exception(what):
    print("operation failed: %s" % what, file=sys.stderr)
    traceback.print_exc()


def _fold_split(p, seed):
    subjects = C["phantom"].build_cohort(p["subjects"], seed=seed)
    folds = C["dataset"].stratified_kfold(subjects, k=p["folds"], seed=seed)
    held_out = [subjects[i] for i in folds[0]]
    training = [subjects[i] for fold in folds[1:] for i in fold]
    cfg = C["train"].TrainConfig(seed=seed, epochs=p["epochs"], batch_size=p["batch"],
                                 batches_per_epoch=p["batches"],
                                 net=C["net"].NetConfig(input_size=p["input"]))
    return training, held_out, cfg


def _roi_box(cine, size):
    """The crop window the pipeline uses for a subject (detected or centred)."""
    roi = C["roi"]
    r_min, r_max = roi.radius_band(cine.data.shape[2:])
    try:
        return roi.detect_roi(cine, r_min=r_min, r_max=r_max, size=size)
    except roi.DetectionError:
        return roi.center_box(cine.data.shape[2:], size=size)


def _crop(plane, box):
    x0, y0 = box.corner
    px, py = box.pad
    out = plane[..., y0:y0 + box.size - py, x0:x0 + box.size - px]
    return np.pad(out, [(0, 0)] * (plane.ndim - 2) + [(0, py), (0, px)])


def _dice(a, b, label):
    sa, sb = a == label, b == label
    denom = int(sa.sum()) + int(sb.sum())
    return 1.0 if denom == 0 else 2.0 * int((sa & sb).sum()) / denom


def _lv_ml(mask, geometry):
    sx, sy = geometry.pixel_spacing_mm
    step = geometry.slice_thickness_mm + geometry.slice_gap_mm
    return int((mask == C["volume"].LV).sum()) * sx * sy * step / 1000.0


# -- train ----------------------------------------------------------------


def train_setup(p, seed, run):
    return _fold_split(p, seed)


def train_round(state, p, run):
    training, held_out, cfg = state
    steps = cfg.epochs * cfg.batches_per_epoch
    mark = len(run.tracer.spans)
    t0 = time.perf_counter()
    try:  # what `condenseg train` does: train, then save the checkpoint
        net, history = C["train"].train(training, cfg, val_subjects=held_out)
        C["net"].save_checkpoint(net, os.path.join(run.work, "model.ckpt"), epoch=cfg.epochs)
    except Exception:
        _report_exception("train() or save_checkpoint")
        run.ops(steps, steps)
        return None
    round_s = time.perf_counter() - t0
    run.ops(steps)
    new = run.tracer.spans[mark:]
    dense, condensed = spans.step_times(new)
    with run.quiet():
        train_checks(net, history, held_out, cfg, p, run)
    return {"round_s": round_s,
            "stage_a_ms": statistics.median(dense),
            "stage_b_ms": statistics.median(condensed),
            "stage_c_ms": statistics.median(spans.validation_ms(new))}


def train_checks(net, history, held_out, cfg, p, run):
    losses = history["loss"]
    run.check(all(math.isfinite(v) for v in losses) and losses[-1] < losses[0],
              "training loss not finite or not falling: %s" % losses)
    for lg in net.lg_layers():
        want = math.ceil(lg.in_channels / lg.condensation_factor)
        run.check(lg.alive_per_group() == [want] * lg.groups,
                  "%s alive per group %s, schedule implies %d"
                  % (lg.name, lg.alive_per_group(), want))
        run.check(not np.any(lg.kernel.data[lg.mask == 0]),
                  "%s has nonzero pruned weights" % lg.name)
    # final validation LV Dice, recomputed from the analytic masks the
    # same way train() samples them: central slice of ED and ES
    images, labels = [], []
    for sub in held_out:
        box = _roi_box(sub.cine, cfg.net.input_size)
        mid = sub.cine.data.shape[1] // 2
        for frame, mask in ((sub.ed_frame, sub.ed_mask), (sub.es_frame, sub.es_mask)):
            plane = _crop(sub.cine.data[frame][mid], box).astype(np.float32)
            images.append((plane - plane.mean()) / (plane.std() + 1e-6))
            labels.append(_crop(mask.data[mid], box))
    pred = _predict(net, np.stack(images)[:, None])
    dice = _dice(pred, np.stack(labels), C["volume"].LV)
    run.quality["val_lv_dice"] = dice
    run.check(dice == history["val_dice"][-1],
              "recomputed val LV Dice %.6f != train's %.6f" % (dice, history["val_dice"][-1]))
    run.check(dice >= p["dice_floor"],
              "val LV Dice %.4f below floor %.2f" % (dice, p["dice_floor"]))


def _predict(net, images):
    out = []
    for i in range(0, len(images), CHUNK):
        x = C["tensor"].Tensor(images[i:i + CHUNK].astype(net.dtype))
        out.append(np.argmax(net.forward(x, training=False).data, axis=1))
    return np.concatenate(out)


# -- infer ----------------------------------------------------------------


def infer_setup(p, seed, run):
    training, held_out, cfg = _fold_split(p, seed)
    net, _ = C["train"].train(training, cfg, val_subjects=[])
    ckpt = os.path.join(run.work, "model.ckpt")
    C["net"].save_checkpoint(net, ckpt, epoch=cfg.epochs)
    cines = []
    for sub in held_out:
        cines.append((sub, os.path.join(run.work, sub.name + ".cine.bin")))
        C["volume"].save_volume(cines[-1][1], sub.cine)
    with run.quiet():
        compact_check(net, seed, run)
    return cfg, ckpt, cines


def compact_check(net, seed, run):
    """Every trained LG layer's compact form matches its masked dense forward."""
    lgc, tensor = C["lgconv"], C["tensor"]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for lg in net.lg_layers():
        x = rng.standard_normal((2, lg.in_channels, 12, 12)).astype(net.dtype)
        dense = lgc.lg_forward(lg, tensor.Tensor(x), padding=1).data
        compact = lgc.to_inference(lg).forward(x, padding=1)
        worst = max(worst, float(np.abs(dense - compact).max()))
    run.check(worst < tensor.INFERENCE_MATCH_TOL,
              "compact vs dense LG forward differ by %.3g" % worst)


@contextlib.contextmanager
def _capture(module, attr):
    """Record the return values of module.attr while inside the block."""
    original = getattr(module, attr)
    outputs = []

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        outputs.append(out)
        return out

    setattr(module, attr, recording)
    try:
        yield outputs
    finally:
        setattr(module, attr, original)


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def infer_round(state, p, run):
    """Per held-out subject: evaluate it, segment its volume, load the
    checkpoint again.  Interleaving spreads every stage's samples over the
    whole round, so one slow spell of the machine cannot dominate a stage."""
    cfg, ckpt, cines = state
    n = len(cines)
    loads, evals, calls, lv_dice, ef = [], [], [], [], []
    bad = 0
    try:
        (net, _), dt = _timed(C["net"].load_checkpoint, ckpt)
    except Exception:
        _report_exception("load_checkpoint")
        run.ops(2 * n, 2 * n)
        return None
    loads.append(dt)
    for sub, path in cines:
        try:
            with _capture(C["train"], "predict_masks") as masks:
                result, dt = _timed(C["train"].evaluate, net, [sub])
        except Exception:
            _report_exception("evaluate %s" % sub.name)
            bad += 1
        else:
            evals.append(dt)
            with run.quiet():
                bad += not evaluate_ok(sub, result.subjects[0], masks[0], run, lv_dice, ef)
        out = path + ".mask.bin"
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code, dt = _timed(C["cli"].main, ["segment", "--ckpt", ckpt, "--in", path,
                                                  "--out", out, "--frame", str(sub.ed_frame)])
        except Exception:
            _report_exception("segment %s" % sub.name)
            bad += 1
        else:
            calls.append(dt)
            with run.quiet():
                bad += code != 0 or not segment_ok(path, out, cfg, run)
        (net, _), dt = _timed(C["net"].load_checkpoint, ckpt)
        loads.append(dt)
    run.ops(2 * n, bad)
    with run.quiet():
        quality_floors(lv_dice, ef, p, run)
    if not evals or not calls:
        return None
    return {"round_s": sum(loads) + sum(evals) + sum(calls),
            "stage_a_ms": 1000.0 * sum(evals) / len(evals),
            "stage_b_ms": 1000.0 * statistics.median(calls) / cines[0][0].cine.slices,
            "stage_c_ms": 1000.0 * statistics.median(loads)}


def segment_ok(cine_path, mask_path, cfg, run):
    vol = C["volume"]
    mask = vol.load_volume(mask_path).data
    box = _roi_box(vol.load_volume(cine_path), cfg.net.input_size)
    x0, y0 = box.corner
    outside = mask.copy()
    outside[:, y0:y0 + box.size, x0:x0 + box.size] = 0
    return run.check(not outside.any(),
                     "%s: segment labels outside its ROI box" % mask_path)


def evaluate_ok(sub, res, masks, run, lv_dice, ef):
    """evaluate's Dice and LV volumes for one subject equal a plain NumPy
    recomputation from predict_masks' output.  Appends the subject's LV
    Dice and (predicted, analytic) EF for the quality floors."""
    ed, es = masks
    dice = {name: _dice(ed.data, sub.ed_mask.data, label)
            for label, name in ((1, "rv"), (2, "myocardium"), (3, "lv"))}
    edv, esv = _lv_ml(ed.data, sub.geometry), _lv_ml(es.data, sub.geometry)
    lv_dice.append(dice["lv"])
    ef.append((100.0 * (edv - esv) / edv if edv else float("nan"), sub.truth["ef_percent"]))
    same = (res.name == sub.name and dice == res.dice
            and math.isclose(edv, res.predicted["lv_edv_ml"], rel_tol=1e-12)
            and math.isclose(esv, res.predicted["lv_esv_ml"], rel_tol=1e-12))
    return run.check(same, "%s: evaluate disagrees with recomputed Dice/volumes" % sub.name)


def quality_floors(lv_dice, ef, p, run):
    """Held-out mean LV Dice and EF Pearson rho against the analytic truth."""
    mean_dice = float(np.mean(lv_dice)) if lv_dice else float("nan")
    rho = float(np.corrcoef(np.array(ef).T)[0, 1]) if len(ef) > 1 else float("nan")
    run.quality.update(lv_dice=mean_dice, ef_rho=rho)
    run.check(mean_dice >= p["lv_dice_floor"],
              "held-out LV Dice %.4f below floor %.2f" % (mean_dice, p["lv_dice_floor"]))
    run.check(rho >= p["ef_rho_floor"],
              "EF Pearson rho %.4f below floor %.2f" % (rho, p["ef_rho_floor"]))


# -- cohort ---------------------------------------------------------------


def cohort_setup(p, seed, run):
    return os.path.join(run.work, "cohort")


def cohort_round(state, p, run):
    root, n, seed = state, p["subjects"], run.seed
    shutil.rmtree(root, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        subjects = C["phantom"].build_cohort(n, seed=seed)
        C["dataset"].save_dataset(root, subjects)
        loaded = C["dataset"].load_dataset(root)
        build_s = time.perf_counter() - t0
    except Exception:
        _report_exception("cohort build / save / load")
        run.ops(3 * n, 3 * n)
        return None
    # ROI detection and ground-truth evaluation alternate per subject, so
    # their samples share the whole stretch of the round
    roi_s, eval_s, boxes, results = [], [], [], []
    for sub in loaded:
        t = time.perf_counter()
        try:
            boxes.append(C["roi"].detect_roi(sub.cine))
        except Exception:
            _report_exception("detect_roi %s" % sub.name)
            boxes.append(None)
        roi_s.append(time.perf_counter() - t)
        t = time.perf_counter()
        try:
            results.append(C["train"].evaluate(None, [sub]).subjects[0])
        except Exception:
            _report_exception("evaluate(None) %s" % sub.name)
            results.append(None)
        eval_s.append(time.perf_counter() - t)
    with run.quiet():
        failed = cohort_checks(subjects, loaded, boxes, results, run)
    run.ops(3 * n, failed)
    return {"round_s": build_s + sum(roi_s) + sum(eval_s),
            "stage_a_ms": 1000.0 * build_s / n,
            "stage_b_ms": 1000.0 * sum(roi_s) / n,
            "stage_c_ms": 1000.0 * sum(eval_s) / n}


def _same_subject(a, b):
    return (a.name == b.name and a.group == b.group and a.ed_frame == b.ed_frame
            and a.es_frame == b.es_frame and a.truth == b.truth
            and a.geometry.to_dict() == b.geometry.to_dict()
            and all(x.dtype == y.dtype and x.shape == y.shape
                    and x.tobytes() == y.tobytes()
                    for x, y in ((a.cine.data, b.cine.data),
                                 (a.ed_mask.data, b.ed_mask.data),
                                 (a.es_mask.data, b.es_mask.data))))


def cohort_checks(subjects, loaded, boxes, results, run):
    """Returns the number of failed operations (phantom, ROI, GT evaluation)."""
    failed = 0
    for a, b in zip(subjects, loaded):
        failed += not run.check(_same_subject(a, b), "%s: dataset round trip differs" % a.name)
    failed += sum(box is None for box in boxes)
    hits = 0
    for sub, box in zip(subjects, boxes):
        if box is None:
            continue
        cx, cy = sub.truth["roi_center"]
        hits += (abs(box.center[0] - cx) <= ROI_TOL_PX and abs(box.center[1] - cy) <= ROI_TOL_PX
                 and abs(box.radius - sub.truth["roi_radius_px"]) <= ROI_TOL_PX)
    run.quality["roi_hit_share"] = hits / len(subjects)
    run.check(hits >= ROI_HIT_SHARE * len(subjects),
              "ROI within %d px on %d of %d subjects" % (ROI_TOL_PX, hits, len(subjects)))
    for sub, res in zip(subjects, results):
        ok = (res is not None and res.name == sub.name
              and all(v == 1.0 for v in res.dice.values())
              and all(v == 0.0 for v in res.hausdorff_mm.values())
              and abs(res.reference["ef_percent"] - sub.truth["ef_percent"]) <= EF_TOL_PP)
        failed += not run.check(ok, "%s: ground-truth evaluation off" % sub.name)
    return failed


WORKLOADS = {
    "train": (train_setup, train_round),
    "infer": (infer_setup, infer_round),
    "cohort": (cohort_setup, cohort_round),
}
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s",
              "stage_a_ms": "ms", "stage_b_ms": "ms", "stage_c_ms": "ms"}
NAMED = {  # the same figures under their per-workload names
    "train": {"train_s": ("round_s", 1.0, "s"),
              "step_ms_dense": ("stage_a_ms", 1.0, "ms"),
              "step_ms_condensed": ("stage_b_ms", 1.0, "ms"),
              "validation_ms": ("stage_c_ms", 1.0, "ms")},
    "infer": {"eval_s_per_subject": ("stage_a_ms", 1e-3, "s"),
              "segment_ms_per_slice": ("stage_b_ms", 1.0, "ms"),
              "checkpoint_load_ms": ("stage_c_ms", 1.0, "ms")},
    "cohort": {"cohort_ms_per_subject": ("stage_a_ms", 1.0, "ms"),
               "roi_ms_per_subject": ("stage_b_ms", 1.0, "ms"),
               "clinical_ms_per_subject": ("stage_c_ms", 1.0, "ms")},
}


def machine(seed):
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": "unknown", "blas_version": "unknown",
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "seed": seed}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    return info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(PROFILES), default="full")
    args = ap.parse_args(argv)
    p = PROFILES[args.profile][args.workload]
    setup, one_round = WORKLOADS[args.workload]
    traced = args.trace == 1

    work = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    run = Run(spans.Tracer(full=traced), args.seed, work)
    # untraced train runs still need the step-boundary probes
    probed = traced or args.workload == "train"
    os.makedirs(work)
    try:
        imports_s = time.perf_counter() - T_START
        setups = []
        for _ in range(p["setup_repeats"]):
            t = time.perf_counter()
            state = setup(p, args.seed, run)
            setups.append(time.perf_counter() - t)

        untraced_round_s = None
        if traced:  # one untraced round to measure the tracing overhead against
            base = Run(spans.Tracer(full=False), args.seed, work)
            if args.workload == "train":
                base.tracer.install()
            baseline = one_round(state, p, base)
            base.tracer.uninstall()
            run.ops(base.attempted, base.failed)
            run.problems += base.problems
            untraced_round_s = baseline["round_s"]
        if probed:
            run.tracer.install()
        rounds, start = [], time.perf_counter()
        while True:
            result = one_round(state, p, run)
            if result is not None:
                rounds.append(result)
            if time.perf_counter() - start >= args.seconds:
                break
        if probed:
            run.tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    if not rounds:
        print("no round of %s completed" % args.workload, file=sys.stderr)
        return 1

    if traced:
        values = spans.layer_metrics(run.tracer.spans, len(rounds),
                                     sum(r["round_s"] for r in rounds), untraced_round_s)
        metrics = {k: {"value": v, "unit": spans.unit_and_better(k)[0]}
                   for k, v in values.items()}
        run.tracer.dump(os.path.join(ROOT, ".perfbench_out", "spans-%s-seed%d.jsonl"
                                     % (args.workload, args.seed)))
    else:
        values = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        values["setup_s"] = imports_s + statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    named = {name: {"value": values[key] * scale, "unit": unit}
             for name, (key, scale, unit) in NAMED[args.workload].items()} if not traced else {}
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics,
                      "rounds": len(rounds), "named": named, "quality": run.quality,
                      "machine": machine(args.seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
