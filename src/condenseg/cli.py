"""Command-line interface.

Subcommands cover the whole workflow: generate a phantom cohort, detect
the region of interest, train, segment, derive clinical parameters, run
a full evaluation, and inspect pruning state.
"""

import argparse
import json
import sys

import numpy as np

from .clinical import report
from .dataset import load_dataset, save_dataset
from .net import load_checkpoint, save_checkpoint
from .phantom import build_cohort
from .roi import detect_roi, first_harmonic_map
from .schema import read_json, write_file
from .train import (TrainConfig, cine_box, emit_report_csv, evaluate, segment_frame,
                    train)
from .volume import CineVolume, Geometry, LabelMask, load_kind, save_volume


def _write_json(path, obj):
    write_file(path, [json.dumps(obj, sort_keys=True, indent=2).encode() + b"\n"])


def _write_pgm(path, image):
    """8-bit grayscale PGM of an arbitrary nonnegative map."""
    top = float(image.max())
    scaled = np.zeros_like(image) if top == 0 else image / top * 255.0
    data = scaled.astype(np.uint8)
    write_file(path, (b"P5\n%d %d\n255\n" % (data.shape[1], data.shape[0]), data.tobytes()))


def cmd_phantom(args):
    subjects = build_cohort(args.count, seed=args.seed)
    save_dataset(args.out, subjects)
    print("wrote %d subjects to %s" % (len(subjects), args.out))


def cmd_roi(args):
    vol = load_kind(getattr(args, "in"), CineVolume)
    box = detect_roi(vol)
    _write_json(args.out, {
        "center": [box.center[0], box.center[1]],
        "radius": box.radius,
        "corner": [box.corner[0], box.corner[1]],
        "size": box.size,
    })
    if args.saliency:
        _write_pgm(args.saliency, first_harmonic_map(vol).sum(axis=0))
    print("roi center (%.1f, %.1f) radius %.1f" %
          (box.center[0], box.center[1], box.radius))


def cmd_train(args):
    cfg = TrainConfig.from_json(args.config)
    subjects = load_dataset(args.data)
    net, history = train(subjects, cfg)
    save_checkpoint(net, args.out, epoch=cfg.epochs,
                    extra={"train_config": cfg.to_dict(),
                           "run_history": history})
    print("trained %d epochs, final val LV Dice %.4f, saved %s"
          % (cfg.epochs, history["val_dice"][-1], args.out))


def cmd_segment(args):
    net, _ = load_checkpoint(args.ckpt)
    vol = load_kind(getattr(args, "in"), CineVolume)
    if not 0 <= args.frame < vol.frames:
        raise SystemExit("frame %d outside cine with %d frames"
                         % (args.frame, vol.frames))
    mask = segment_frame(net, vol, args.frame, cine_box(vol, net.config.input_size))
    save_volume(args.out, mask)
    counts = mask.class_counts()
    print("segmented frame %d: %s" % (
        args.frame,
        ", ".join("%s=%d" % (n, c) for n, c in zip(mask.label_names, counts))))


def cmd_params(args):
    ed = load_kind(args.ed, LabelMask)
    es = load_kind(args.es, LabelMask)
    geometry = Geometry.from_dict(read_json(args.geom, ValueError), args.geom)
    rep = report(ed, es, geometry)
    _write_json(args.out, rep.to_dict())
    print("EF %.1f%%  EDV %.1f mL  ESV %.1f mL  mass %.1f g"
          % (rep.ef_percent, rep.lv_edv_ml, rep.lv_esv_ml, rep.myo_mass_g))


def cmd_eval(args):
    net, _ = load_checkpoint(args.ckpt)
    subjects = load_dataset(args.data)
    result = evaluate(net, subjects)
    paths = emit_report_csv(result, args.out)
    print("evaluated %d subjects" % len(result.subjects))
    for name, value in result.mean_dice.items():
        print("  mean %s Dice %.4f" % (name, value))
    for param, value in result.rho.items():
        print("  rho %s %.4f" % (param, value))
    print("wrote %s" % " and ".join(paths))


def cmd_prune_report(args):
    net, header = load_checkpoint(args.ckpt)
    print("checkpoint %s (epoch %d)" % (args.ckpt, header.get("epoch", 0)))
    print("%-28s %7s %7s %9s %9s" % ("layer", "stage", "groups", "alive", "dense"))
    for lg in net.lg_layers():
        alive = int(lg.mask.sum())
        dense = lg.mask.size
        print("%-28s %7d %7d %9d %9d"
              % (lg.name, lg.stage, lg.groups, alive, dense))
    print("parameters: dense %d, alive %d"
          % (net.param_count("dense"), net.param_count("alive")))
    print("MACs per image: dense %d, alive %d"
          % (net.flop_count("dense"), net.flop_count("alive")))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="condenseg",
        description="Cardiac cine segmentation with learned group convolutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic cohort")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("roi", help="detect the heart region in a cine volume")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--saliency", help="optional PGM dump of the harmonic map")
    p.set_defaults(func=cmd_roi)

    p = sub.add_parser("train", help="train a segmentation network")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment one frame of a cine volume")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("params", help="clinical parameters from ED/ES masks")
    p.add_argument("--ed", required=True)
    p.add_argument("--es", required=True)
    p.add_argument("--geom", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("eval", help="full evaluation over a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("prune-report", help="per-layer condensation state")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_prune_report)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
