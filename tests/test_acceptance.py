"""Acceptance gate: nine numbered criteria, one test (and one
pass/fail line) each.  Later criteria run real training; the whole file
is budgeted to stay well inside its stated wall-clock limits.
"""

import math
import time
from collections import Counter, namedtuple

import numpy as np
import pytest

from condenseg.clinical import report, simpson_volume
from condenseg.dataset import stratified_kfold
from condenseg.lgconv import (
    LGConvLayer,
    condense,
    group_lasso_penalty,
    importance_scores,
    lg_forward,
    to_inference,
)
from condenseg.loss import LossConfig, dice_loss, pixel_weights, total_loss, weighted_cross_entropy
from condenseg.metrics import pearson
from condenseg.net import NetConfig, build, save_checkpoint
from condenseg.phantom import PhantomSpec, build_cohort, generate_phantom
from condenseg.roi import detect_roi, first_harmonic_map
from condenseg.tensor import (
    Tensor,
    conv2d,
    conv2d_transpose,
    he_normal,
    max_pool2d,
    scale_shift,
    softmax_channels,
)
from condenseg.train import TrainConfig, emit_report_csv, evaluate, train
from condenseg.volume import Geometry, LabelMask, LV
from gradcheck import GRAD_TOL, grad_check


def _prober(fn, x0, rng):
    """Deterministic scalar probe: fixed random weighting of fn's output."""
    w = Tensor(rng.standard_normal(fn(x0).shape), requires_grad=False)
    return lambda t: (fn(t) * w).sum()


def test_criterion_1_gradients():
    """Finite differences agree with backprop for every op and a full net."""
    start = time.monotonic()
    rng = np.random.default_rng(11)
    worst = {}

    x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.3, requires_grad=True)
    worst["conv2d/x"] = grad_check(_prober(lambda t: conv2d(t, k, 1, 1), x, rng), x, rng=rng)
    worst["conv2d/k"] = grad_check(_prober(lambda t: conv2d(x, t, 1, 1), k, rng), k, rng=rng)

    kt = Tensor(rng.standard_normal((3, 4, 3, 3)) * 0.3, requires_grad=True)
    worst["convT/x"] = grad_check(
        _prober(lambda t: conv2d_transpose(t, kt, 2, 1), x, rng), x, rng=rng)
    worst["convT/k"] = grad_check(
        _prober(lambda t: conv2d_transpose(x, t, 2, 1), kt, rng), kt, rng=rng)

    xp = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
    worst["max_pool"] = grad_check(_prober(lambda t: max_pool2d(t, 2), xp, rng), xp, rng=rng)
    # the fused ReLU under a unit affine clips about half the outputs; the
    # fixed affine draws nothing, so the checks below keep their inputs
    xr = Tensor(rng.standard_normal((2, 3, 6, 6)) + 0.2, requires_grad=True)
    unit, zero = Tensor(np.ones(3)), Tensor(np.zeros(3))
    clipped = scale_shift(xr, unit, zero).data == 0
    assert clipped.any() and not clipped.all()
    worst["scale_shift/clipped"] = grad_check(
        _prober(lambda t: scale_shift(t, unit, zero), xr, rng), xr, rng=rng)

    gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    beta = Tensor(rng.standard_normal(3), requires_grad=True)
    worst["scale_shift"] = grad_check(
        _prober(lambda t: scale_shift(t, gamma, beta, training=True), x, rng), x, rng=rng)
    worst["softmax"] = grad_check(_prober(softmax_channels, x, rng), x, rng=rng)

    lg = LGConvLayer(8, 8, kernel_size=3, groups=4, condensation_factor=4)
    he_normal(lg.kernel, np.random.default_rng(0))
    condense(lg)
    xl = Tensor(rng.standard_normal((2, 8, 6, 6)), requires_grad=True)
    worst["lg_forward"] = grad_check(
        _prober(lambda t: lg_forward(lg, t, padding=1), xl, rng), xl, rng=rng)
    worst["group_lasso"] = grad_check(lambda t: group_lasso_penalty(lg), lg.kernel, rng=rng)

    cfg = LossConfig()
    lab = (np.indices((2, 6, 6)).sum(axis=0) % 4).astype(np.uint8)
    labels = LabelMask(lab)  # every class present, no weighting warnings
    logits = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)
    wmap = pixel_weights(labels, cfg)
    worst["cross_entropy"] = grad_check(
        lambda t: weighted_cross_entropy(softmax_channels(t), labels, wmap), logits, rng=rng)
    worst["dice"] = grad_check(
        lambda t: dice_loss(softmax_channels(t), labels, cfg), logits, rng=rng)

    net_cfg = NetConfig(input_size=32, layers_per_block=(1, 1, 2, 1, 1), pool_layers=2)
    net = build(net_cfg, rng=np.random.default_rng(5), dtype=np.float64)
    xin = Tensor(rng.standard_normal((2, 1, 32, 32)), requires_grad=True)
    probe_w = Tensor(rng.standard_normal((2, 4, 32, 32)), requires_grad=False)

    def net_probe(_):
        return (net.forward(xin, training=True) * probe_w).sum()

    # h=1e-7 keeps the central-difference window clear of ReLU/max-pool
    # kinks that a 32x32 net crosses at the default step
    worst["network/input"] = grad_check(net_probe, xin, h=1e-7, rng=rng)
    params = net.parameters()
    for idx in np.random.default_rng(3).choice(len(params), size=5, replace=False):
        p = params[idx]
        worst["network/" + (p.name or str(idx))] = grad_check(net_probe, p, h=1e-7, rng=rng)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, "gradient suite took %.1fs" % elapsed
    peak = max(worst.values())
    assert peak < GRAD_TOL, "worst relative error %.3g in %s" % (
        peak, max(worst, key=worst.get))
    print("[criterion 1] PASS - %d checks, worst rel err %.2e, %.1fs"
          % (len(worst), peak, elapsed))


def test_criterion_2_condensation_invariant():
    """Alive counts 12/8/4, bottom-k oracle agreement, monotone pruning."""
    layer = LGConvLayer(16, 16, kernel_size=3, groups=4, condensation_factor=4)
    he_normal(layer.kernel, np.random.default_rng(7))
    alive_history = []
    masks = [layer.mask.copy()]
    for stage in (1, 2, 3):
        scores = importance_scores(layer)
        expected = []
        for g in range(layer.groups):
            col = scores[g]
            alive = np.where(np.isfinite(col))[0]
            order = alive[np.argsort(col[alive], kind="stable")]
            keep = 16 * (4 - stage) // 4  # h * (C - s) / C is integral here
            expected.append(set(order[:len(alive) - keep].tolist()))
        event = condense(layer)
        for g in range(layer.groups):
            assert set(event["pruned"][g]) == expected[g], "stage %d group %d" % (stage, g)
        per_group = layer.alive_per_group()
        assert len(set(per_group)) == 1  # every group keeps the same count
        alive_history.append(per_group[0])
        masks.append(layer.mask.copy())
    assert alive_history == [12, 8, 4]
    for earlier, later in zip(masks, masks[1:]):
        assert np.all(earlier[later == 1] == 1), "pruning not monotone"
    print("[criterion 2] PASS - alive per group 12/8/4, oracle match, monotone")


def test_criterion_3_inference_conversion():
    layer = LGConvLayer(8, 8, kernel_size=3, groups=4, condensation_factor=4)
    he_normal(layer.kernel, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    for _ in range(3):
        layer.kernel.data += rng.standard_normal(layer.kernel.shape) * 0.05
        layer.apply_mask()
        condense(layer)
    compact = to_inference(layer)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal((1, 8, 10, 10))
        dense = lg_forward(layer, Tensor(x), padding=1).data
        fast = compact.forward(x, stride=1, padding=1)
        worst = max(worst, float(np.abs(dense - fast).max()))
    assert worst < 1e-5
    alive_weights = int(layer.mask.sum()) * 9
    assert compact.weight_count() == alive_weights
    assert compact.weight_count() * 4 == layer.kernel.data.size
    print("[criterion 3] PASS - max abs diff %.2e over 100 inputs, "
          "%d vs %d weights (4x)" % (worst, compact.weight_count(),
                                     layer.kernel.data.size))


def test_criterion_4_architecture_accounting():
    cfg = NetConfig()
    net = build(cfg, rng=np.random.default_rng(0), dtype=np.float64)
    dense = net.param_count("dense")
    assert 250_000 <= dense <= 450_000, dense
    x = Tensor(np.random.default_rng(1).standard_normal((2, 1, 128, 128)),
               requires_grad=False)
    out = net.forward(x, training=True)
    assert out.shape == (2, 4, 128, 128)
    sums = out.data.sum(axis=1)
    err = float(np.abs(sums - 1.0).max())
    assert err < 1e-6
    print("[criterion 4] PASS - %d dense params, output 2x4x128x128, "
          "prob sum err %.1e" % (dense, err))


def test_criterion_5_loss_formula_fidelity():
    # two pixels, two classes, labels [0, 1]
    probs = np.array([[[[0.8, 0.3]], [[0.2, 0.7]]]])
    labels = LabelMask(np.array([[[0, 1]]], dtype=np.uint8), num_classes=2)
    cfg = LossConfig(alpha=0.5)

    pred = Tensor(probs, requires_grad=False)
    w = pixel_weights(labels, cfg)
    # class weights: 2 voxels / 1 per class = 2; both pixels are edges: +2/2 = 1
    assert np.allclose(w, 3.0)
    ce = weighted_cross_entropy(pred, labels, w)
    hand_ce = -3.0 * (math.log(0.8) + math.log(0.7))
    assert abs(float(ce.data) - hand_ce) < 1e-10

    dl = dice_loss(pred, labels, cfg)
    eps = cfg.epsilon
    # c_l = 2 for both classes; intersections 0.8 / 0.7; p-sums 1.1 / 0.9
    num = 2.0 * (2 * 0.8 + eps) + 2.0 * (2 * 0.7 + eps)
    den = 2.0 * (1.1 + 1.0 + eps) + 2.0 * (0.9 + 1.0 + eps)
    hand_dice = 1.0 - num / den
    assert abs(float(dl.data) - hand_dice) < 1e-10

    mixed = total_loss(pred, labels, cfg)
    assert abs(float(mixed.data) - (0.5 * hand_ce + 0.5 * hand_dice)) < 1e-10
    only_ce = total_loss(pred, labels, LossConfig(alpha=1.0))
    only_dice = total_loss(pred, labels, LossConfig(alpha=0.0))
    assert float(only_ce.data) == float(ce.data)
    assert float(only_dice.data) == float(dice_loss(pred, labels, LossConfig(alpha=0.0)).data)
    print("[criterion 5] PASS - hand CE %.6f and dice %.6f matched at 1e-10, "
          "alpha endpoints exact" % (hand_ce, hand_dice))


def test_criterion_6_roi_detection():
    subjects = build_cohort(20, seed=2024)
    hits = 0
    for sub in subjects:
        box = detect_roi(sub.cine)
        cx, cy = sub.truth["roi_center"]
        radius = sub.truth["roi_radius_px"]
        if (abs(box.center[0] - cx) <= 3 and abs(box.center[1] - cy) <= 3
                and abs(box.radius - radius) <= 3):
            hits += 1
    assert hits >= 19, "only %d/20 within 3 px" % hits

    # closed form: pure cosine of amplitude A over T frames -> |X1| = A*T/2
    T, A = 12, 0.37
    t = np.arange(T)
    wave = A * np.cos(2 * np.pi * t / T)
    vol = np.tile(wave[:, None, None, None], (1, 1, 5, 5)).astype(np.float64)
    from condenseg.volume import CineVolume
    mag = first_harmonic_map(CineVolume(vol))
    err = float(np.abs(mag - A * T / 2).max())
    assert err < 1e-9
    print("[criterion 6] PASS - %d/20 phantoms within 3 px, |X1| err %.1e" % (hits, err))


def test_criterion_7_clinical_indices():
    # cylinder: 10 slices x 100 px, 1.5 mm spacing, 10 mm step -> 22.5 mL
    data = np.zeros((10, 40, 40), dtype=np.uint8)
    for z in range(10):
        data[z].ravel()[:100] = LV
    geom = Geometry((1.5, 1.5), 10.0, 0.0)
    vol = simpson_volume(LabelMask(data), LV, geom)
    assert abs(vol - 22.5) < 1e-12

    worst = 0.0
    for seed, spec in enumerate(
            [PhantomSpec(), PhantomSpec(contraction=(0.1, 0.2)),
             PhantomSpec(contraction=(0.0, 0.0))]):
        sub = generate_phantom(spec, 50 + seed)
        rep = report(sub.ed_mask, sub.es_mask, sub.geometry)
        worst = max(worst, abs(rep.ef_percent - sub.truth["ef_percent"]))
    assert worst <= 0.5, "EF off by %.3f pp" % worst
    print("[criterion 7] PASS - cylinder 22.5 mL exact, EF err %.2e pp" % worst)


Tagged = namedtuple("Tagged", "group")


def test_criterion_8_end_to_end_phantom_run():
    subjects = build_cohort(50, seed=2024)
    assert len({s.group for s in subjects}) == 5

    folds = stratified_kfold(subjects, k=5, seed=2024)
    assert sorted(i for f in folds for i in f) == list(range(50))
    for fold in folds:
        counts = Counter(subjects[i].group for i in fold)
        assert len(counts) == 5 and all(c == 2 for c in counts.values())
    # the documented 100-subject case: exactly 4 per group per fold
    tags = [Tagged("g%d" % (i % 5)) for i in range(100)]
    for fold in stratified_kfold(tags, k=5, seed=0):
        assert all(c == 4 for c in Counter(tags[i].group for i in fold).values())

    val = [subjects[i] for i in folds[0]]
    tr = [subjects[i] for f in folds[1:] for i in f]
    assert len(tr) == 40 and len(val) == 10

    cfg = TrainConfig(seed=2024)
    start = time.monotonic()
    net, history = train(tr, cfg, val_subjects=val)
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0, "training took %.0fs" % elapsed

    val_dice = history["val_dice"][-1]
    assert val_dice >= 0.90, "validation LV Dice %.4f" % val_dice

    alive = history["alive_params"]
    assert all(a >= b for a, b in zip(alive, alive[1:]))
    lg_dense = sum(lg.kernel.data.size for lg in net.lg_layers())
    lg_alive = sum(int(lg.mask.sum()) * lg.kernel.shape[2] * lg.kernel.shape[3]
                   for lg in net.lg_layers())
    assert 0.24 <= lg_alive / lg_dense <= 0.30

    result = evaluate(net, val)
    rho = result.rho["ef_percent"]
    assert rho >= 0.99, "EF Pearson rho %.5f" % rho

    # loss trend: smoothed loss falls across the condensing region and,
    # once the last pruning event has passed, never rises more than 15%
    # above its running minimum (minibatch noise sits near 4%)
    smoothed = np.convolve(history["loss"], np.ones(5) / 5.0, mode="valid")
    events = history["condensation"]
    assert events, "no condensation events recorded"
    first_prune = min(e["epoch"] for e in events)
    last_prune = max(e["epoch"] for e in events)
    assert smoothed[-1] < smoothed[first_prune]
    post = smoothed[last_prune:]
    excursion = float(np.max(post / np.minimum.accumulate(post)))
    assert excursion < 1.15, "post-condensation loss excursion %.3f" % excursion

    # compact conversion with the *trained* weights matches the masked
    # dense forward, and predicted masks are stable under probability
    # perturbations below that agreement level (near-ties flagged)
    conv_rng = np.random.default_rng(77)
    conv_worst = 0.0
    for lg in net.lg_layers():
        assert lg.stage == lg.condensation_factor - 1
        compact = to_inference(lg)
        xin = conv_rng.standard_normal((2, lg.in_channels, 12, 12)).astype(net.dtype)
        dense = lg_forward(lg, Tensor(xin), padding=1).data
        conv_worst = max(conv_worst, float(
            np.abs(dense - compact.forward(xin, stride=1, padding=1)).max()))
    assert conv_worst < 1e-5

    from condenseg.roi import _crop2d
    from condenseg.train import _forward_batches, cine_box, normalize_slice
    sub = val[0]
    box = cine_box(sub.cine, cfg.net.input_size)
    planes = sub.cine.data[sub.ed_frame]
    batch = np.stack([normalize_slice(_crop2d(p, box)) for p in planes])
    probs = _forward_batches(net, batch[:, None])
    ranked = np.sort(probs, axis=1)
    ties = (ranked[:, -1] - ranked[:, -2]) < 2e-5
    base = np.argmax(probs, axis=1)
    noise_rng = np.random.default_rng(8)
    for _ in range(3):
        noisy = probs + noise_rng.uniform(-1e-5, 1e-5, probs.shape)
        flips = np.argmax(noisy, axis=1) != base
        assert not np.any(flips & ~ties), "argmax flipped away from a tie"
    assert float(ties.mean()) < 0.005, "tie fraction %.4f" % ties.mean()

    print("[criterion 8] PASS - %.0fs train, val LV Dice %.4f, EF rho %.5f, "
          "LG alive %.1f%%, loss excursion %.2f, conv err %.1e, ties %.3f%%"
          % (elapsed, val_dice, rho, 100 * lg_alive / lg_dense,
             excursion, conv_worst, 100 * ties.mean()))


def test_criterion_9_determinism(tmp_path):
    def one_run(tag):
        spec = PhantomSpec(image_size=64, frames=4, slices=3,
                           endo_radius_px=(7.0, 8.5), wall_px=(2.5, 3.0),
                           contraction=(0.3, 0.4), center_jitter_px=2)
        subs = [generate_phantom(spec, 700 + i, name="s%02d" % i) for i in range(6)]
        cfg = TrainConfig(epochs=4, batch_size=2, batches_per_epoch=3, seed=13,
                          net=NetConfig(input_size=32, layers_per_block=(1, 1, 2, 1, 1),
                                        pool_layers=2, condensation_factor=2))
        net, history = train(subs[:4], cfg, val_subjects=subs[4:])
        ckpt = tmp_path / ("%s.ckpt" % tag)
        save_checkpoint(net, ckpt, epoch=cfg.epochs,
                        extra={"train_config": cfg.to_dict(), "run_history": history})
        paths = emit_report_csv(evaluate(net, subs[4:]), tmp_path / ("%s.csv" % tag))
        return ckpt.read_bytes(), [open(p, "rb").read() for p in paths]

    ckpt_a, csvs_a = one_run("a")
    ckpt_b, csvs_b = one_run("b")
    assert ckpt_a == ckpt_b, "checkpoints differ between identical runs"
    assert csvs_a == csvs_b, "CSV reports differ between identical runs"
    print("[criterion 9] PASS - checkpoints (%d bytes) and CSVs byte-identical"
          % len(ckpt_a))
