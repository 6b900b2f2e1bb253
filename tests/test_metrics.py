"""Overlap, boundary-distance, and correlation metrics."""

import tracemalloc

import numpy as np
import pytest

from condenseg.metrics import boundary_points, dice_score, hausdorff, pearson
from condenseg.phantom import build_cohort
from condenseg.train import evaluate


def blob(shape, where, label=1):
    m = np.zeros(shape, dtype=np.uint8)
    m[where] = label
    return m


class TestDice:
    def test_identical(self):
        m = blob((16, 16), (slice(2, 9), slice(3, 11)))
        assert dice_score(m, m, 1) == 1.0

    def test_disjoint(self):
        a = blob((16, 16), (slice(0, 4), slice(0, 4)))
        b = blob((16, 16), (slice(8, 12), slice(8, 12)))
        assert dice_score(a, b, 1) == 0.0

    def test_half_overlap(self):
        # |A| = |B| = 100, |A ∩ B| = 50 -> 2*50 / 200
        a = np.zeros((20, 20), dtype=np.uint8)
        b = np.zeros((20, 20), dtype=np.uint8)
        a.ravel()[:100] = 1
        b.ravel()[50:150] = 1
        assert abs(dice_score(a, b, 1) - 0.5) < 1e-15

    def test_both_empty(self):
        z = np.zeros((8, 8), dtype=np.uint8)
        assert dice_score(z, z, 1) == 1.0

    def test_one_empty(self):
        a = blob((8, 8), (slice(2, 4), slice(2, 4)))
        z = np.zeros((8, 8), dtype=np.uint8)
        assert dice_score(a, z, 1) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = (rng.random((12, 12)) < 0.4).astype(np.uint8)
        b = (rng.random((12, 12)) < 0.4).astype(np.uint8)
        assert dice_score(a, b, 1) == dice_score(b, a, 1)

    def test_label_selects_class(self):
        a = np.zeros((6, 6), dtype=np.uint8)
        a[1:3] = 2
        a[4:5] = 3
        b = a.copy()
        b[4:5] = 0
        assert dice_score(a, b, 2) == 1.0
        assert dice_score(a, b, 3) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dice_score(np.zeros((4, 4), np.uint8), np.zeros((5, 4), np.uint8), 1)


class TestBoundary:
    def test_solid_square_ring(self):
        m = blob((10, 10), (slice(3, 7), slice(3, 7)))
        pts = boundary_points(m == 1)
        assert len(pts) == 12  # 4x4 square: 16 pixels minus 4 interior

    def test_single_pixel(self):
        m = blob((5, 5), (2, 2))
        pts = boundary_points(m == 1)
        assert pts.shape == (1, 2) and tuple(pts[0]) == (2, 2)

    def test_image_border_counts(self):
        m = np.ones((3, 3), dtype=bool)
        assert len(boundary_points(m)) == 8  # center pixel is interior

    def test_stack_is_taken_slice_by_slice(self):
        rng = np.random.default_rng(2)
        stack = rng.random((4, 9, 7)) < 0.6
        want = [(z, r, c) for z in range(4) for r, c in boundary_points(stack[z])]
        assert [tuple(p) for p in boundary_points(stack)] == want


class TestHausdorff:
    def test_identical_zero(self):
        m = blob((16, 16), (slice(4, 9), slice(5, 12)))
        assert hausdorff(m, m, 1, 1.0) == 0.0

    def test_two_pixels_3px_2mm(self):
        a = blob((10, 10), (4, 2))
        b = blob((10, 10), (4, 5))
        assert abs(hausdorff(a, b, 1, 2.0) - 6.0) < 1e-12

    def test_symmetric_max_direction(self):
        # b contains a plus a far point: d(a->b)=0-ish, d(b->a) large
        a = blob((20, 20), (slice(2, 4), slice(2, 4)))
        b = a.copy()
        b[15, 15] = 1
        d = hausdorff(a, b, 1, 1.0)
        assert abs(d - hausdorff(b, a, 1, 1.0)) < 1e-12
        assert abs(d - np.hypot(15 - 3, 15 - 3)) < 1e-12

    def test_anisotropic_spacing(self):
        a = blob((10, 10), (2, 3))
        b = blob((10, 10), (2, 7))  # 4 columns apart
        assert abs(hausdorff(a, b, 1, (0.5, 3.0)) - 2.0) < 1e-12
        c = blob((10, 10), (6, 3))  # 4 rows apart
        assert abs(hausdorff(a, c, 1, (0.5, 3.0)) - 12.0) < 1e-12

    def test_stack_worst_slice(self):
        a = np.zeros((3, 12, 12), dtype=np.uint8)
        b = np.zeros((3, 12, 12), dtype=np.uint8)
        a[0, 5, 2] = b[0, 5, 3] = 1     # 1 px apart
        a[1, 5, 2] = b[1, 5, 9] = 1     # 7 px apart
        assert abs(hausdorff(a, b, 1, 1.0) - 7.0) < 1e-12

    def test_empty_side_raises(self):
        a = blob((8, 8), (3, 3))
        z = np.zeros((8, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            hausdorff(a, z, 1, 1.0)
        with pytest.raises(ValueError):
            hausdorff(z, z, 1, 1.0)

    def test_zero_distance_implies_unit_dice(self):
        m = blob((14, 14), (slice(3, 8), slice(2, 10)))
        if hausdorff(m, m.copy(), 1, 1.0) == 0.0:
            assert dice_score(m, m.copy(), 1) == 1.0


# The brute-force Hausdorff the library used to run, kept as the oracle: every
# boundary pixel of one mask against every boundary pixel of the other, slice
# by slice.

def _oracle_boundary_points(binary):
    padded = np.pad(binary, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return np.argwhere(binary & ~interior)


def _oracle_directed_hausdorff(pts_a, pts_b, spacing):
    worst = 0.0
    scale = np.asarray(spacing, dtype=np.float64)
    b_scaled = pts_b * scale
    for start in range(0, len(pts_a), 512):
        chunk = pts_a[start:start + 512] * scale
        d2 = ((chunk[:, None, :] - b_scaled[None, :, :]) ** 2).sum(axis=2)
        worst = max(worst, float(np.sqrt(d2.min(axis=1).max())))
    return worst


def oracle_hausdorff(a, b, label, spacing_mm=(1.0, 1.0)):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("mask shapes differ: %s vs %s" % (a.shape, b.shape))
    if np.isscalar(spacing_mm):
        spacing_mm = (float(spacing_mm), float(spacing_mm))
    sy, sx = spacing_mm[1], spacing_mm[0]
    if a.ndim == 2:
        a = a[None]
        b = b[None]
    worst = 0.0
    seen = False
    for za, zb in zip(a, b):
        pa = _oracle_boundary_points(za == label)
        pb = _oracle_boundary_points(zb == label)
        if len(pa) == 0 and len(pb) == 0:
            continue
        if len(pa) == 0 or len(pb) == 0:
            raise ValueError("hausdorff undefined: label %d empty in one mask"
                             % label)
        seen = True
        worst = max(worst,
                    _oracle_directed_hausdorff(pa, pb, (sy, sx)),
                    _oracle_directed_hausdorff(pb, pa, (sy, sx)))
    if not seen:
        raise ValueError("hausdorff undefined: label %d empty in both masks" % label)
    return worst


def outcome(fn, *args):
    """The float's type and bytes, or the exception's type and message."""
    try:
        d = fn(*args)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err)
    return type(d), np.float64(d).tobytes()


def random_mask(rng, shape):
    m = np.zeros(shape, dtype=np.uint8)
    for _ in range(rng.integers(0, 6)):  # labelled rectangles, some overlapping
        r, c = (int(rng.integers(0, n)) for n in shape[-2:])
        h, w = rng.integers(1, 8, size=2)
        lead = (slice(int(rng.integers(0, shape[0])), None),) if len(shape) == 3 else ()
        m[lead + (slice(r, r + h), slice(c, c + w))] = rng.integers(1, 4)
    if rng.random() < 0.3:  # speckle
        speck = rng.random(shape) < 0.05
        m[speck] = rng.integers(0, 4, size=int(speck.sum()))
    return m


def random_pair(rng):
    shape = tuple(int(n) for n in rng.integers(3, 20, size=2))
    if rng.random() < 0.5:
        shape = (int(rng.integers(1, 5)),) + shape
    a = random_mask(rng, shape)
    kind = rng.choice(["identical", "flipped", "unrelated", "emptied", "one_slice"])
    if kind == "unrelated":
        b = random_mask(rng, shape)
    else:
        b = a.copy()
    if kind == "one_slice":  # equal on every other slice, so those are skipped
        b[rng.integers(0, shape[0]) if len(shape) == 3 else ...] = random_mask(rng, shape[-2:])
    if kind in ("flipped", "emptied"):
        flip = rng.random(shape) < rng.uniform(0.0, 0.1)
        b[flip] = rng.integers(0, 4, size=int(flip.sum()))
    if kind == "emptied":
        target = b if rng.random() < 0.5 else a
        target[rng.integers(0, shape[0]) if len(shape) == 3 else ...] = 0
    present = np.unique(a[a > 0])
    label = rng.choice(present) if present.size and rng.random() < 0.8 else rng.integers(1, 4)
    if rng.random() < 0.5:
        spacing = float(rng.uniform(0.2, 3.0))
    else:
        spacing = (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
    return a, b, int(label), spacing


class TestHausdorffMatchesBruteForce:
    def test_random_pairs(self):
        rng = np.random.default_rng(30)
        kinds = set()
        for i in range(3000):
            args = random_pair(rng)
            want = outcome(oracle_hausdorff, *args)
            kinds.add(want[0].__name__)
            assert outcome(hausdorff, *args) == want, "pair %d" % i
        assert kinds == {"float", "ValueError"}

    def test_phantom_masks(self):
        # truth against truth (ED against ES, and against itself rolled one
        # pixel), and against a prediction-like copy with a ragged boundary
        rng = np.random.default_rng(31)
        for sub in build_cohort(30, seed=3):
            ed, es = sub.ed_mask.data, sub.es_mask.data
            ragged = np.where(rng.random(ed.shape) < 0.02, 0, ed).astype(np.uint8)
            spacing = sub.geometry.pixel_spacing_mm
            for other in (es, np.roll(ed, 1, axis=-1), ragged, ed):
                for label in (1, 2, 3):
                    args = (ed, other, label, spacing)
                    assert outcome(hausdorff, *args) == outcome(oracle_hausdorff, *args)

    def test_checkerboard_in_chunks(self):
        # no boundary pixel is shared, so all 8192 of each slice are measured,
        # 512 at a time, in no more traced memory than the brute force takes;
        # the farthest pixels are a's last rows, in the last chunk
        z, y, x = np.indices((3, 128, 128))
        a = ((y + x) % 2).astype(np.uint8)
        b = np.roll(a, 1, axis=-1)
        b[:, -8:] = 0
        args = (a, b, 1, (0.7, 1.3))
        results, peaks = [], []
        for fn in (oracle_hausdorff, hausdorff):
            tracemalloc.start()
            try:
                results.append(outcome(fn, *args))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert results[0][0] is float and results[1] == results[0]
        assert peaks[1] <= peaks[0]

    def test_ground_truth_evaluation_reads_zero(self):
        result = evaluate(None, build_cohort(10, seed=5))
        for sub in result.subjects:
            assert list(sub.hausdorff_mm.values()) == [0.0, 0.0, 0.0]


class TestHausdorffBadInput:
    @pytest.mark.parametrize("shape", [(6,), (2, 2, 6, 6)])
    def test_masks_neither_2d_nor_stack(self, shape):
        a = np.zeros(shape, dtype=np.uint8)
        a[..., 1] = 1
        with pytest.raises(ValueError, match="hausdorff needs"):
            hausdorff(a, np.roll(a, 2, axis=-1), 1, 1.0)

    @pytest.mark.parametrize("spacing", [float("nan"), (float("nan"), 1.0), (1.0, 2.0, 3.0),
                                         0.0, (1.0, -2.0), float("inf"), (1.0, float("inf")),
                                         1e308])
    def test_spacing_not_one_or_two_finite_positive_numbers(self, spacing):
        a = blob((6, 6), (1, 1))
        b = blob((6, 6), (3, 4))
        with pytest.raises(ValueError, match="spacing"):
            hausdorff(a, b, 1, spacing)


class TestPearson:
    def test_affine_positive(self):
        x = np.array([0.0, 1.0, 2.0, 5.0, 9.0])
        assert abs(pearson(x, 2 * x + 1) - 1.0) < 1e-12

    def test_affine_negative(self):
        x = np.array([0.0, 1.0, 2.0, 5.0, 9.0])
        assert abs(pearson(x, -x + 3) + 1.0) < 1e-12

    def test_matches_corrcoef(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 7.0])
        want = np.corrcoef(x, y)[0, 1]
        assert abs(pearson(x, y) - want) < 1e-12

    def test_shuffle_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.random(30)
        y = 0.7 * x + rng.random(30) * 0.1
        perm = rng.permutation(30)
        assert abs(pearson(x, y) - pearson(x[perm], y[perm])) < 1e-12

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            pearson(np.ones(5), np.arange(5.0))

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0]), np.array([2.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson(np.arange(4.0), np.arange(5.0))
