"""Harmonic saliency, circle voting, and crop/paste geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condenseg.phantom import PhantomSpec, generate_phantom
from condenseg.roi import (
    EDGE_PERCENTILE,
    DetectionError,
    RoiBox,
    _crop2d,
    center_box,
    crop_mask,
    detect_roi,
    first_harmonic_map,
    hough_circle,
    make_box,
    paste_mask,
    radius_band,
)
from condenseg.volume import CineVolume, LabelMask

# fixed example sets: the suite gives the same verdict on every run
PROPERTY = dict(deadline=None, derandomize=True, database=None)


def cine(data):
    return CineVolume(np.asarray(data, dtype=np.float64))


def ring_image(shape, cy, cx, r, amp=1.0, width=1.5):
    yy, xx = np.indices(shape, dtype=np.float64)
    d = np.hypot(yy - cy, xx - cx)
    return amp * np.exp(-((d - r) ** 2) / (2 * width ** 2))


class TestFirstHarmonic:
    def test_static_sequence_zero(self):
        rng = np.random.default_rng(0)
        frame = rng.random((2, 8, 8)).astype(np.float32)
        vol = cine(np.broadcast_to(frame, (6, 2, 8, 8)))
        assert np.max(first_harmonic_map(vol)) < 1e-9

    def test_cosine_closed_form(self):
        t = np.arange(16)
        series = 5.0 + 2.0 * np.cos(2 * np.pi * t / 16)
        vol = cine(series[:, None, None, None] * np.ones((16, 1, 4, 4)))
        m = first_harmonic_map(vol)
        assert np.max(np.abs(m - 16.0)) < 1e-9  # A*T/2 with A=2

    def test_second_harmonic_invisible(self):
        t = np.arange(12)
        series = np.cos(2 * np.pi * 2 * t / 12)
        vol = cine(series[:, None, None, None] * np.ones((12, 1, 4, 4)))
        assert np.max(first_harmonic_map(vol)) < 1e-9

    def test_too_few_frames(self):
        with pytest.raises(ValueError):
            first_harmonic_map(cine(np.zeros((1, 2, 4, 4))))

    def test_dc_invariant_and_amplitude_linear(self):
        rng = np.random.default_rng(1)
        data = rng.random((8, 2, 6, 6)).astype(np.float32)
        base = first_harmonic_map(cine(data))
        shifted = first_harmonic_map(cine(data + 7.0))
        assert np.max(np.abs(shifted - base)) < 1e-6
        tripled = first_harmonic_map(cine(3.0 * data))
        assert np.max(np.abs(tripled - 3.0 * base)) < 1e-6


def hough_oracle(saliency, r_min, r_max):
    """hough_circle as one np.add.at scatter per (radius, sign)."""
    img = np.asarray(saliency, dtype=np.float64)
    h, w = img.shape
    gy, gx = np.gradient(img)
    mag = np.hypot(gy, gx)
    ey, ex = np.nonzero(mag > np.percentile(mag, EDGE_PERCENTILE))
    if ey.size == 0:
        raise DetectionError("no edges")
    strength = mag[ey, ex]
    uy, ux = gy[ey, ex] / strength, gx[ey, ex] / strength
    radii = np.arange(r_min, r_max + 1)
    acc = np.zeros((h, w, radii.size))
    for ri, r in enumerate(radii):
        for sign in (1.0, -1.0):
            cy = np.rint(ey + sign * r * uy).astype(np.int64)
            cx = np.rint(ex + sign * r * ux).astype(np.int64)
            ok = (cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)
            np.add.at(acc[:, :, ri], (cy[ok], cx[ok]), strength[ok])
    iy, ix, ir = np.unravel_index(int(np.argmax(acc)), acc.shape)
    return (int(ix), int(iy)), int(radii[ir]), float(acc[iy, ix, ir])


@st.composite
def saliency_cases(draw):
    """(image, r_min, r_max): noise, few-level (tied strengths) or ring images
    with a legal radius band."""
    h, w = draw(st.integers(8, 48)), draw(st.integers(8, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["noise", "levels", "ring"]))
    if kind == "noise":
        img = rng.random((h, w))
    elif kind == "levels":
        img = rng.integers(0, 3, (h, w)).astype(np.float64)
    else:
        img = ring_image((h, w), rng.uniform(0, h), rng.uniform(0, w), rng.uniform(2, 20))
    top = (min(h, w) - 1) // 2  # largest r_max below min(H,W)/2
    r_max = draw(st.integers(2, top))
    return img, draw(st.integers(1, r_max - 1)), r_max


class TestHoughCircle:
    @settings(max_examples=100, **PROPERTY)
    @given(saliency_cases())
    def test_matches_scatter_add_oracle(self, case):
        img, r_min, r_max = case
        try:
            want = hough_oracle(img, r_min, r_max)
        except DetectionError:
            with pytest.raises(DetectionError):
                hough_circle(img, r_min, r_max)
            return
        assert hough_circle(img, r_min, r_max) == want

    def test_synthetic_ring(self):
        img = ring_image((128, 128), cy=64, cx=64, r=20)
        (cx, cy), r, score = hough_circle(img)
        assert abs(cx - 64) <= 2 and abs(cy - 64) <= 2
        assert abs(r - 20) <= 2
        assert score > 0

    def test_stronger_ring_wins(self):
        img = ring_image((128, 128), 40, 40, 15) + \
              ring_image((128, 128), 90, 90, 15, amp=2.0)
        (cx, cy), r, _ = hough_circle(img)
        assert abs(cx - 90) <= 2 and abs(cy - 90) <= 2

    def test_uniform_image_raises(self):
        with pytest.raises(DetectionError):
            hough_circle(np.ones((64, 64)), r_min=8, r_max=20)

    def test_translation_covariant(self):
        a = ring_image((128, 128), 60, 60, 18)
        b = ring_image((128, 128), 67, 55, 18)
        (ax, ay), _, _ = hough_circle(a)
        (bx, by), _, _ = hough_circle(b)
        assert abs((bx - ax) - (-5)) <= 1
        assert abs((by - ay) - 7) <= 1

    def test_band_validation(self):
        img = ring_image((64, 64), 32, 32, 10)
        with pytest.raises(ValueError):
            hough_circle(img, r_min=20, r_max=10)
        with pytest.raises(ValueError):
            hough_circle(img, r_min=8, r_max=40)  # 40 >= 64/2


class TestBoxes:
    def test_centered_window_arithmetic(self):
        box = make_box((128, 128), 20, (256, 256))
        assert box.corner == (64, 64)
        assert not box.padded

    def test_corner_clamped(self):
        box = make_box((5, 5), 10, (256, 256))
        assert box.corner == (0, 0)

    def test_far_corner_clamped(self):
        box = make_box((250, 252), 10, (256, 256))
        assert box.corner == (128, 128)

    def test_small_image_padded(self):
        box = make_box((50, 50), 10, (100, 120))
        assert box.padded
        assert box.pad == (8, 28)
        assert box.corner == (0, 0)

    def test_center_box_fallback(self):
        box = center_box((200, 200))
        assert box.corner == (36, 36)
        assert box.radius == 0.0


class TestDetectRoi:
    def test_default_band_fits_small_images(self):
        spec = PhantomSpec(image_size=64, frames=4, slices=3,
                           endo_radius_px=(7.0, 8.5), wall_px=(2.5, 3.0))
        vol = generate_phantom(spec, 11).cine
        assert radius_band(vol.data.shape[2:]) == (8, 31)
        assert detect_roi(vol) == detect_roi(vol, *radius_band(vol.data.shape[2:]))

    def test_default_band_at_128_is_the_full_band(self):
        assert radius_band((128, 128)) == (8, 40)

    def test_one_frame_is_a_detection_error(self):
        # no motion to find: callers fall back to center_box, as on no votes
        with pytest.raises(DetectionError, match="1 frame"):
            detect_roi(cine(np.ones((1, 2, 64, 64))))


@st.composite
def crop_cases(draw):
    """(labels, box): window sizes above and below each image side."""
    size = draw(st.integers(2, 12))
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = rng.integers(0, 4, (draw(st.integers(1, 3)), h, w)).astype(np.uint8)
    center = (draw(st.floats(0, w)), draw(st.floats(0, h)))
    return labels, make_box(center, 1.0, (h, w), size)


class TestCropPaste:
    def test_crop_shapes(self):
        data = np.random.default_rng(3).random((2, 3, 160, 160))
        box = make_box((80, 80), 20, (160, 160))
        assert _crop2d(data, box).shape == (2, 3, 128, 128)

    def test_crop_pads_small_images(self):
        data = np.random.default_rng(4).random((1, 1, 100, 100))
        box = make_box((50, 50), 10, (100, 100))
        cropped = _crop2d(data, box)
        assert cropped.shape == (1, 1, 128, 128)
        assert np.all(cropped[:, :, 100:, :] == 0)
        assert np.all(cropped[:, :, :, 100:] == 0)

    @settings(max_examples=100, **PROPERTY)
    @given(crop_cases())
    def test_paste_inverts_crop_in_window(self, case):
        labels, box = case
        cropped = crop_mask(LabelMask(labels), box)
        x0, y0 = box.corner
        px, py = box.pad
        assert cropped.data.shape[1:] == (box.size, box.size)
        assert not cropped.data[:, box.size - py:].any()
        assert not cropped.data[:, :, box.size - px:].any()
        pasted = paste_mask(cropped, box, labels.shape[1:]).data
        window = np.s_[:, y0:y0 + box.size - py, x0:x0 + box.size - px]
        assert np.array_equal(pasted[window], labels[window])
        pasted[window] = 0
        assert not pasted.any()

    def test_paste_restores_window(self):
        rng = np.random.default_rng(5)
        full = rng.integers(0, 4, (3, 160, 160)).astype(np.uint8)
        mask = LabelMask(full)
        box = make_box((71, 90), 15, (160, 160))
        cropped = crop_mask(mask, box)
        pasted = paste_mask(cropped, box, (160, 160))
        x0, y0 = box.corner
        window = np.s_[:, y0:y0 + 128, x0:x0 + 128]
        assert np.array_equal(pasted.data[window], full[window])
        outside = pasted.data.copy()
        outside[window] = 0
        assert np.all(outside == 0)

    def test_paste_roundtrip_padded(self):
        full = np.random.default_rng(6).integers(0, 4, (2, 90, 90)).astype(np.uint8)
        box = make_box((45, 45), 10, (90, 90))
        cropped = crop_mask(LabelMask(full), box)
        pasted = paste_mask(cropped, box, (90, 90))
        assert np.array_equal(pasted.data, full)
