"""Heart localization: temporal first-harmonic saliency + circle Hough.

Periodically moving tissue lights up in the magnitude of the first temporal
DFT coefficient of each pixel series; static anatomy cancels out. The maps
are summed over slices into one saliency image, whose gradient edges vote for
circle centers over a radius band. The winning circle defines a fixed-size
square crop with an inverse mapping for pasting predictions back.
"""

from dataclasses import dataclass

import numpy as np

from .volume import CineVolume, LabelMask

ROI_SIZE = 128
DEFAULT_R_MIN = 8
DEFAULT_R_MAX = 40
EDGE_PERCENTILE = 90.0


class DetectionError(RuntimeError):
    """No usable edges / votes; callers fall back to the image center."""


@dataclass
class RoiBox:
    """Detected circle plus the crop window derived from it.

    center/corner use (x, y) = (column, row) order. `pad` is the number of
    zero rows/cols appended when the source image is smaller than the window.
    """

    center: tuple
    radius: float
    corner: tuple
    size: int = ROI_SIZE
    pad: tuple = (0, 0)

    @property
    def padded(self):
        return self.pad != (0, 0)


def first_harmonic_map(vol: CineVolume) -> np.ndarray:
    """Per-pixel |DFT bin 1| over the T frames: a (Z,H,W) array.

    Only one coefficient is needed, so the sum is computed directly rather
    than through a full FFT.
    """
    t = vol.frames
    if t < 2:
        raise ValueError("first harmonic needs >= 2 frames, got %d" % t)
    angles = 2.0 * np.pi * np.arange(t) / t
    data = vol.data.astype(np.float64)
    re = np.tensordot(np.cos(angles), data, axes=(0, 0))
    im = np.tensordot(np.sin(angles), data, axes=(0, 0))
    return np.hypot(re, im)


def hough_circle(saliency, r_min: int = DEFAULT_R_MIN,
                 r_max: int = DEFAULT_R_MAX):
    """Vote gradient edges of a saliency image into a (cx, cy, r) accumulator.

    Returns ((cx, cy), radius, score) for the global vote maximum. Votes are
    weighted by edge strength and cast along +/- the local gradient direction.
    """
    img = np.asarray(saliency, dtype=np.float64)
    h, w = img.shape
    if not r_min < r_max < min(h, w) / 2:
        raise ValueError("need r_min < r_max < min(H,W)/2, got %d, %d for %dx%d"
                         % (r_min, r_max, h, w))
    gy, gx = np.gradient(img)
    mag = np.hypot(gy, gx)
    thresh = np.percentile(mag, EDGE_PERCENTILE)
    ey, ex = np.nonzero(mag > thresh)
    if ey.size == 0:
        raise DetectionError("no gradient edges above the %gth percentile"
                             % EDGE_PERCENTILE)
    strength = mag[ey, ex]
    uy = gy[ey, ex] / strength
    ux = gx[ey, ex] / strength
    radii = np.arange(r_min, r_max + 1)
    # one row of votes per (radius, sign), in that order: bincount then adds
    # each bin's votes in the same sequence as one scatter-add per row would
    steps = (radii[:, None] * np.array([1.0, -1.0])).reshape(-1, 1)
    cy = np.rint(ey + steps * uy).astype(np.int64)
    cx = np.rint(ex + steps * ux).astype(np.int64)
    ok = (cy >= 0) & (cy < h) & (cx >= 0) & (cx < w)
    bins = (cy * w + cx) * radii.size + np.repeat(np.arange(radii.size), 2)[:, None]
    acc = np.bincount(bins[ok], weights=np.broadcast_to(strength, bins.shape)[ok],
                      minlength=h * w * radii.size).reshape(h, w, radii.size)
    flat = int(np.argmax(acc))
    iy, ix, ir = np.unravel_index(flat, acc.shape)
    return (int(ix), int(iy)), int(radii[ir]), float(acc[iy, ix, ir])


def make_box(center, radius, image_shape, size: int = ROI_SIZE) -> RoiBox:
    """Square window of `size` around the center, clamped to the image; images
    smaller than the window are padded at the bottom/right (flagged)."""
    h, w = image_shape
    cx, cy = center
    x0 = int(round(cx)) - size // 2
    y0 = int(round(cy)) - size // 2
    pad_x = max(size - w, 0)
    pad_y = max(size - h, 0)
    x0 = 0 if pad_x else min(max(x0, 0), w - size)
    y0 = 0 if pad_y else min(max(y0, 0), h - size)
    return RoiBox(center=(float(cx), float(cy)), radius=float(radius),
                  corner=(x0, y0), size=size, pad=(pad_x, pad_y))


def radius_band(image_shape):
    """The default search band, shrunk so it stays legal for small images."""
    h, w = image_shape
    top = min(DEFAULT_R_MAX, min(h, w) // 2 - 1)
    return min(DEFAULT_R_MIN, max(top - 1, 1)), top


def detect_roi(vol: CineVolume, r_min: int | None = None,
               r_max: int | None = None, size: int = ROI_SIZE) -> RoiBox:
    """first_harmonic_map summed over slices -> hough_circle -> crop window.

    A radius bound left at None is taken from radius_band of the image, so
    the default band fits any image size.  Raises DetectionError for a cine
    of fewer than two frames or when no edges vote; callers that need a box
    anyway should fall back to center_box()."""
    if vol.frames < 2:  # first_harmonic_map needs two frames
        raise DetectionError("a cine of %d frame shows no motion" % vol.frames)
    shape = vol.data.shape[2:]
    lo, hi = radius_band(shape)
    center, radius, _ = hough_circle(first_harmonic_map(vol).sum(axis=0),
                                     lo if r_min is None else r_min,
                                     hi if r_max is None else r_max)
    return make_box(center, radius, shape, size)


def center_box(image_shape, size: int = ROI_SIZE) -> RoiBox:
    """Fallback window at the image center with no detected circle."""
    h, w = image_shape
    return make_box((w / 2, h / 2), 0.0, image_shape, size)


def _crop2d(plane, box: RoiBox):
    x0, y0 = box.corner
    px, py = box.pad
    out = plane[..., y0:y0 + box.size - py, x0:x0 + box.size - px]
    if box.padded:
        pads = [(0, 0)] * (plane.ndim - 2) + [(0, py), (0, px)]
        out = np.pad(out, pads)
    return out


def crop_mask(mask: LabelMask, box: RoiBox) -> LabelMask:
    return LabelMask(_crop2d(mask.data, box), num_classes=mask.num_classes,
                     label_names=mask.label_names)


def paste_mask(mask: LabelMask, box: RoiBox, image_shape) -> LabelMask:
    """Inverse of crop_mask: embed a window-sized mask into full-image
    coordinates, background elsewhere."""
    h, w = image_shape
    x0, y0 = box.corner
    px, py = box.pad
    out = np.zeros(mask.data.shape[:-2] + (h, w), dtype=mask.data.dtype)
    window = mask.data[..., :box.size - py, :box.size - px]
    out[..., y0:y0 + box.size - py, x0:x0 + box.size - px] = window
    return LabelMask(out, num_classes=mask.num_classes,
                     label_names=mask.label_names)
