"""Segmentation and agreement metrics: Dice, Hausdorff (mm), Pearson."""

import numpy as np

from .volume import MAX_MM, LabelMask


def _as_array(mask):
    return mask.data if isinstance(mask, LabelMask) else np.asarray(mask)


def dice_score(a, b, label: int) -> float:
    """2|A n B| / (|A| + |B|); 1.0 when both sets are empty."""
    a = _as_array(a)
    b = _as_array(b)
    if a.shape != b.shape:
        raise ValueError("mask shapes differ: %s vs %s" % (a.shape, b.shape))
    sa = a == label
    sb = b == label
    denom = int(np.count_nonzero(sa)) + int(np.count_nonzero(sb))
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(sa & sb)) / denom


def boundary_points(binary: np.ndarray) -> np.ndarray:
    """(N, ndim) coordinates of set pixels with an in-plane 4-neighbor outside
    the set (image borders count as outside); a (Z,H,W) stack slice by slice."""
    interior = np.zeros_like(binary)
    interior[..., 1:-1, 1:-1] = (binary[..., :-2, 1:-1] & binary[..., 2:, 1:-1]
                                 & binary[..., 1:-1, :-2] & binary[..., 1:-1, 2:])
    return np.argwhere(binary & ~interior)


def _nearest_max(pts_a, pts_b, scale):
    # squared: max over a of min over b; brute force in chunks
    worst = 0.0
    b = pts_b * scale
    for start in range(0, len(pts_a), 512):
        a = pts_a[start:start + 512] * scale
        dy = a[:, 0, None] - b[:, 0]
        dx = a[:, 1, None] - b[:, 1]
        dy *= dy
        dx *= dx
        dy += dx
        worst = max(worst, dy.min(axis=1).max())
        del dy, dx  # before the next chunk's
    return worst


def hausdorff(a, b, label: int, spacing_mm=(1.0, 1.0)) -> float:
    """Symmetric Hausdorff distance between boundary point sets, in mm.

    2-D masks are compared in-plane; (Z,H,W) stacks take the worst slice
    (in-plane distances only, matching per-slice annotation practice).
    Exact: slices whose label sets are equal are dropped before any boundary
    is taken (their distance is 0), and only boundary pixels the masks do not
    share are measured (a shared one's nearest distance is 0).
    """
    a = _as_array(a)
    b = _as_array(b)
    if a.shape != b.shape:
        raise ValueError("mask shapes differ: %s vs %s" % (a.shape, b.shape))
    if a.ndim not in (2, 3):
        raise ValueError("hausdorff needs (H,W) or (Z,H,W) masks, got shape %s" % (a.shape,))
    scale = np.asarray(spacing_mm, dtype=np.float64)
    if scale.shape not in ((), (2,)) or not np.all((0 < scale) & (scale <= MAX_MM)):
        raise ValueError("spacing must be one or two finite positive numbers of at most"
                         " %g mm, got %r" % (MAX_MM, spacing_mm))
    scale = np.broadcast_to(scale, 2)[::-1]  # (sx, sy) -> (row, col) steps
    if a.ndim == 2:
        a, b = a[None], b[None]
    sa, sb = a == label, b == label
    # crop to the union's bounding box: every pixel outside it is outside both sets
    footprint = (sa | sb).any(axis=0)
    rows = np.flatnonzero(footprint.any(axis=1))
    if len(rows) == 0:
        raise ValueError("hausdorff undefined: label %d empty in both masks" % label)
    cols = np.flatnonzero(footprint.any(axis=0))
    box = np.s_[:, rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    sa, sb = sa[box], sb[box]
    if (sa.any(axis=(1, 2)) != sb.any(axis=(1, 2))).any():
        raise ValueError("hausdorff undefined: label %d empty in one mask" % label)
    differ = (sa != sb).any(axis=(1, 2))  # an equal slice's boundaries are equal: distance 0
    if not differ.any():
        return 0.0
    sa, sb = sa[differ], sb[differ]  # z below indexes the kept slices; only (row, col) is measured
    pa, pb = boundary_points(sa), boundary_points(sb)
    ka, kb = (np.ravel_multi_index(p.T, sa.shape) for p in (pa, pb))
    only_a, only_b = ~np.isin(ka, kb), ~np.isin(kb, ka)
    pa, pb = (p + (0, rows[0], cols[0]) for p in (pa, pb))  # back to whole-slice pixels
    worst = 0.0
    for z in np.union1d(pa[only_a, 0], pb[only_b, 0]):  # slices whose boundaries differ
        in_a, in_b = pa[:, 0] == z, pb[:, 0] == z
        worst = max(worst, _nearest_max(pa[in_a & only_a, 1:], pb[in_b, 1:], scale),
                    _nearest_max(pb[in_b & only_b, 1:], pa[in_a, 1:], scale))
    return float(np.sqrt(worst))


def pearson(x, y) -> float:
    """Sample correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-D series")
    if len(x) < 2:
        raise ValueError("pearson needs at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float((xc * xc).sum())
    vy = float((yc * yc).sum())
    if vx == 0 or vy == 0:
        raise ValueError("pearson undefined for zero-variance series")
    return float((xc * yc).sum() / np.sqrt(vx * vy))
