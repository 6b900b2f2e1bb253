"""Synthetic short-axis cine phantoms with exact ground truth.

Each subject is a pulsating annulus (myocardium around the LV blood
pool) with a crescent-shaped RV attached on the left, rendered over one
cardiac cycle.  Structure centers sit on integer pixel coordinates so
every ground-truth volume is an exact lattice count -- a closed-form
function of the generating radii that agrees with pixel counting on the
emitted masks to the last digit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .clinical import count_ml, indices, myocardial_mass, simpson_volume
from .tensor import _lanes
from .volume import BACKGROUND, LV, MYO, RV, CineVolume, Geometry, LabelMask


class SpecError(ValueError):
    """Requested phantom geometry cannot be realized inside the image."""


# Base intensities; the generator adds per-subject jitter and noise.
_INTENSITY = {BACKGROUND: 0.18, RV: 0.50, MYO: 0.40, LV: 0.92}
_NOISE = 0.03                 # sd of the Gaussian noise added to every pixel
_TAPER = 0.88                 # apical slice's radius over the basal one's
_RV_CONTRACTION_SCALE = 0.35  # RV's share of the LV's endocardial contraction


@dataclass(frozen=True)
class PhantomSpec:
    """Distribution of one pathology bin.

    Scalar ranges are sampled uniformly per subject; factors are fixed.
    ``contraction`` is the fractional loss of endocardial radius at
    end-systole, so the analytic ejection fraction of an untapered
    cylinder would be ``1 - (1 - contraction)^2``.  Noise, taper and the
    RV contraction scale are fixed for every bin (module constants).
    """

    group: str = "normal"
    image_size: int = 128
    frames: int = 10
    slices: int = 7
    endo_radius_px: tuple = (11.0, 13.0)
    wall_px: tuple = (3.5, 4.5)
    contraction: tuple = (0.42, 0.50)
    rv_radius_factor: float = 0.85
    rv_offset_factor: float = 0.65
    center_jitter_px: int = 5

    def __post_init__(self):
        problems = []
        if self.image_size < 32:
            problems.append("image_size below 32")
        if self.frames < 2 or self.frames % 2:
            problems.append("frames must be even and >= 2")
        if self.slices < 1:
            problems.append("slices must be positive")
        for name in ("endo_radius_px", "wall_px", "contraction"):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi):
                problems.append("%s range is not ordered" % name)
        if self.contraction[1] >= 1.0:
            problems.append("contraction must stay below 1")
        if self.center_jitter_px < 0:
            problems.append("jitter must be nonnegative")
        if problems:
            raise SpecError("; ".join(problems))
        # Worst-case footprint at end-diastole: the RV disk reaches
        # furthest left, the epicardium bounds everything else.
        r_epi = self.endo_radius_px[1] + self.wall_px[1]
        reach = max(r_epi, (self.rv_offset_factor + self.rv_radius_factor) * r_epi)
        if reach + self.center_jitter_px > self.image_size / 2 - 2:
            raise SpecError(
                "structures reach %.1f px from center but only %.1f px fit"
                % (reach + self.center_jitter_px, self.image_size / 2 - 2))


@dataclass
class PhantomSubject:
    name: str
    group: str
    cine: CineVolume
    ed_frame: int
    es_frame: int
    ed_mask: LabelMask
    es_mask: LabelMask
    truth: dict

    @property
    def geometry(self):
        return self.cine.geometry


def disk_pixel_count(radius):
    """Number of integer lattice points (i, j) with i^2 + j^2 <= radius^2.

    Matches ``((X - cx)^2 + (Y - cy)^2 <= radius^2).sum()`` for any
    integer center far enough from the image border.
    """
    if radius <= 0:
        return 0
    rr = radius * radius
    total = 0
    for i in range(-int(math.floor(radius)), int(math.floor(radius)) + 1):
        rem = rr - i * i
        if rem >= 0:
            total += 2 * math.isqrt(int(math.floor(rem))) + 1
    return total


def _phase(t, frames):
    # 0 at end-diastole (t = 0), exactly 1 at end-systole (t = frames/2).
    return 0.5 * (1.0 - math.cos(2.0 * math.pi * t / frames))


def generate_phantom(spec: PhantomSpec, seed, name=None) -> PhantomSubject:
    """Render one subject; same (spec, seed) is bitwise reproducible."""
    geometry = Geometry()
    rng = np.random.default_rng(seed)

    r_endo_ed = rng.uniform(*spec.endo_radius_px)
    wall = rng.uniform(*spec.wall_px)
    contraction = rng.uniform(*spec.contraction)
    half = spec.image_size // 2
    jitter = spec.center_jitter_px
    cx = half + int(rng.integers(-jitter, jitter + 1))
    cy = half + int(rng.integers(-jitter, jitter + 1))

    r_epi_ed = r_endo_ed + wall
    wall_area = r_epi_ed ** 2 - r_endo_ed ** 2  # conserved: incompressible wall
    r_rv_ed = spec.rv_radius_factor * r_epi_ed
    rv_dx_ed = spec.rv_offset_factor * r_epi_ed

    shade = dict(_INTENSITY)
    for key in shade:
        shade[key] = float(np.clip(shade[key] + rng.uniform(-0.04, 0.04), 0.02, 0.98))

    size = spec.image_size
    cols = np.arange(size)[None, :]
    rows = np.arange(size)[:, None]
    d_lv = (cols - cx) ** 2 + (rows - cy) ** 2
    taper = np.linspace(1.0, _TAPER, spec.slices)

    labels = np.zeros((spec.frames, spec.slices, size, size), dtype=np.uint8)
    for t in range(spec.frames):
        ph = _phase(t, spec.frames)
        r_endo = r_endo_ed * (1.0 - contraction * ph)
        r_epi = math.sqrt(r_endo ** 2 + wall_area)
        # The crescent contracts as a scaled copy of its ED shape, never
        # slower than the epicardium -- otherwise the receding wall would
        # hand it area and flip its ejection fraction negative.
        s_rv = min(1.0 - _RV_CONTRACTION_SCALE * contraction * ph,
                   r_epi / r_epi_ed)
        d_rv = (cols - (cx - rv_dx_ed * s_rv)) ** 2 + (rows - cy) ** 2
        r_rv = r_rv_ed * s_rv
        for z in range(spec.slices):
            tz = taper[z]
            frame = labels[t, z]
            frame[d_rv <= (r_rv * tz) ** 2] = RV
            frame[d_lv <= (r_epi * tz) ** 2] = MYO
            frame[d_lv <= (r_endo * tz) ** 2] = LV

    lut = np.array([shade[BACKGROUND], shade[RV], shade[MYO], shade[LV]],
                   dtype=np.float32)
    intensity = np.take(lut, labels)
    intensity += rng.normal(0.0, _NOISE, size=intensity.shape).astype(np.float32)
    np.clip(intensity, 0.0, 1.0, out=intensity)

    ed, es = 0, spec.frames // 2
    ed_mask = LabelMask(labels[ed].copy())
    es_mask = LabelMask(labels[es].copy())

    # Closed-form volumes: per-slice lattice counts of the generating
    # radii, converted to mL as Simpson summation converts its counts, so
    # the two agree to the last bit.
    def stack_count(radius):
        return sum(disk_pixel_count(radius * tz) for tz in taper)

    r_endo_es = r_endo_ed * (1.0 - contraction)
    lv_edv = count_ml(stack_count(r_endo_ed), geometry)
    lv_esv = count_ml(stack_count(r_endo_es), geometry)
    if lv_edv <= 0:
        raise SpecError("end-diastolic blood pool vanished; radii too small")
    myo_px = stack_count(r_epi_ed) - stack_count(r_endo_ed)
    rv_edv = simpson_volume(ed_mask, RV, geometry)
    rv_esv = simpson_volume(es_mask, RV, geometry)

    truth = {
        "lv_edv_ml": lv_edv,
        "lv_esv_ml": lv_esv,
        "ef_percent": indices(lv_edv, lv_esv)[1],
        "rv_edv_ml": rv_edv,
        "rv_esv_ml": rv_esv,
        "rv_ef_percent": indices(rv_edv, rv_esv)[1],
        "myo_mass_g": myocardial_mass(count_ml(myo_px, geometry)),
        "roi_center": [cx, cy],
        "roi_radius_px": r_endo_ed * (1.0 - 0.5 * contraction),
    }

    return PhantomSubject(
        name=name or "%s-%05d" % (spec.group, int(seed) % 100000),
        group=spec.group,
        cine=CineVolume(intensity, geometry),
        ed_frame=ed, es_frame=es,
        ed_mask=ed_mask, es_mask=es_mask,
        truth=truth)


def default_bins():
    """Five pathology bins with distinct ejection-fraction ranges."""
    return {
        "normal": PhantomSpec(group="normal"),
        "low_ef": PhantomSpec(group="low_ef", endo_radius_px=(11.0, 13.5),
                              wall_px=(3.0, 4.0), contraction=(0.08, 0.14)),
        "dilated": PhantomSpec(group="dilated", endo_radius_px=(13.0, 14.5),
                               wall_px=(2.5, 3.5), contraction=(0.16, 0.24)),
        "thick_wall": PhantomSpec(group="thick_wall", endo_radius_px=(9.0, 10.5),
                                  wall_px=(5.0, 6.5), contraction=(0.30, 0.38)),
        "large_rv": PhantomSpec(group="large_rv", endo_radius_px=(10.0, 12.0),
                                wall_px=(3.0, 4.0), contraction=(0.38, 0.46),
                                rv_radius_factor=0.95, rv_offset_factor=0.75),
    }


def build_cohort(count, seed):
    """Generate ``count`` subjects cycling through the default pathology bins.

    Subject i is rendered from the i-th child seed of ``seed``, on the
    lanes (tensor.py) of this thread or lanes opened for the call; the
    subjects share no state, so the bytes do not depend on the lane
    count."""
    if count < 1:
        raise ValueError("count must be positive")
    bins = default_bins()
    order = list(bins)
    rng = np.random.default_rng(seed)
    child_seeds = rng.integers(0, 2 ** 31, size=count)

    def subject(i):
        spec = bins[order[i % len(order)]]
        return generate_phantom(spec, int(child_seeds[i]), name="%s-%03d" % (spec.group, i))

    with _lanes() as pool:
        return pool.map(subject, range(count))
