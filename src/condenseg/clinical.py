"""Clinical parameter estimation from segmentation masks.

Volumes use Simpson's method: per-slice cross-sectional areas (pixel counts
times pixel area) stacked with the slice step (thickness + gap). Derived
indices follow the usual definitions: SV = EDV - ESV, EF = 100 * SV / EDV,
myocardial mass = myocardium volume at end-diastole times 1.05 g/mL.
"""

from dataclasses import dataclass

import numpy as np

from .volume import Geometry, LabelMask, LV, MYO, RV

MYO_DENSITY_G_PER_ML = 1.05


@dataclass
class ClinicalReport:
    lv_edv_ml: float
    lv_esv_ml: float
    sv_ml: float
    ef_percent: float
    rv_edv_ml: float
    rv_esv_ml: float
    rv_ef_percent: float
    myo_mass_g: float

    def to_dict(self):
        return {k: float(v) for k, v in self.__dict__.items()}

    PARAMETERS = ("lv_edv_ml", "lv_esv_ml", "ef_percent", "rv_ef_percent",
                  "myo_mass_g")


def simpson_volume(mask: LabelMask, label: int, geom: Geometry) -> float:
    """Sum over slices of pixel_count * pixel_area * slice_step, in mL."""
    if mask.data.ndim != 3:
        raise ValueError("simpson_volume expects a (Z,H,W) stack, got %s"
                         % (mask.data.shape,))
    return count_ml(int(np.count_nonzero(mask.data == label)), geom)


def count_ml(count, geom: Geometry) -> float:
    """Volume in mL of `count` voxels: pixel area times slice step."""
    sx, sy = geom.pixel_spacing_mm
    return count * sx * sy * geom.slice_step_mm() / 1000.0


def indices(edv: float, esv: float):
    """(stroke volume mL, ejection fraction %) from the two volumes; the
    EF is NaN when the EDV is not positive, negative when the ESV exceeds it."""
    sv = edv - esv
    if edv <= 0:
        return sv, float("nan")
    return sv, 100.0 * sv / edv


def myocardial_mass(myo_volume_ml: float) -> float:
    if myo_volume_ml < 0:
        raise ValueError("volume must be non-negative")
    return myo_volume_ml * MYO_DENSITY_G_PER_ML


def report(ed_mask: LabelMask, es_mask: LabelMask, geometry: Geometry) -> ClinicalReport:
    """Full parameter set from the ED and ES label stacks of one geometry."""
    if ed_mask is None:
        raise ValueError("missing ED mask")
    if es_mask is None:
        raise ValueError("missing ES mask")
    lv_edv = simpson_volume(ed_mask, LV, geometry)
    lv_esv = simpson_volume(es_mask, LV, geometry)
    rv_edv = simpson_volume(ed_mask, RV, geometry)
    rv_esv = simpson_volume(es_mask, RV, geometry)
    sv, ef = indices(lv_edv, lv_esv)
    _, rv_ef = indices(rv_edv, rv_esv)
    mass = myocardial_mass(simpson_volume(ed_mask, MYO, geometry))
    return ClinicalReport(lv_edv_ml=lv_edv, lv_esv_ml=lv_esv, sv_ml=sv,
                          ef_percent=ef, rv_edv_ml=rv_edv, rv_esv_ml=rv_esv,
                          rv_ef_percent=rv_ef, myo_mass_g=mass)
