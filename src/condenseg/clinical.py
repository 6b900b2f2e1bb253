"""Clinical parameter estimation from segmentation masks.

Volumes use Simpson's method: per-slice cross-sectional areas (pixel counts
times pixel area) stacked with the slice step (thickness + gap). Derived
indices follow the usual definitions: SV = EDV - ESV, EF = 100 * SV / EDV,
myocardial mass = myocardium volume at end-diastole times 1.05 g/mL.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .volume import Geometry, LabelMask, LV, MYO, RV

MYO_DENSITY_G_PER_ML = 1.05


@dataclass
class SegmentationResult:
    """ED/ES label stacks sharing one physical geometry."""

    ed_mask: LabelMask
    es_mask: LabelMask
    geometry: Geometry


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


def simpson_volume(mask, label: int, geom: Geometry) -> float:
    """Sum over slices of pixel_count * pixel_area * slice_step, in mL."""
    data = mask.data if isinstance(mask, LabelMask) else np.asarray(mask)
    if data.ndim != 3:
        raise ValueError("simpson_volume expects a (Z,H,W) stack, got %s"
                         % (data.shape,))
    return count_ml(int((data == label).sum()), geom)


def count_ml(count, geom: Geometry) -> float:
    """Volume in mL of `count` voxels: pixel area times slice step."""
    sx, sy = geom.pixel_spacing_mm
    return count * sx * sy * geom.slice_step_mm() / 1000.0


def indices(edv: float, esv: float):
    """(stroke volume mL, ejection fraction %) from the two volumes."""
    if edv <= 0:
        raise ValueError("ejection fraction undefined for EDV = %g" % edv)
    if esv > edv:
        warnings.warn("ESV %.2f mL exceeds EDV %.2f mL; EF will be negative"
                      % (esv, edv), RuntimeWarning, stacklevel=2)
    sv = edv - esv
    return sv, 100.0 * sv / edv


def myocardial_mass(myo_volume_ml: float) -> float:
    if myo_volume_ml < 0:
        raise ValueError("volume must be non-negative")
    return myo_volume_ml * MYO_DENSITY_G_PER_ML


def report(seg: SegmentationResult) -> ClinicalReport:
    """Full parameter set from ED and ES masks."""
    if seg.ed_mask is None:
        raise ValueError("missing ED mask")
    if seg.es_mask is None:
        raise ValueError("missing ES mask")
    g = seg.geometry
    lv_edv = simpson_volume(seg.ed_mask, LV, g)
    lv_esv = simpson_volume(seg.es_mask, LV, g)
    rv_edv = simpson_volume(seg.ed_mask, RV, g)
    rv_esv = simpson_volume(seg.es_mask, RV, g)
    sv, ef = indices(lv_edv, lv_esv)
    _, rv_ef = indices(rv_edv, rv_esv)
    mass = myocardial_mass(simpson_volume(seg.ed_mask, MYO, g))
    return ClinicalReport(lv_edv_ml=lv_edv, lv_esv_ml=lv_esv, sv_ml=sv,
                          ef_percent=ef, rv_edv_ml=rv_edv, rv_esv_ml=rv_esv,
                          rv_ef_percent=rv_ef, myo_mass_g=mass)
