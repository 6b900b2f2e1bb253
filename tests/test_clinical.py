"""Simpson volumes, derived indices, and report assembly."""

import numpy as np
import pytest

from condenseg.clinical import (
    ClinicalReport,
    indices,
    myocardial_mass,
    report,
    simpson_volume,
)
from condenseg.phantom import build_cohort
from condenseg.volume import Geometry, LabelMask, LV, MYO, RV


def stack_with(label, pixels_per_slice, slices=10, shape=(40, 40)):
    data = np.zeros((slices,) + shape, dtype=np.uint8)
    for z in range(slices):
        flat = data[z].ravel()
        flat[:pixels_per_slice] = label
    return LabelMask(data)


class TestSimpsonVolume:
    def test_empty_mask_zero(self):
        geom = Geometry((1.5, 1.5), 10.0, 0.0)
        assert simpson_volume(stack_with(LV, 0), LV, geom) == 0.0

    def test_cylinder_22_5_ml(self):
        geom = Geometry((1.5, 1.5), 10.0, 0.0)
        vol = simpson_volume(stack_with(LV, 100), LV, geom)
        assert abs(vol - 22.5) < 1e-12

    def test_thickness_doubles_volume(self):
        a = simpson_volume(stack_with(LV, 50), LV, Geometry((1.0, 1.0), 5.0, 0.0))
        b = simpson_volume(stack_with(LV, 50), LV, Geometry((1.0, 1.0), 10.0, 0.0))
        assert abs(b - 2 * a) < 1e-12

    def test_gap_added_to_thickness(self):
        a = simpson_volume(stack_with(LV, 50), LV, Geometry((1.0, 1.0), 8.0, 2.0))
        b = simpson_volume(stack_with(LV, 50), LV, Geometry((1.0, 1.0), 10.0, 0.0))
        assert abs(a - b) < 1e-12

    def test_additive_over_slice_subsets(self):
        geom = Geometry((1.5, 1.5), 8.0, 2.0)
        mask = stack_with(LV, 77, slices=6)
        total = simpson_volume(mask, LV, geom)
        parts = (simpson_volume(LabelMask(mask.data[:2]), LV, geom)
                 + simpson_volume(LabelMask(mask.data[2:]), LV, geom))
        assert abs(total - parts) < 1e-12


class TestIndices:
    def test_equal_volumes(self):
        assert indices(80.0, 80.0) == (0.0, 0.0)

    def test_definitional_case(self):
        sv, ef = indices(120.0, 48.0)
        assert sv == 72.0 and ef == 60.0

    def test_ef_without_edv_is_nan(self):
        for edv in (0.0, -1.0):
            sv, ef = indices(edv, 10.0)
            assert sv == edv - 10.0 and np.isnan(ef)

    def test_esv_above_edv_warns_negative_ef(self):
        with pytest.warns(RuntimeWarning):
            sv, ef = indices(50.0, 60.0)
        assert sv == -10.0 and ef < 0


class TestMass:
    def test_zero(self):
        assert myocardial_mass(0.0) == 0.0

    def test_density_value(self):
        assert abs(myocardial_mass(100.0) - 105.0) < 1e-12

    def test_linear(self):
        assert abs(myocardial_mass(30.0) * 2 - myocardial_mass(60.0)) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            myocardial_mass(-1.0)


def two_phase_masks(ed_px, es_px, slices=10):
    def make(lv_px):
        data = np.zeros((slices, 40, 40), dtype=np.uint8)
        for z in range(slices):
            flat = data[z].ravel()
            flat[:lv_px] = LV
            flat[lv_px:lv_px + 60] = MYO
            flat[lv_px + 60:lv_px + 140] = RV
        return LabelMask(data)
    return make(ed_px), make(es_px)


class TestReport:
    def test_cylinder_ef_60(self):
        ed, es = two_phase_masks(100, 40)
        rep = report(ed, es, Geometry((1.5, 1.5), 10.0, 0.0))
        assert abs(rep.ef_percent - 60.0) < 1e-12
        assert abs(rep.lv_edv_ml - 22.5) < 1e-12
        assert abs(rep.sv_ml - (rep.lv_edv_ml - rep.lv_esv_ml)) < 1e-12

    def test_identical_phases(self):
        ed, es = two_phase_masks(80, 80)
        rep = report(ed, es, Geometry())
        assert rep.ef_percent == 0.0 and rep.sv_ml == 0.0

    def test_fields_match_per_label_volumes(self):
        ed, es = two_phase_masks(90, 50)
        geom = Geometry((1.5, 1.5), 8.0, 2.0)
        rep = report(ed, es, geom)
        assert rep.rv_edv_ml == simpson_volume(ed, RV, geom)
        assert rep.rv_esv_ml == simpson_volume(es, RV, geom)
        assert abs(rep.myo_mass_g - 1.05 * simpson_volume(ed, MYO, geom)) < 1e-12

    def test_missing_frame_named(self):
        ed, es = two_phase_masks(80, 50)
        with pytest.raises(ValueError, match="ES"):
            report(ed, None, Geometry())
        with pytest.raises(ValueError, match="ED"):
            report(None, es, Geometry())

    def test_overflowing_geometry_refused(self):
        sub = build_cohort(1, seed=3)[0]
        with pytest.raises(ValueError, match="pixel_spacing_mm must be at most"):
            report(sub.ed_mask, sub.es_mask, Geometry((1e200, 1e200), 1e200, 0.0))

    def test_extra_background_class_ignored(self):
        ed, es = two_phase_masks(90, 50)
        geom = Geometry()
        base = report(ed, es, geom)
        ed2 = LabelMask(np.where(ed.data == 0, 4, ed.data).astype(np.uint8),
                        num_classes=5, label_names=list(ed.label_names) + ["air"])
        rep = report(ed2, es, geom)
        assert rep.to_dict() == base.to_dict()

    def test_parameter_list_stable(self):
        assert ClinicalReport.PARAMETERS == (
            "lv_edv_ml", "lv_esv_ml", "ef_percent", "rv_ef_percent", "myo_mass_g")
