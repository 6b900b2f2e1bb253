"""Phantom generator: geometry, ground truth, determinism."""

import threading

import numpy as np
import pytest

from condenseg import phantom as phantom_mod
from condenseg import tensor as tensor_mod
from condenseg.clinical import report, simpson_volume
from condenseg.phantom import (
    PhantomSpec,
    SpecError,
    build_cohort,
    default_bins,
    disk_pixel_count,
    generate_phantom,
)
from condenseg.volume import LV, MYO, RV


class TestSpecValidation:
    def test_defaults_ok(self):
        PhantomSpec()

    def test_geometry_overflow(self):
        with pytest.raises(SpecError):
            PhantomSpec(image_size=48, endo_radius_px=(14.0, 16.0))

    def test_odd_frames_rejected(self):
        with pytest.raises(SpecError):
            PhantomSpec(frames=9)

    def test_unordered_range(self):
        with pytest.raises(SpecError):
            PhantomSpec(wall_px=(5.0, 3.0))

    def test_contraction_below_one(self):
        with pytest.raises(SpecError):
            PhantomSpec(contraction=(0.5, 1.0))


class TestDiskCount:
    def test_matches_brute_force(self):
        grid = np.arange(-64, 65)
        d2 = grid[None, :] ** 2 + grid[:, None] ** 2
        for r in (0.5, 1.0, 3.0, 7.3, 12.0, 15.9, 20.5):
            assert disk_pixel_count(r) == int((d2 <= r * r).sum()), r

    def test_zero_radius(self):
        assert disk_pixel_count(0.0) == 0
        assert disk_pixel_count(0.5) == 1


class TestGroundTruth:
    def test_closed_form_matches_mask_counts(self):
        for seed in range(4):
            s = generate_phantom(PhantomSpec(), seed)
            g = s.geometry
            assert s.truth["lv_edv_ml"] == simpson_volume(s.ed_mask, LV, g)
            assert s.truth["lv_esv_ml"] == simpson_volume(s.es_mask, LV, g)
            want = 1.05 * simpson_volume(s.ed_mask, MYO, g)
            assert abs(s.truth["myo_mass_g"] - want) < 1e-9

    def test_report_recovers_truth_ef(self):
        s = generate_phantom(PhantomSpec(), 3)
        rep = report(s.ed_mask, s.es_mask, s.geometry)
        assert abs(rep.ef_percent - s.truth["ef_percent"]) < 1e-9
        assert abs(rep.rv_ef_percent - s.truth["rv_ef_percent"]) < 1e-9

    def test_zero_contraction(self):
        spec = PhantomSpec(contraction=(0.0, 0.0))
        s = generate_phantom(spec, 5)
        assert np.array_equal(s.ed_mask.data, s.es_mask.data)
        assert s.truth["ef_percent"] == 0.0
        assert s.truth["rv_ef_percent"] == 0.0

    def test_rv_ef_positive_across_bins(self):
        for spec in default_bins().values():
            for seed in range(5):
                s = generate_phantom(spec, seed)
                assert s.truth["rv_ef_percent"] > 0, (spec.group, seed)

    def test_apex_smaller_than_base(self):
        s = generate_phantom(PhantomSpec(), 1)
        lv = s.ed_mask.data == LV
        assert lv[-1].sum() < lv[0].sum()

    def test_structures_clear_of_border(self):
        s = generate_phantom(PhantomSpec(), 2)
        m = s.ed_mask.data
        assert not m[:, 0].any() and not m[:, -1].any()
        assert not m[:, :, 0].any() and not m[:, :, -1].any()


class TestDeterminism:
    def test_bitwise_identical(self):
        spec = default_bins()["dilated"]
        a = generate_phantom(spec, 42)
        b = generate_phantom(spec, 42)
        assert a.cine.data.tobytes() == b.cine.data.tobytes()
        assert a.ed_mask.data.tobytes() == b.ed_mask.data.tobytes()
        assert a.truth == b.truth

    def test_cine_is_float32_in_unit_range(self):
        # NumPy 1.25 and 2 alike: the noise and the clip stay in float32
        data = generate_phantom(PhantomSpec(), 4).cine.data
        assert data.dtype == np.float32
        assert 0.0 <= data.min() and data.max() <= 1.0

    def test_seed_changes_subject(self):
        spec = PhantomSpec()
        a = generate_phantom(spec, 1)
        b = generate_phantom(spec, 2)
        assert a.cine.data.tobytes() != b.cine.data.tobytes()


class TestCohort:
    def test_round_robin_groups(self):
        subs = build_cohort(50, seed=0)
        counts = {}
        for s in subs:
            counts[s.group] = counts.get(s.group, 0) + 1
        assert set(counts) == set(default_bins())
        assert all(n == 10 for n in counts.values())

    def test_names_unique(self):
        subs = build_cohort(23, seed=1)
        assert len({s.name for s in subs}) == 23

    def test_ef_separates_bins(self):
        subs = build_cohort(25, seed=3)
        by_group = {}
        for s in subs:
            by_group.setdefault(s.group, []).append(s.truth["ef_percent"])
        assert max(by_group["low_ef"]) < min(by_group["dilated"])
        assert max(by_group["dilated"]) < min(by_group["normal"])

    def test_count_positive(self):
        with pytest.raises(ValueError):
            build_cohort(0, seed=0)

    def test_intensities_finite(self):
        assert all(np.isfinite(s.cine.data).all() for s in build_cohort(5, seed=0))


def _serial_cohort(count, seed):
    # build_cohort's draw, one subject after another on this thread
    bins = default_bins()
    order = list(bins)
    child_seeds = np.random.default_rng(seed).integers(0, 2 ** 31, size=count)
    return [generate_phantom(bins[order[i % len(order)]], int(child_seeds[i]),
                             name="%s-%03d" % (order[i % len(order)], i))
            for i in range(count)]


def _cohort_bytes(subjects):
    return [(s.name, s.group, s.ed_frame, s.es_frame, s.truth, s.cine.data.dtype.str,
             s.cine.data.tobytes(), s.ed_mask.data.tobytes(), s.es_mask.data.tobytes())
            for s in subjects]


class TestCohortLanes:
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_bytes_do_not_depend_on_lanes(self, monkeypatch, count):
        # 7 subjects split 2/2/3 over three lanes, 1 and 2 leave lanes idle
        before = threading.active_count()
        runs = []
        for lanes in (1, 3):
            monkeypatch.setattr(tensor_mod, "_inference_threads", lambda: lanes)
            with tensor_mod._lanes():
                runs.append(_cohort_bytes(build_cohort(count, seed=5)))
            assert threading.active_count() == before
        assert runs[0] == runs[1] == _cohort_bytes(_serial_cohort(count, seed=5))

    @pytest.mark.parametrize("failing", [(0,), (3,), (6,), (3, 5), (5, 6)],
                             ids=["first", "middle", "last", "two_lanes", "one_lane"])
    def test_first_failing_subject_raises(self, monkeypatch, failing):
        real = phantom_mod.generate_phantom

        def flaky(spec, seed, name=None):
            if int(name[-3:]) in failing:
                raise SpecError("subject %s" % name[-3:])
            return real(spec, seed, name)

        monkeypatch.setattr(phantom_mod, "generate_phantom", flaky)
        monkeypatch.setattr(tensor_mod, "_inference_threads", lambda: 3)
        before = threading.active_count()
        with tensor_mod._lanes():
            with pytest.raises(SpecError, match="subject %03d" % failing[0]):
                build_cohort(7, seed=5)
        assert threading.active_count() == before
