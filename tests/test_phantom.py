"""Phantom generator contracts: determinism, label monotonicity, geometry."""

import tracemalloc

import numpy as np
import pytest

from szdl.phantom import PhantomSpec, cavity_roi, generate_phantom

from oracles import central_region


class TestDeterminism:
    def test_same_spec_same_volume(self):
        spec = PhantomSpec(size=24, effect_size=0.5, noise_std=0.05, seed=42)
        a = generate_phantom(spec, 1)
        b = generate_phantom(spec, 1)
        np.testing.assert_array_equal(a.data, b.data)

    def test_zero_effect_makes_labels_identical(self):
        spec = PhantomSpec(size=24, effect_size=0.0, noise_std=0.05, seed=7)
        a = generate_phantom(spec, 0)
        b = generate_phantom(spec, 1)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        a = generate_phantom(PhantomSpec(size=24, seed=1), 0)
        b = generate_phantom(PhantomSpec(size=24, seed=2), 0)
        assert not np.array_equal(a.data, b.data)


class TestGeometry:
    def test_label1_has_more_dark_central_voxels(self):
        spec = PhantomSpec(size=48, effect_size=0.5, noise_std=0.0, seed=3)
        region = central_region(48)
        dark0 = np.count_nonzero((generate_phantom(spec, 0).data < 0.2) & region)
        dark1 = np.count_nonzero((generate_phantom(spec, 1).data < 0.2) & region)
        assert dark1 > dark0

    def test_cavity_mean_monotone_in_effect_size(self):
        region = central_region(32)
        means = []
        for effect in (0.0, 0.25, 0.5, 0.75, 1.0):
            spec = PhantomSpec(size=32, effect_size=effect, noise_std=0.0, seed=5)
            means.append(float(generate_phantom(spec, 1).data[region].mean()))
        assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))

    def test_values_clamped(self):
        vol = generate_phantom(PhantomSpec(size=24, noise_std=0.5, seed=9), 1)
        assert vol.data.min() >= 0.0 and vol.data.max() <= 1.0

    def test_roi_covers_cavities(self):
        spec = PhantomSpec(size=48, effect_size=0.5, noise_std=0.0, seed=11)
        vol = generate_phantom(spec, 1)
        roi = cavity_roi(spec, margin_voxels=6.0)
        # cavity voxels sit at 0.05; background (exactly 0) is not cavity
        cavity = (vol.data > 0.01) & (vol.data < 0.2)
        assert np.count_nonzero(cavity & roi) / np.count_nonzero(cavity) > 0.9

    def test_roi_is_minority_of_volume(self):
        spec = PhantomSpec(size=48, effect_size=0.5)
        roi = cavity_roi(spec, margin_voxels=6.0)
        assert roi.mean() < 0.25


class TestMemory:
    @pytest.mark.parametrize("label", [0, 1])
    def test_peak_below_six_volumes(self, label):
        # per-axis coordinate grids broadcast: no dense [n, n, n] grid per axis
        spec = PhantomSpec(size=64, seed=13)
        volume_bytes = 64 ** 3 * 8
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            generate_phantom(spec, label)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 6 * volume_bytes


class TestValidation:
    def test_size_too_small(self):
        with pytest.raises(ValueError, match="phantom size must be >= 16"):
            PhantomSpec(size=8)

    def test_negative_effect(self):
        with pytest.raises(ValueError):
            PhantomSpec(size=24, effect_size=-0.1)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            generate_phantom(PhantomSpec(size=24), 2)
