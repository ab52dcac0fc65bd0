"""Augmentation transforms: identity degeneration, oracles, pipeline rules."""

import numpy as np
import pytest

from szdl.augment import (
    AugmentSpec,
    add_noise,
    affine_resample,
    apply_pipeline,
    apply_plan,
    bias_field,
    blur,
    elastic_deform,
    motion_artifact,
    plan_pipeline,
)
from szdl.nifti import Volume


def random_volume(size=16, seed=0, spacing=(1.0, 1.0, 1.0)):
    rng = np.random.default_rng(seed)
    return Volume(rng.random((size, size, size), dtype=np.float32), voxel_size=spacing)


class TestBlur:
    def test_sigma_zero_identity(self):
        vol = random_volume()
        out = blur(vol, 0.0)
        np.testing.assert_array_equal(out.data, vol.data)

    def test_constant_unchanged(self):
        vol = Volume(np.full((12, 12, 12), 0.7, dtype=np.float32))
        out = blur(vol, 1.3)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-6)

    def test_white_noise_variance_matches_kernel_weights(self):
        rng = np.random.default_rng(1)
        vol = Volume(rng.standard_normal((48, 48, 48)).astype(np.float32))
        sigma = 1.0
        out = blur(vol, sigma)
        # analytic: separable kernel, radius ceil(3 sigma), per-axis variance
        # factor sum(w^2); three axes multiply
        radius = int(np.ceil(3 * sigma))
        offsets = np.arange(-radius, radius + 1)
        w = np.exp(-0.5 * (offsets / sigma) ** 2)
        w /= w.sum()
        expected = float((w ** 2).sum() ** 3)
        interior = out.data[8:-8, 8:-8, 8:-8]
        assert abs(interior.var() / expected - 1) < 0.05

    def test_anisotropic_spacing_scales_kernel(self):
        vol = random_volume(spacing=(2.0, 1.0, 1.0))
        out = blur(vol, 1.0)
        assert out.data.shape == vol.data.shape


class TestNoise:
    def test_std_zero_identity(self):
        vol = random_volume()
        out = add_noise(vol, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, vol.data)

    def test_sample_std_in_chi_square_interval(self):
        vol = Volume(np.zeros((100, 100, 100), dtype=np.float32))
        out = add_noise(vol, 0.1, np.random.default_rng(2))
        assert 0.099 <= out.data.std() <= 0.101

    def test_mean_shift_within_clt_bound(self):
        n = 100 ** 3
        vol = Volume(np.zeros((100, 100, 100), dtype=np.float32))
        out = add_noise(vol, 0.1, np.random.default_rng(3))
        assert abs(out.data.mean()) <= 4 * 0.1 / np.sqrt(n)


class TestAffine:
    def test_identity_bit_exact(self):
        vol = random_volume()
        out = affine_resample(vol)
        np.testing.assert_array_equal(out.data, vol.data)

    def test_translation_matches_shift_oracle(self):
        vol = random_volume(seed=4)
        out = affine_resample(vol, translation_mm=(1.0, 0.0, 0.0))
        expected = np.full_like(vol.data, vol.data.min())
        expected[1:] = vol.data[:-1]
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    def test_rotation_90_matches_permutation_oracle(self):
        vol = random_volume(seed=5)
        out = affine_resample(vol, rotation_deg=(0.0, 0.0, 90.0))
        expected = np.rot90(vol.data, 1, axes=(0, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    def test_values_bounded_by_input_range(self):
        vol = random_volume(seed=6)
        out = affine_resample(vol, rotation_deg=(7.0, -4.0, 3.0),
                              translation_mm=(1.5, -2.0, 0.5))
        assert out.data.min() >= vol.data.min() - 1e-6
        assert out.data.max() <= vol.data.max() + 1e-6


class TestElastic:
    def test_zero_displacement_identity(self):
        vol = random_volume()
        out = elastic_deform(vol, np.zeros((5, 5, 5, 3)))
        np.testing.assert_array_equal(out.data, vol.data)

    def test_constant_displacement_equals_translation(self):
        vol = random_volume(seed=7)
        disp = np.zeros((5, 5, 5, 3))
        disp[..., 0] = 1.0
        out = elastic_deform(vol, disp)
        expected = affine_resample(vol, translation_mm=(1.0, 0.0, 0.0))
        np.testing.assert_allclose(out.data, expected.data, atol=1e-5)

    def test_output_within_input_bounds(self):
        rng = np.random.default_rng(8)
        vol = random_volume(seed=8)
        disp = rng.uniform(-3, 3, (7, 7, 7, 3))
        out = elastic_deform(vol, disp)
        assert out.data.min() >= vol.data.min() - 1e-6
        assert out.data.max() <= vol.data.max() + 1e-6


class TestBiasField:
    def test_zero_coefficients_identity(self):
        vol = random_volume()
        out = bias_field(vol, np.zeros(20))
        np.testing.assert_array_equal(out.data, vol.data)

    def test_field_strictly_positive(self):
        rng = np.random.default_rng(9)
        base = Volume(np.ones((10, 10, 10), dtype=np.float32))
        coeffs = rng.uniform(-0.5, 0.5, 20)
        out = bias_field(base, coeffs)
        assert np.all(out.data > 0)

    def test_log_ratio_equals_polynomial(self):
        rng = np.random.default_rng(10)
        vol = Volume(rng.uniform(0.5, 1.0, (12, 12, 12)).astype(np.float64))
        # the 20 cubic monomials x^a y^b z^d, a + b + d <= 3, in lexicographic order
        exps = [(a, b, d) for a in range(4) for b in range(4) for d in range(4) if a + b + d <= 3]
        coeffs = rng.uniform(-0.3, 0.3, len(exps))
        out = bias_field(vol, coeffs)
        axes = [np.linspace(-1, 1, 12)] * 3
        for _ in range(20):
            i, j, k = rng.integers(0, 12, 3)
            expected = sum(c * axes[0][i] ** a * axes[1][j] ** b * axes[2][k] ** d
                           for c, (a, b, d) in zip(coeffs, exps))
            got = np.log(out.data[i, j, k] / vol.data[i, j, k])
            assert got == pytest.approx(expected, abs=1e-5)

    def test_coefficient_count_checked(self):
        with pytest.raises(ValueError, match="needs 20 coefficients"):
            bias_field(random_volume(), np.zeros(35))


class TestMotion:
    def test_single_identity_transform_round_trips(self):
        vol = random_volume(seed=11)
        out = motion_artifact(vol, [{"rotation_deg": (0, 0, 0),
                                     "translation_mm": (0, 0, 0)}])
        np.testing.assert_allclose(out.data, vol.data, atol=1e-4)

    def test_shared_transform_recomposes_single_spectrum(self):
        vol = random_volume(seed=12)
        t = {"rotation_deg": (0.0, 0.0, 4.0), "translation_mm": (1.0, 0.0, -0.5)}
        out = motion_artifact(vol, [t, t, t])
        expected = affine_resample(vol, rotation_deg=t["rotation_deg"],
                                   translation_mm=t["translation_mm"])
        np.testing.assert_allclose(out.data, expected.data, atol=1e-3)

    def test_output_real_and_finite(self):
        rng = np.random.default_rng(13)
        vol = random_volume(seed=13)
        transforms = [{"rotation_deg": rng.uniform(-5, 5, 3).tolist(),
                       "translation_mm": rng.uniform(-3, 3, 3).tolist()}
                      for _ in range(3)]
        out = motion_artifact(vol, transforms)
        assert np.isrealobj(out.data) and np.isfinite(out.data).all()


class TestPipeline:
    def test_all_probabilities_zero_is_identity(self):
        spec = AugmentSpec(p_blur=0, p_noise=0, p_spatial=0, p_bias=0, p_motion=0)
        vol = random_volume()
        out = apply_pipeline(vol, spec, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, vol.data)

    def test_deterministic_given_stream(self):
        spec = AugmentSpec()
        vol = random_volume(seed=14)
        a = apply_pipeline(vol, spec, np.random.default_rng(77))
        b = apply_pipeline(vol, spec, np.random.default_rng(77))
        np.testing.assert_array_equal(a.data, b.data)

    def test_shape_and_spacing_preserved(self):
        spec = AugmentSpec(p_blur=1, p_noise=1, p_spatial=1, p_bias=1, p_motion=1)
        vol = random_volume(seed=15, spacing=(1.0, 2.0, 3.0))
        out = apply_pipeline(vol, spec, np.random.default_rng(5))
        assert out.data.shape == vol.data.shape
        assert out.voxel_size == vol.voxel_size

    def test_affine_and_elastic_never_coapplied(self):
        spec = AugmentSpec(p_spatial=1.0)
        rng = np.random.default_rng(16)
        saw = set()
        for _ in range(200):
            plan = plan_pipeline(spec, rng)
            spatial = [name for name, _ in plan if name in ("affine", "elastic")]
            assert len(spatial) == 1
            saw.add(spatial[0])
        assert saw == {"affine", "elastic"}

    def test_plan_frequencies_rough(self):
        spec = AugmentSpec()
        rng = np.random.default_rng(17)
        counts = {"blur": 0, "noise": 0, "spatial": 0, "bias": 0, "motion": 0}
        n = 2000
        for _ in range(n):
            for name, _ in plan_pipeline(spec, rng):
                counts["spatial" if name in ("affine", "elastic") else name] += 1
        assert abs(counts["blur"] / n - 0.1) < 0.03
        assert abs(counts["noise"] / n - 0.6) < 0.04
        assert abs(counts["spatial"] / n - 0.2) < 0.03
        assert abs(counts["bias"] / n - 0.1) < 0.03
        assert abs(counts["motion"] / n - 0.05) < 0.02

    def test_plan_is_json_serializable(self):
        import json
        spec = AugmentSpec(p_blur=1, p_noise=1, p_spatial=1, p_bias=1, p_motion=1)
        plan = plan_pipeline(spec, np.random.default_rng(18))
        vol = random_volume(seed=18)
        round_tripped = json.loads(json.dumps(plan))
        out_a = apply_plan(vol, plan)
        out_b = apply_plan(vol, [(name, kwargs) for name, kwargs in round_tripped])
        np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AugmentSpec(p_blur=1.5).validate()
        with pytest.raises(ValueError):
            AugmentSpec.from_dict({"p_blur": 0.1, "wat": 2})
