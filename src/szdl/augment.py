"""Stochastic training-time augmentation for 3D volumes.

The pipeline mirrors a clinical-MRI augmentation recipe: blur (p=0.1),
additive Gaussian noise (p=0.6), then exactly one of affine resampling or
elastic deformation (p=0.2, uniform branch), bias-field distortion
(p=0.1) and k-space motion artifacts (p=0.05).  Probabilities are
contractual; magnitude ranges are tool defaults, fixed as ``AugmentSpec``
class constants.

Affine, elastic and motion resample with ``scipy.ndimage`` trilinear
interpolation.  Samples outside the grid take the volume minimum; a
1e-6 voxel tolerance keeps samples nominally on the boundary inside.

Randomness is split in two stages: :func:`plan_pipeline` draws every
decision and parameter from the supplied generator and returns a plan,
and :func:`apply_plan` executes it.  Identical streams therefore give
bit-identical outputs regardless of how the work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np
from scipy import ndimage

from .config import JsonConfig
from .nifti import Volume

AugmentPlan = list[tuple[str, dict]]


@dataclass(frozen=True)
class AugmentSpec(JsonConfig):
    """Application probabilities of every transform; the magnitude ranges are fixed."""

    blur_sigma_range: ClassVar[tuple[float, float]] = (0.25, 1.5)   # mm
    noise_std_range: ClassVar[tuple[float, float]] = (0.0, 0.05)    # intensity units
    rotation_max_deg: ClassVar[float] = 10.0
    translation_max_mm: ClassVar[float] = 5.0
    elastic_grid: ClassVar[int] = 7
    elastic_max_mm: ClassVar[float] = 4.0
    bias_coeff_max: ClassVar[float] = 0.3
    motion_max_transforms: ClassVar[int] = 2
    motion_max_deg: ClassVar[float] = 5.0
    motion_max_mm: ClassVar[float] = 4.0

    p_blur: float = 0.1
    p_noise: float = 0.6
    p_spatial: float = 0.2
    p_bias: float = 0.1
    p_motion: float = 0.05

    def validate(self) -> None:
        for name in ("p_blur", "p_noise", "p_spatial", "p_bias", "p_motion"):
            p = getattr(self, name)
            if not 0 <= p <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {p}")


# ---------------------------------------------------------------------------
# shared resampling machinery


def _rotation_matrix(angles_deg) -> np.ndarray:
    """Rotation about axes 0, 1, 2 composed as R2 @ R1 @ R0."""
    r = np.eye(3)
    for axis, deg in enumerate(angles_deg):
        a = math.radians(deg)
        c, s = math.cos(a), math.sin(a)
        m = np.eye(3)
        other = [i for i in range(3) if i != axis]
        m[other[0], other[0]] = c
        m[other[0], other[1]] = -s
        m[other[1], other[0]] = s
        m[other[1], other[1]] = c
        r = m @ r
    return r


def _resample(volume: Volume, source: np.ndarray) -> Volume:
    """Trilinear lookup at fractional source coordinates [3, *shape].

    Samples outside [0, extent-1] on any axis take the volume minimum; an
    epsilon absorbs floating-point error in the coordinate arithmetic so
    samples nominally on the boundary are not misclassified as outside.
    """
    eps = 1e-6
    data = volume.data.astype(np.float64)
    out = ndimage.map_coordinates(data, source, order=1, mode="nearest")
    valid = np.ones(out.shape, dtype=bool)
    for axis, n in enumerate(data.shape):
        valid &= (source[axis] >= -eps) & (source[axis] <= n - 1 + eps)
    out = np.where(valid, out, data.min())
    return replace(volume, data=out.astype(volume.data.dtype))


# ---------------------------------------------------------------------------
# individual transforms


def blur(volume: Volume, sigma_mm: float) -> Volume:
    """Separable Gaussian blur; kernel radius ceil(3 sigma) per axis, mirrored edges."""
    if sigma_mm < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma_mm}")
    if sigma_mm == 0:
        return replace(volume, data=volume.data.copy())
    data = volume.data.astype(np.float64)
    for axis in range(3):
        sigma_vox = sigma_mm / volume.voxel_size[axis]
        radius = math.ceil(3 * sigma_vox)
        if radius == 0:
            continue
        offsets = np.arange(-radius, radius + 1, dtype=np.float64)
        kernel = np.exp(-0.5 * (offsets / sigma_vox) ** 2)
        kernel /= kernel.sum()
        data = ndimage.convolve1d(data, kernel, axis=axis, mode="mirror")
    return replace(volume, data=data.astype(volume.data.dtype))


def add_noise(volume: Volume, std: float, rng: np.random.Generator) -> Volume:
    """Independent zero-mean Gaussian noise per voxel."""
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if std == 0:
        return replace(volume, data=volume.data.copy())
    noisy = volume.data + std * rng.standard_normal(volume.data.shape)
    return replace(volume, data=noisy.astype(volume.data.dtype))


def affine_resample(volume: Volume, rotation_deg=(0.0, 0.0, 0.0),
                    translation_mm=(0.0, 0.0, 0.0)) -> Volume:
    """Rigid resampling about the volume center with trilinear interpolation.

    Content moves by the forward transform; out-of-field samples take the
    minimum intensity as background.
    """
    if not np.any(rotation_deg) and not np.any(translation_mm):
        return replace(volume, data=volume.data.copy())
    shape = volume.data.shape
    spacing = np.asarray(volume.voxel_size)[:, None]
    center = (np.asarray(shape, dtype=np.float64)[:, None] - 1) / 2
    inv = np.linalg.inv(_rotation_matrix(rotation_deg))
    grid = np.indices(shape, dtype=np.float64).reshape(3, -1)
    src_mm = inv @ ((grid - center) * spacing
                    - np.asarray(translation_mm, dtype=np.float64)[:, None])
    return _resample(volume, (src_mm / spacing + center).reshape(3, *shape))


def elastic_deform(volume: Volume, displacements_mm: np.ndarray) -> Volume:
    """Warp by a dense field trilinearly interpolated from a control grid.

    ``displacements_mm`` has shape [g, g, g, 3]; positive displacement moves
    content in the positive axis direction, matching the affine convention.
    """
    displacements_mm = np.asarray(displacements_mm, dtype=np.float64)
    if displacements_mm.ndim != 4 or displacements_mm.shape[3] != 3:
        raise ValueError(f"displacements must be [g, g, g, 3], got {displacements_mm.shape}")
    if not displacements_mm.any():
        return replace(volume, data=volume.data.copy())
    shape = volume.data.shape
    # corner-aligned upsampling: voxel i reads control point i (g-1) / (n-1)
    factors = [n / g for n, g in zip(shape, displacements_mm.shape[:3])]
    src = np.indices(shape, dtype=np.float64)
    for axis in range(3):
        disp = ndimage.zoom(displacements_mm[..., axis], factors, order=1, mode="nearest")
        src[axis] -= disp / volume.voxel_size[axis]
    return _resample(volume, src)


# exponents (lexicographic) of the 20 monomials of the cubic bias polynomial
_BIAS_EXPONENTS = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)
                   if i + j + k <= 3]


def bias_field(volume: Volume, coefficients) -> Volume:
    """Multiply by exp(P(x)) with P cubic over normalized [-1, 1] coords."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.shape != (len(_BIAS_EXPONENTS),):
        raise ValueError(f"the cubic bias field needs {len(_BIAS_EXPONENTS)} coefficients, "
                         f"got {coefficients.shape}")
    shape = volume.data.shape
    axes = [np.linspace(-1.0, 1.0, n) for n in shape]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij", sparse=True)
    logfield = np.zeros(shape, dtype=np.float64)
    for coeff, (i, j, k) in zip(coefficients, _BIAS_EXPONENTS):
        logfield += coeff * gx ** i * gy ** j * gz ** k
    out = volume.data * np.exp(logfield)
    return replace(volume, data=out.astype(volume.data.dtype))


def motion_artifact(volume: Volume, transforms: list[dict]) -> Volume:
    """Composite k-space bands from rigidly moved copies of the volume.

    Each transform dict holds ``rotation_deg`` and ``translation_mm``.  Copy
    i contributes the i-th contiguous band of frequency lines along axis 0,
    in draw order; the real part of the inverse transform is returned.
    """
    if not transforms:
        raise ValueError("motion needs at least one transform")
    spectra = []
    for t in transforms:
        moved = affine_resample(volume, **t)
        spectra.append(np.fft.fftn(moved.data.astype(np.float64)))
    composite = np.empty_like(spectra[0])
    bands = np.array_split(np.arange(volume.data.shape[0]), len(spectra))
    for spectrum, band in zip(spectra, bands):
        composite[band] = spectrum[band]
    out = np.fft.ifftn(composite).real
    return replace(volume, data=out.astype(volume.data.dtype))


# ---------------------------------------------------------------------------
# pipeline


def plan_pipeline(spec: AugmentSpec, rng: np.random.Generator) -> AugmentPlan:
    """Draw all pipeline decisions and parameters; returns the executable plan."""
    plan: AugmentPlan = []
    if rng.random() < spec.p_blur:
        plan.append(("blur", {"sigma_mm": float(rng.uniform(*spec.blur_sigma_range))}))
    if rng.random() < spec.p_noise:
        plan.append(("noise", {"std": float(rng.uniform(*spec.noise_std_range)),
                               "seed": int(rng.integers(2 ** 63))}))
    if rng.random() < spec.p_spatial:
        if rng.random() < 0.5:
            plan.append(("affine", {
                "rotation_deg": rng.uniform(-spec.rotation_max_deg,
                                            spec.rotation_max_deg, 3).tolist(),
                "translation_mm": rng.uniform(-spec.translation_max_mm,
                                              spec.translation_max_mm, 3).tolist(),
            }))
        else:
            g = spec.elastic_grid
            disp = rng.uniform(-spec.elastic_max_mm, spec.elastic_max_mm, (g, g, g, 3))
            plan.append(("elastic", {"displacements_mm": disp.tolist()}))
    if rng.random() < spec.p_bias:
        coeffs = rng.uniform(-spec.bias_coeff_max, spec.bias_coeff_max, len(_BIAS_EXPONENTS))
        plan.append(("bias", {"coefficients": coeffs.tolist()}))
    if rng.random() < spec.p_motion:
        count = int(rng.integers(1, spec.motion_max_transforms + 1))
        transforms = [{
            "rotation_deg": rng.uniform(-spec.motion_max_deg, spec.motion_max_deg, 3).tolist(),
            "translation_mm": rng.uniform(-spec.motion_max_mm, spec.motion_max_mm, 3).tolist(),
        } for _ in range(count)]
        plan.append(("motion", {"transforms": transforms}))
    return plan


def apply_plan(volume: Volume, plan: AugmentPlan) -> Volume:
    for name, kwargs in plan:
        if name == "blur":
            volume = blur(volume, kwargs["sigma_mm"])
        elif name == "noise":
            noise_rng = np.random.default_rng(np.random.SeedSequence([kwargs["seed"]]))
            volume = add_noise(volume, kwargs["std"], noise_rng)
        elif name == "affine":
            volume = affine_resample(volume, rotation_deg=kwargs["rotation_deg"],
                                     translation_mm=kwargs["translation_mm"])
        elif name == "elastic":
            volume = elastic_deform(volume, np.asarray(kwargs["displacements_mm"]))
        elif name == "bias":
            volume = bias_field(volume, kwargs["coefficients"])
        elif name == "motion":
            volume = motion_artifact(volume, kwargs["transforms"])
        else:  # pragma: no cover
            raise AssertionError(f"unknown plan step {name}")
    return volume


def apply_pipeline(volume: Volume, spec: AugmentSpec, rng: np.random.Generator) -> Volume:
    """Plan and apply all transforms; deterministic given the RNG stream."""
    return apply_plan(volume, plan_pipeline(spec, rng))
