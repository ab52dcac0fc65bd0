"""Synthetic brain phantoms with class-dependent cavity structure.

A phantom is a bright ellipsoidal "brain" on a dark background containing
two mirrored low-intensity cavities (a stand-in for the enlarged
ventricular/subcortical structures that distinguish the classes).  For
label 1 the cavity radii grow by a factor ``1 + effect_size``; per-subject
jitter and additive Gaussian noise make subjects distinct.  Generation is
fully deterministic in (spec, label), and the label enters only through
the cavity radii, never through the random stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .nifti import Volume, save_volume

# nominal geometry in normalized [-1, 1] coordinates
_BRAIN_SEMI = np.array([0.80, 0.85, 0.75])
_CAVITY_SEMI = np.array([0.10, 0.16, 0.10])
_CAVITY_OFFSET = 0.22  # mirrored along the first axis
_BRAIN_BRIGHT = 0.85
_CAVITY_DARK = 0.05
# label-independent ellipsoidal intensity blobs scattered through the brain:
# per-subject anatomy noise that rules out global intensity statistics as a
# class shortcut, so a classifier has to read the actual cavity geometry (and
# its attention maps have something local to find)
_CLUTTER_BLOBS = 14


@dataclass(frozen=True)
class PhantomSpec:
    """Shape and randomness controls for one synthetic subject."""

    size: int = 48
    effect_size: float = 0.5
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.size < 16:
            raise ValueError(f"phantom size must be >= 16, got {self.size}")
        if self.effect_size < 0 or self.noise_std < 0:
            raise ValueError("effect_size and noise_std must be non-negative")
        if self.seed < 0:
            raise ValueError(f"phantom seed must be >= 0, got {self.seed}")


def _normalized_grid(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis coordinates shaped [n,1,1], [1,n,1] and [1,1,n]; they broadcast to the volume."""
    axis = np.linspace(-1.0, 1.0, size, dtype=np.float64)
    return np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)


def _ellipsoid_r2(coords, center, semi):
    """Squared normalized radius sum(((g - c) / r) ** 2): at most 1 inside the ellipsoid."""
    return sum(((g - c) / r) ** 2 for g, c, r in zip(coords, center, semi))


def _compose(size: int, grow: float, brain_scale, offset, cavity_scale,
             separation) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free phantom geometry; returns (values, cavity mask)."""
    grid = _normalized_grid(size)
    r2_brain = _ellipsoid_r2(grid, offset, _BRAIN_SEMI * brain_scale)

    values = np.zeros((size,) * 3, dtype=np.float64)
    inside = r2_brain <= 1.0
    values[inside] = _BRAIN_BRIGHT - 0.15 * r2_brain[inside]

    cavity = np.zeros((size,) * 3, dtype=bool)
    cs = _CAVITY_SEMI * cavity_scale * grow
    for sign in (-1.0, 1.0):
        center = (sign * separation + offset[0], offset[1], offset[2])
        cavity |= _ellipsoid_r2(grid, center, cs) <= 1.0
    values[cavity] = _CAVITY_DARK
    return values, cavity & inside


def generate_phantom(spec: PhantomSpec, label: int) -> Volume:
    """Deterministic phantom volume for one subject, values clamped to [0, 1].

    The brain intensity is compensated so the noise-free global mean equals
    that of the same subject's label-0 geometry: cavity growth must stay a
    local structural signal, not a whole-volume brightness shift a
    classifier could shortcut on.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed]))

    # per-subject jitter; drawn identically for both labels
    brain_scale = 1.0 + rng.uniform(-0.05, 0.05, 3)
    offset = rng.uniform(-0.03, 0.03, 3)
    cavity_scale = 1.0 + rng.uniform(-0.08, 0.08, 3)
    separation = _CAVITY_OFFSET + rng.uniform(-0.02, 0.02)
    noise = rng.standard_normal((spec.size,) * 3)
    blob_params = _draw_blobs(rng)

    grow = 1.0 + spec.effect_size * label
    values, cavity = _compose(spec.size, grow, brain_scale, offset, cavity_scale,
                              separation)
    _paint_blobs(values, cavity, blob_params, spec.size)
    if grow != 1.0:
        reference, ref_cavity = _compose(spec.size, 1.0, brain_scale, offset,
                                         cavity_scale, separation)
        _paint_blobs(reference, ref_cavity, blob_params, spec.size)
        brain = (values > _CAVITY_DARK)
        brain_sum = values[brain].sum()
        if brain_sum > 0:
            values[brain] *= (reference.sum() - (values.sum() - brain_sum)) / brain_sum

    if spec.noise_std > 0:
        values += spec.noise_std * noise
    np.clip(values, 0.0, 1.0, out=values)
    return Volume(values.astype(np.float32), voxel_size=(1.0, 1.0, 1.0))


def _draw_blobs(rng: np.random.Generator) -> list[tuple]:
    """Label-independent clutter parameters, always drawn from the stream."""
    blobs = []
    for _ in range(_CLUTTER_BLOBS):
        center = rng.uniform(-0.62, 0.62, 3)
        semi = rng.uniform(0.05, 0.12, 3)
        factor = rng.uniform(0.45, 1.25)
        blobs.append((center, semi, factor))
    return blobs


def _paint_blobs(values: np.ndarray, cavity: np.ndarray, blobs: list[tuple],
                 size: int) -> None:
    """Scale brain intensity inside each blob; cavities stay untouched.

    Blob centers too close to the cavity pair are skipped so the class
    signal stays geometrically clean; the darkest blob stays above the 0.2
    cavity threshold.
    """
    grid = _normalized_grid(size)
    guard = _CAVITY_SEMI * 2.2 + 0.10
    for center, semi, factor in blobs:
        if any(_ellipsoid_r2(center, (sign * _CAVITY_OFFSET, 0.0, 0.0), guard) <= 1.0
               for sign in (-1.0, 1.0)):
            continue
        mask = (_ellipsoid_r2(grid, center, semi) <= 1.0) & ~cavity & (values > _CAVITY_DARK)
        values[mask] *= factor


def cavity_roi(spec: PhantomSpec, label: int = 1, *, margin_voxels: float) -> np.ndarray:
    """Boolean mask of the nominal (jitter-free) cavity pair, dilated by a margin.

    ``margin_voxels`` enlarges each cavity semi-axis by that many voxels,
    giving the dilated region-of-interest used by the CAM localization
    score.
    """
    grid = _normalized_grid(spec.size)
    margin = 2.0 * margin_voxels / (spec.size - 1)
    cs = _CAVITY_SEMI * (1.0 + spec.effect_size * label) + margin
    mask = np.zeros((spec.size,) * 3, dtype=bool)
    for sign in (-1.0, 1.0):
        mask |= _ellipsoid_r2(grid, (sign * _CAVITY_OFFSET, 0.0, 0.0), cs) <= 1.0
    return mask


def subject_spec(base: PhantomSpec, label: int, index: int) -> PhantomSpec:
    """Per-subject spec with a child seed derived from (base seed, label, index)."""
    child = int(np.random.SeedSequence([base.seed, label, index]).generate_state(1)[0])
    return replace(base, seed=child)


def synthesize_dataset(out_dir, count_per_class: int, spec: PhantomSpec,
                       site: str = "SYNTH", subject_prefix: str = "synth"):
    """Write 2 x count phantom scans plus a manifest; deterministic per seed.

    Returns the unassigned manifest records; scan paths are relative to
    ``out_dir`` where the manifest is also written as ``manifest.json``.
    """
    from .manifest import ScanRecord, save_manifest

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for label in (0, 1):
        for index in range(count_per_class):
            subject = f"{subject_prefix}-{label}{index:04d}"
            filename = f"{subject}.nii"
            volume = generate_phantom(subject_spec(spec, label, index), label)
            save_volume(volume, out_dir / filename)
            records.append(ScanRecord(subject, filename, label, site))
    save_manifest(records, out_dir / "manifest.json")
    return records
