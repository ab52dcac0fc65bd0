"""3D gradient class-activation maps over a convolution block's activations.

The source is ``Model.feature_layer``: the deepest block ReLU whose map is
at least 6^3.  Six is the extent of the final map at the paper's 96^3
input, so there the source is block 5, the last convolution block; on
smaller inputs a deeper but coarser map would have almost every cell
touching the convolutions' zero padding, and a shallower block is used.

Grad-CAM needs only the gradient of the score at the source, so the
layers up to the source run without a tape, and only the layers above it
are recorded, with the source activations as the tape's leaf.  The target
class's pre-softmax logit is backpropagated to those activations; each
channel is weighted by the spatial mean of its gradient, the weighted sum
passes through ReLU so only positively contributing voxels survive, and
the coarse map is trilinearly upsampled to the input grid and min-max
normalized to [0, 1].  An all-zero raw map skips the upsampling; any
constant map becomes an all-zero CAM with a degenerate flag instead of
dividing by zero.

The map lies on the model-input grid.  When the model halves the scan, a CAM
voxel is twice the scan's and is centred on the 2^3 scan voxels it covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np
from scipy import ndimage

from . import ops
from .errors import DataError
from .model import Model
from .nifti import Volume, save_volume
from .tensor import Tape, Tensor, backward


# CAM voxel index -> scan voxel index when the model halves the scan
_HALVED_GRID = np.array([[2, 0, 0, 0.5], [0, 2, 0, 0.5], [0, 0, 2, 0.5], [0, 0, 0, 1]])


@dataclass
class CamVolume:
    """Normalized class-activation heatmap on the model-input grid, placed in the scan's space."""

    values: np.ndarray
    source_layer: str
    target_class: int
    norm_min: float
    norm_max: float
    degenerate: bool = False
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0)
    world_transform: Optional[np.ndarray] = None

    @property
    def extents(self) -> tuple[int, int, int]:
        return self.values.shape


def trilinear_resize(data: np.ndarray, out_shape) -> np.ndarray:
    """Resample a 3D array onto a new grid (half-voxel aligned, edges clamped)."""
    factors = [n_out / n_in for n_in, n_out in zip(data.shape, out_shape)]
    return ndimage.zoom(data, factors, order=1, grid_mode=True, mode="nearest")


def _normalized(values: np.ndarray, source_layer: str, target_class: int,
                voxel_size: tuple[float, float, float],
                world_transform: Optional[np.ndarray]) -> CamVolume:
    """Min-max scale a map to [0, 1]; a constant map becomes all zero, flagged degenerate."""
    lo, hi = float(values.min()), float(values.max())
    degenerate = hi <= lo  # no contrast to normalize
    scaled = np.zeros(values.shape) if degenerate else (values - lo) / (hi - lo)
    return CamVolume(values=scaled.astype(np.float32), source_layer=source_layer,
                     target_class=target_class, norm_min=lo, norm_max=hi,
                     degenerate=degenerate, voxel_size=voxel_size,
                     world_transform=world_transform)


def grad_cam(model: Model, volume: Volume, target_class: int) -> CamVolume:
    """Class-activation volume for one scan against one target class.

    Runs eval-mode (running BN statistics, no dropout); nothing in the
    model is mutated.  Only the layers from ``model.feature_layer`` to the
    logits are taped, and the backward pass stops at the source
    activations, so every parameter's ``.grad`` is left as found.
    """
    if target_class not in (0, 1):
        raise ValueError(f"target_class must be 0 or 1, got {target_class}")

    x = Tensor(volume.data[None, None].astype(model.dtype))
    source = [layer.name for layer in model.layers].index(model.feature_layer) + 1
    features = model.run(x, "eval", 0, source)
    tape = Tape()
    logits = model.run(features, "eval", source, -1, tape=tape)
    score = ops.take(logits, (0, target_class), tape=tape)
    backward(tape, score, [features])
    grads = features.grad[0]            # [C, d, d, d]
    weights = grads.mean(axis=(1, 2, 3), dtype=np.float64)
    raw = np.maximum(np.tensordot(weights, features.data[0].astype(np.float64),
                                  axes=(0, 0)), 0.0)
    out_shape = (model.config.input_extent,) * 3
    upsampled = trilinear_resize(raw, out_shape) if raw.any() else np.zeros(out_shape)

    factor = volume.extents[0] // model.config.input_extent  # 1, or 2 if the model halves
    transform = volume.world_transform
    if factor == 2:  # a volume without a transform is placed as the NIfTI writer places it
        base = np.diag([*volume.voxel_size, 1.0]) if transform is None else transform
        transform = base @ _HALVED_GRID
    return _normalized(upsampled, model.feature_layer, target_class,
                       tuple(factor * v for v in volume.voxel_size), transform)


def average_cam(cams: Iterable[CamVolume]) -> CamVolume:
    """Voxelwise mean of normalized maps, re-normalized to [0, 1], with the
    first map's geometry.  The maps are summed as they come, so only one is
    held at a time."""
    total, count = None, 0
    for cam in cams:
        if total is None:  # keep the first map's tags and geometry, not its values
            total = cam.values.astype(np.float64)
            tags = cam.source_layer, cam.target_class, cam.voxel_size, cam.world_transform
        elif cam.extents != total.shape:
            raise DataError(f"CAM extents differ: {cam.extents} vs {total.shape}")
        elif cam.target_class != tags[1]:
            raise DataError("CAMs target different classes")
        else:
            total += cam.values
        count += 1
    if total is None:
        raise DataError("need at least one CAM to average")
    total /= count
    return _normalized(total, *tags)


def threshold_cam(cam: CamVolume, threshold: float) -> np.ndarray:
    """Binary mask of voxels at or above the threshold."""
    if not 0 <= threshold <= 1:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    return cam.values >= threshold


def export_cam(cam: CamVolume, path) -> None:
    """Write the CAM as a NIfTI volume for overlay in standard viewers."""
    save_volume(Volume(cam.values, voxel_size=cam.voxel_size,
                       world_transform=cam.world_transform), path)


def write_mid_slices(values: np.ndarray, directory, stem: str) -> list[Path]:
    """Dump the three orthogonal mid-slices as 8-bit PGM images into an existing directory."""
    directory = Path(directory)
    lo, hi = float(values.min()), float(values.max())
    scaled = np.zeros_like(values, dtype=np.uint8) if hi <= lo else \
        np.round(255 * (values - lo) / (hi - lo)).astype(np.uint8)
    paths = []
    for axis, name in enumerate(("axial", "coronal", "sagittal")):
        mid = values.shape[axis] // 2
        plane = np.take(scaled, mid, axis=axis)
        path = directory / f"{stem}_{name}.pgm"
        with open(path, "wb") as fh:
            fh.write(f"P5\n{plane.shape[1]} {plane.shape[0]}\n255\n".encode())
            fh.write(plane.tobytes())
        paths.append(path)
    return paths
