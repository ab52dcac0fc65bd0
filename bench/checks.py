"""Correctness checks for the benchmark, computed apart from szdl.

Each check compares an output of szdl with a computation written here from
the method's definition, or with a property the method guarantees.  None
compares with a stored copy of an earlier output.  A failed check raises
:class:`CheckFailed`; the runner then reports the run as incorrect.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage


class CheckFailed(AssertionError):
    """An output of szdl disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# evaluation


def pair_count_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counted 1/2."""
    pos = [float(s) for s, y in zip(scores, labels) if int(y) == 1]
    neg = [float(s) for s, y in zip(scores, labels) if int(y) == 0]
    require(bool(pos) and bool(neg), "AUC needs both classes")
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else 0.5 if p == n else 0.0
    return wins / (len(pos) * len(neg))


def check_auc(reported: float, scores, labels, floor: float | None = None) -> float:
    """The reported AUC equals the pair count; optionally clears ``floor``."""
    own = pair_count_auc(scores, labels)
    require(abs(float(reported) - own) <= 1e-12,
            f"reported AUC {reported!r} != pair count {own!r}")
    if floor is not None:
        require(own >= floor, f"AUC {own:.4f} below {floor} on separable classes")
    return own


def check_probabilities(probs: np.ndarray, labels, cross_entropies) -> None:
    """Rows are distributions and each loss is -log p[label] of its row."""
    probs = np.asarray(probs, dtype=np.float64)
    require(bool(np.isfinite(probs).all()), "probabilities are not finite")
    require(bool((probs >= 0).all() and (probs <= 1).all()), "probability outside [0, 1]")
    sums = probs.sum(axis=1)
    require(bool(np.all(np.abs(sums - 1.0) <= 1e-5)), f"rows sum to {sums.tolist()}")
    for row, label, ce in zip(probs, labels, cross_entropies):
        own = -math.log(max(float(row[int(label)]), 1e-300))
        require(abs(float(ce) - own) <= 1e-5 * max(1.0, own),
                f"cross-entropy {ce!r} != -log p[label] {own!r}")


# ---------------------------------------------------------------------------
# optimization


def check_first_adam_step(before: dict, after: dict, grads: dict, lr: float,
                          eps: float) -> None:
    """On the first Adam step every parameter moves by lr * g / (|g| + eps).

    Bias correction makes m_hat = g and v_hat = g^2 at t = 1.  The result is
    stored in float32, so each element may differ from the float64 value by
    the rounding of the stored parameter.
    """
    require(set(before) == set(after) == set(grads), "parameter sets differ")
    for name, b in before.items():
        g = grads[name].astype(np.float64)
        b64 = b.astype(np.float64)
        a64 = after[name].astype(np.float64)
        expected = b64 - lr * g / (np.abs(g) + eps)
        tol = 2 * np.spacing(np.maximum(np.abs(b64), np.abs(a64)).astype(b.dtype)) \
            + 1e-5 * lr
        worst = float(np.max(np.abs(a64 - expected) - tol))
        require(worst <= 0, f"{name}: Adam step off by {worst:.3g} beyond rounding")


# ---------------------------------------------------------------------------
# Grad-CAM


def check_cam_range(values: np.ndarray, degenerate: bool) -> None:
    """A map spans exactly [0, 1], or is all zero when flagged degenerate."""
    values = np.asarray(values)
    require(bool(np.isfinite(values).all()), "CAM holds non-finite values")
    if degenerate:
        require(not values.any(), "degenerate CAM is not all zero")
        return
    lo, hi = float(values.min()), float(values.max())
    require(lo == 0.0 and hi == 1.0, f"CAM spans [{lo}, {hi}], not [0, 1]")


def roi_fraction(values: np.ndarray, roi: np.ndarray, threshold: float) -> float:
    """Share of voxels at or above ``threshold`` that lie inside ``roi``."""
    hot = np.asarray(values) >= threshold
    total = int(hot.sum())
    return float((hot & roi).sum()) / total if total else 0.0


# ---------------------------------------------------------------------------
# augmentation


def check_within_range(before: np.ndarray, after: np.ndarray, name: str) -> None:
    """Interpolation and normalized blurring are convex: no new extremes."""
    lo, hi = float(before.min()), float(before.max())
    tol = 1e-6 * max(1.0, hi - lo)
    require(after.shape == before.shape, f"{name} changed the shape")
    require(bool(np.isfinite(after).all()), f"{name} produced non-finite voxels")
    require(float(after.min()) >= lo - tol and float(after.max()) <= hi + tol,
            f"{name} left the input range [{lo}, {hi}]: "
            f"[{float(after.min())}, {float(after.max())}]")


def check_shift(before: np.ndarray, after: np.ndarray, shift) -> None:
    """A whole-voxel translation by ``shift`` is a shifted slice of the input."""
    src, dst = [], []
    for s, n in zip(shift, before.shape):
        s = int(s)
        src.append(slice(max(0, -s), n - max(0, s)))
        dst.append(slice(max(0, s), n - max(0, -s)))
    diff = np.abs(after[tuple(dst)].astype(np.float64) - before[tuple(src)])
    require(float(diff.max()) <= 1e-5, f"translation by {tuple(shift)} differs "
                                       f"from the shifted slice by {float(diff.max()):.3g}")


def rotation_matrix(angles_deg) -> np.ndarray:
    """Rotation about axes 0, 1 then 2: in each plane (a, b) of the two other
    axes, in ascending order, a' = c a - s b and b' = s a + c b."""
    r = np.eye(3)
    for axis, deg in enumerate(angles_deg):
        a, b = [i for i in range(3) if i != axis]
        c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
        m = np.eye(3)
        m[a, a], m[a, b], m[b, a], m[b, b] = c, -s, s, c
        r = m @ r
    return r


def check_affine_oracle(before: np.ndarray, after: np.ndarray, rotation_deg,
                        translation_mm, spacing=(1.0, 1.0, 1.0)) -> None:
    """The rigid resample equals scipy's order-1 affine_transform inside.

    Content moves by the forward map y = R (x - c) + c + t, so the output
    at y samples the input at R^-1 (y - c - t) + c.  Only voxels whose
    source lies at least one voxel inside the grid are compared, which
    leaves the edge handling of either side out.
    """
    spacing = np.asarray(spacing, dtype=np.float64)
    require(bool(np.all(spacing == 1.0)), "oracle written for 1 mm voxels")
    shape = np.asarray(before.shape)
    center = (shape - 1) / 2.0
    inv = np.linalg.inv(rotation_matrix(rotation_deg))
    offset = center - inv @ (center + np.asarray(translation_mm, dtype=np.float64))
    expected = ndimage.affine_transform(before.astype(np.float64), inv, offset=offset,
                                        order=1, mode="constant",
                                        cval=float(before.min()))
    axes = [np.arange(n, dtype=np.float64).reshape([-1 if k == j else 1 for k in range(3)])
            for j, n in enumerate(before.shape)]
    inside = np.ones(before.shape, dtype=bool)
    for i in range(3):
        coord = offset[i] + inv[i, 0] * axes[0] + inv[i, 1] * axes[1] + inv[i, 2] * axes[2]
        inside &= (coord >= 1.0) & (coord <= before.shape[i] - 2.0)
    require(int(inside.sum()) > 0, "no interior voxels to compare")
    diff = np.abs(after.astype(np.float64)[inside] - expected[inside])
    scale = max(1.0, float(before.max() - before.min()))
    require(float(diff.max()) <= 1e-5 * scale,
            f"affine differs from scipy's affine_transform by {float(diff.max()):.3g}")


def check_unchanged(before: np.ndarray, after: np.ndarray, name: str) -> None:
    require(after.dtype == before.dtype and np.array_equal(after, before),
            f"{name} changed the input")
