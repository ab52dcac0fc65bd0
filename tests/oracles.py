"""Independent brute-force reference implementations used to verify kernels,
and the small helpers that only tests call.

The references are written with explicit loops or element-by-element
arithmetic, deliberately sharing no code with the production kernels.  The
helpers at the end (elementwise tape ops, a backward pass along a direction,
an activation dispatcher, single scan scoring, block output shapes, CAM
localization and a few summaries) build on szdl's public API.
"""

import numpy as np

from szdl import ops
from szdl.errors import DataError
from szdl.gradcam import CamVolume, threshold_cam
from szdl.manifest import SPLITS
from szdl.tensor import Tape, Tensor, backward


def conv3d_loops(x, w, b, pad=1):
    """Six-nested-loop direct 3D convolution, stride 1."""
    n, cin, d, h, wd = x.shape
    cout, _, k, _, _ = w.shape
    do, ho, wo = d + 2 * pad - k + 1, h + 2 * pad - k + 1, wd + 2 * pad - k + 1
    xp = np.zeros((n, cin, d + 2 * pad, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + d, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((n, cout, do, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for zi in range(do):
                for yi in range(ho):
                    for xi in range(wo):
                        acc = 0.0
                        for ci in range(cin):
                            for a in range(k):
                                for bb in range(k):
                                    for c in range(k):
                                        acc += w[co, ci, a, bb, c] * xp[ni, ci, zi + a, yi + bb, xi + c]
                        out[ni, co, zi, yi, xi] = acc + b[co]
    return out


def matmul_loops(x, w, b):
    """Triple-loop affine map for dense-layer verification."""
    n, f = x.shape
    o = w.shape[1]
    out = np.zeros((n, o), dtype=x.dtype)
    for i in range(n):
        for j in range(o):
            acc = 0.0
            for kk in range(f):
                acc += x[i, kk] * w[kk, j]
            out[i, j] = acc + b[j]
    return out


def mean_loops(x):
    """Element-by-element spatial mean for global-average-pool verification."""
    n, c = x.shape[:2]
    out = np.zeros((n, c), dtype=x.dtype)
    for i in range(n):
        for j in range(c):
            acc = 0.0
            cnt = 0
            for v in x[i, j].flat:
                acc += v
                cnt += 1
            out[i, j] = acc / cnt
    return out


def central_difference(f, x, index, step=1e-5):
    """Central finite difference of scalar f at one coordinate of array x."""
    orig = x[index]
    x[index] = orig + step
    fp = f()
    x[index] = orig - step
    fm = f()
    x[index] = orig
    return (fp - fm) / (2 * step)


def fd_check(f, arrays, rng, n_coords=100, step=1e-5, rel_tol=1e-4, abs_tol=1e-8):
    """Compare analytic gradients against central differences.

    ``arrays`` is a list of (value_array, grad_array) pairs; ``f`` re-runs
    the forward pass and returns the scalar loss.  Samples up to
    ``n_coords`` coordinates per array.  Returns the worst relative error.
    """
    worst = 0.0
    for value, grad in arrays:
        flat = value.reshape(-1)
        gflat = grad.reshape(-1)
        count = min(n_coords, flat.size)
        idx = rng.choice(flat.size, size=count, replace=False)
        for i in idx:
            num = central_difference(f, flat, int(i), step=step)
            ana = gflat[int(i)]
            err = abs(num - ana)
            if err > abs_tol:
                rel = err / max(abs(num), abs(ana))
                worst = max(worst, rel)
                assert rel < rel_tol, (
                    f"finite-difference mismatch at flat index {int(i)}: "
                    f"numeric {num:.8g} vs analytic {ana:.8g} (rel {rel:.3g})"
                )
    return worst


def auc_pair_count(scores, labels):
    """AUC by explicit pair counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def roc_points_sweep(scores, labels):
    """(fpr, tpr) at every unique threshold by direct counting, descending."""
    pts = [(0.0, 0.0)]
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if y == 1 and s >= t)
        fp = sum(1 for s, y in zip(scores, labels) if y == 0 and s >= t)
        fn = sum(1 for s, y in zip(scores, labels) if y == 1 and s < t)
        tn = sum(1 for s, y in zip(scores, labels) if y == 0 and s < t)
        pts.append((fp / (fp + tn), tp / (tp + fn)))
    return pts


def youden_scan(scores, labels):
    """Best sensitivity+specificity threshold by exhaustive scan, low-tie rule."""
    best_t, best_j = None, -np.inf
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if y == 1 and s >= t)
        fp = sum(1 for s, y in zip(scores, labels) if y == 0 and s >= t)
        fn = sum(1 for s, y in zip(scores, labels) if y == 1 and s < t)
        tn = sum(1 for s, y in zip(scores, labels) if y == 0 and s < t)
        j = tp / (tp + fn) + tn / (tn + fp)
        if j >= best_j - 1e-15:  # later thresholds are lower; >= keeps the lowest
            if j > best_j + 1e-15 or best_t is None or t < best_t:
                best_t, best_j = t, max(best_j, j)
    return best_t, best_j


def block_average(data, out_shape):
    """Inverse of integer-factor upsampling: mean over equal blocks."""
    factors = [n // m for n, m in zip(data.shape, out_shape)]
    view = data.reshape(out_shape[0], factors[0], out_shape[1], factors[1],
                        out_shape[2], factors[2])
    return view.mean(axis=(1, 3, 5))


def batchnorm_input_grad(x, gamma, grad, mode, mean, var, eps=1e-5):
    """Closed-form batch-norm input gradient, one out-of-place expression per step.

    Train mode normalizes with the batch statistics of ``x`` (``mean`` and
    ``var`` are ignored) and returns ``istd * (dxhat - m1 - xhat * m2)`` with
    ``m1 = mean(dxhat)`` and ``m2 = mean(dxhat * xhat)`` per channel; eval mode
    normalizes with the given running statistics and returns
    ``dxhat * istd``.  Every step rounds in the same order as the kernel, so
    the two agree bit for bit.
    """
    axes = (0, 2, 3, 4)

    def c5(v):
        return v[None, :, None, None, None]

    if mode == "train":
        batch_mean = x.mean(axis=axes, dtype=np.float64)
        xc = x - c5(batch_mean.astype(x.dtype))
        batch_var = np.square(xc, dtype=np.float64).mean(axis=axes, dtype=np.float64)
        istd = (1.0 / np.sqrt(batch_var + eps)).astype(x.dtype)
        xhat = xc * c5(istd)
    else:
        istd = (1.0 / np.sqrt(var.astype(np.float64) + eps)).astype(x.dtype)
        xhat = (x - c5(mean.astype(x.dtype))) * c5(istd)
    dxhat = grad * c5(gamma)
    if mode == "eval":
        return dxhat * c5(istd)
    m1 = dxhat.mean(axis=axes, dtype=np.float64).astype(x.dtype)
    m2 = (dxhat * xhat).mean(axis=axes, dtype=np.float64).astype(x.dtype)
    return c5(istd) * (dxhat - c5(m1) - xhat * c5(m2))


def maxpool_argmax_grad(x, grad):
    """Max-pool input gradient routed by each 2x2x2 block's ``argmax`` (the
    first of equal maxima in linear order 0-7), through a contiguous copy of
    the blocks."""
    n, c, d, h, w = x.shape
    blocks = x.reshape(n, c, d // 2, 2, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 6, 3, 5, 7)
    blocks = np.ascontiguousarray(blocks).reshape(n, c, d // 2, h // 2, w // 2, 8)
    arg = blocks.argmax(axis=-1)
    scattered = np.zeros(blocks.shape, dtype=x.dtype)
    np.put_along_axis(scattered, arg[..., None], grad[..., None], axis=-1)
    dx = scattered.reshape(n, c, d // 2, h // 2, w // 2, 2, 2, 2).transpose(0, 1, 2, 5, 3, 6, 4, 7)
    return np.ascontiguousarray(dx).reshape(x.shape)


# ---------------------------------------------------------------------------
# helpers only tests call


def mul(x: Tensor, y: Tensor, tape: Tape | None = None) -> Tensor:
    if x.shape != y.shape:
        raise DataError(f"elementwise shapes differ: {x.shape} vs {y.shape}")
    result = Tensor(x.data * y.data)
    if tape is not None:
        def bwd(grad, needs):
            dx = grad * y.data if needs[0] else None
            dy = grad * x.data if needs[1] else None
            return dx, dy

        tape.record(result, (x, y), bwd)
    return result


def scale(x: Tensor, factor: float, tape: Tape | None = None) -> Tensor:
    result = Tensor(x.data * np.asarray(factor, dtype=x.dtype))
    if tape is not None:
        def bwd(grad, needs):
            return (grad * np.asarray(factor, dtype=x.dtype),)

        tape.record(result, (x,), bwd)
    return result


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    result = Tensor(x.data.sum(dtype=np.float64))
    if tape is not None:
        def bwd(grad, needs):
            return (np.full(x.shape, float(grad), dtype=x.dtype),)

        tape.record(result, (x,), bwd)
    return result


def backward_along(tape: Tape, out: Tensor, d) -> None:
    """Backward from sum(out * d): every gradient is the vector-Jacobian product with d.

    The seed that reaches ``out`` is ``1.0 * d`` in out's dtype, which is d exactly.
    """
    d = Tensor(np.asarray(d, dtype=out.dtype))
    backward(tape, sum_all(mul(out, d, tape=tape), tape=tape))


_ACTIVATIONS = {"relu": ops.relu, "sigmoid": ops.sigmoid, "softmax": ops.softmax}


def activation(x: Tensor, kind: str, tape: Tape | None = None) -> Tensor:
    """Dispatch to relu / sigmoid / softmax-over-last-axis."""
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}") from None
    return fn(x, tape=tape)


def parameter_count(model) -> int:
    return sum(p.data.size for p in model.params.values())


def predict_likelihood(model, volume) -> float:
    """Eval-mode softmax probability of the schizophrenia class for one scan."""
    extent = model.config.input_extent
    if volume.extents not in ((extent,) * 3, (2 * extent,) * 3):
        raise DataError(f"volume extents {volume.extents} match neither "
                        f"{extent}^3 nor {2 * extent}^3")
    x = Tensor(volume.data[None, None].astype(model.dtype))
    return float(model.apply(x, mode="eval").probs.data[0, 1])


def block_shapes(model, x: Tensor) -> list[tuple[int, ...]]:
    """Shape of each convolution block's output (after its pool, where it has
    one), from eval-mode ``Model.run`` chained block by block."""
    shapes, start = [], 0
    for block in range(1, 6):
        stop = 1 + max(i for i, layer in enumerate(model.layers)
                       if layer.name.startswith(f"block{block}."))
        x = model.run(x, "eval", start, stop)
        shapes.append(x.shape)
        start = stop
    return shapes


def central_region(size: int) -> np.ndarray:
    """Boolean mask of the central half-extent box (cavity neighborhood)."""
    axis = np.linspace(-1.0, 1.0, size, dtype=np.float64)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    return (np.abs(gx) < 0.5) & (np.abs(gy) < 0.5) & (np.abs(gz) < 0.5)


def split_subjects(records) -> dict[str, set[str]]:
    """Subject-id sets per split, for leakage checks and reporting."""
    out: dict[str, set[str]] = {s: set() for s in SPLITS}
    for rec in records:
        out[rec.split].add(rec.subject_id)
    return out


def trapezoid_area(points) -> float:
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += (b.fpr - a.fpr) * (a.tpr + b.tpr) / 2
    return total


def localization_score(cam: CamVolume, roi_mask: np.ndarray, threshold: float = 0.85) -> float:
    """Fraction of suprathreshold CAM voxels that fall inside the ROI."""
    roi_mask = np.asarray(roi_mask, dtype=bool)
    if roi_mask.shape != cam.values.shape:
        raise DataError(f"ROI shape {roi_mask.shape} != CAM shape {cam.values.shape}")
    hot = threshold_cam(cam, threshold)
    total = int(hot.sum())
    if total == 0:
        return 0.0
    return float((hot & roi_mask).sum() / total)
