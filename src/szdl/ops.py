"""Forward and reverse-mode kernels for every layer the classifier needs.

All kernels take and return :class:`~szdl.tensor.Tensor` and optionally
record themselves on a :class:`~szdl.tensor.Tape`.  Convolution is
computed per sample as GEMMs over im2col buffers built in bounded pieces
(``_CHUNK_BYTES``): the forward pass splits the output depth into slabs,
so each GEMM keeps the full reduction length and writes straight into its
slab of the output, and the backward pass splits
the input channels, so each input-gradient element still sums its 27
shifted slice-adds in the same order.  No buffer is cached on the tape: the
backward pass rebuilds im2col only when the weight gradient is needed.
Trading that recomputation for memory (Chen et al. 2016, "Training Deep
Nets with Sublinear Memory Cost") keeps the tape from holding a 27x copy of
every convolution input.  For the same reason each closure captures only
what it reads: ReLU takes its mask from its own output (``out > 0`` exactly
where ``x > 0``) and batch norm reads its normalized ``xhat``, so neither
reads its input.  ``Model.run`` therefore passes that input's own array
as ``out``: the output takes over the buffer, and no dead activation is
freed while a new one of the same size is allocated.

Max pooling has one forward, three pairwise ``np.maximum`` reductions,
and its backward finds each block's winner by comparing the input with
the output, both of which the tape holds anyway.  Without a tape an op
computes only what it returns: batch norm builds no separate ``xhat``,
and ``channel_scale`` may write into its input (``Model.run`` passes the
batch-norm output's buffer).  Each output is byte-identical to the taped
one.

Statistical reductions (means, variances, sums feeding scalars) run in
64-bit accumulators regardless of the engine dtype; BLAS contractions
stay in the native dtype for speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .tensor import Tape, Tensor


def _reduce(a: np.ndarray, axis, dtype) -> np.ndarray:
    """Sum in float64, returned in the engine dtype."""
    return a.sum(axis=axis, dtype=np.float64).astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# convolution


_CHUNK_BYTES = 64 * 2 ** 20  # per im2col or colgrad piece (never less than one slice or channel)


def _pieces(total: int, unit_bytes: int) -> list[slice]:
    """Split ``range(total)`` into runs of at most ``_CHUNK_BYTES`` (at least one unit each)."""
    step = max(1, _CHUNK_BYTES // unit_bytes)
    return [slice(start, min(start + step, total)) for start in range(0, total, step)]


def _im2col(xp: np.ndarray) -> np.ndarray:
    """Zero-padded [C,D+2,H+2,W+2] -> contiguous [C*27, D*H*W] column matrix of 3^3 windows."""
    c = xp.shape[0]
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3, 3), axis=(1, 2, 3))
    # [C, D, H, W, 3, 3, 3] -> [C, 3, 3, 3, D, H, W]
    win = win.transpose(0, 4, 5, 6, 1, 2, 3)
    spatial = win.shape[4] * win.shape[5] * win.shape[6]
    return np.ascontiguousarray(win).reshape(c * 27, spatial)


def _pad(sample: np.ndarray) -> np.ndarray:
    """Zero-pad the three spatial axes of a [C,D,H,W] sample by one voxel."""
    return np.pad(sample, ((0, 0), (1, 1), (1, 1), (1, 1)))


def conv3d(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """3D cross-correlation with a 3x3x3 kernel, zero padding 1, stride 1.

    ``x`` is [N, Cin, D, H, W], ``w`` is [Cout, Cin, 3, 3, 3], ``b`` is
    [Cout]; spatial extents are preserved.  im2col is built in pieces of at
    most ``_CHUNK_BYTES`` (or one depth slice / one input channel, if that
    is larger): depth slabs in the forward pass, input-channel chunks for
    the weight and input gradients.  Each piece lives only for its GEMM, so
    the tape keeps no copy.  In float32 a split layer equals one whole GEMM
    bit for bit at every paper-scale layer shape; in float64 OpenBLAS's
    dgemm rounds a partial column tile differently, so a split ``dw`` can
    differ from the whole in the last bit.
    """
    if x.data.ndim != 5 or w.data.ndim != 5:
        raise DataError(f"conv3d expects 5-d input/kernel, got {x.shape}/{w.shape}")
    n, cin, d, h, wd = x.shape
    cout, cin_w = w.shape[:2]
    if cin != cin_w:
        raise DataError(f"input channels {cin} != kernel channels {cin_w}")
    if w.shape[2:] != (3, 3, 3):
        raise DataError(f"kernel must be 3x3x3, got {w.shape[2:]}")
    if b.shape != (cout,):
        raise DataError(f"bias shape {b.shape} != ({cout},)")

    itemsize = x.dtype.itemsize
    w_mat = w.data.reshape(cout, cin * 27)
    out = np.empty((n, cout, d, h, wd), dtype=x.dtype)
    for i in range(n):
        xp = _pad(x.data[i])
        out_mat = out[i].reshape(cout, d * h * wd)
        for s in _pieces(d, cin * 27 * h * wd * itemsize):
            o = out_mat[:, s.start * h * wd:s.stop * h * wd]
            np.matmul(w_mat, _im2col(xp[:, s.start:s.stop + 2]), out=o)
            o += b.data[:, None]

    result = Tensor(out)
    if tape is not None:
        def bwd(grad, needs):
            need_x, need_w, need_b = needs
            dw = np.zeros_like(w.data) if need_w else None
            dx = np.zeros((n, cin, d + 2, h + 2, wd + 2), dtype=x.dtype) if need_x else None
            dw_mat = dw.reshape(cout, cin * 27) if need_w else None
            for i in range(n):
                g = grad[i].reshape(cout, d * h * wd)
                xp = _pad(x.data[i]) if need_w else None
                for s in _pieces(cin, 27 * d * h * wd * itemsize):
                    k = slice(27 * s.start, 27 * s.stop)
                    if need_w:
                        dw_mat[:, k] += g @ _im2col(xp[s]).T
                    if need_x:
                        colgrad = (w_mat[:, k].T @ g).reshape(-1, 3, 3, 3, d, h, wd)
                        for a in range(3):
                            for bb in range(3):
                                for c in range(3):
                                    dx[i, s, a:a + d, bb:bb + h, c:c + wd] += colgrad[:, a, bb, c]
                        del colgrad  # free before the next chunk's buffers
            if need_x:
                dx = np.ascontiguousarray(dx[:, :, 1:1 + d, 1:1 + h, 1:1 + wd])
            db = _reduce(grad, (0, 2, 3, 4), x.dtype) if need_b else None
            return dx, dw, db

        tape.record(result, (x, w, b), bwd)
    return result


# ---------------------------------------------------------------------------
# pooling


def _require_even(extents: tuple[int, int, int]) -> None:
    """The spatial check of both 2x2x2 reductions, max pooling and downsampling."""
    if any(e % 2 for e in extents):
        raise DataError(f"spatial extents {extents} must be even")


def maxpool3d(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Disjoint 2x2x2 max pooling by three pairwise ``np.maximum`` reductions.

    One forward serves both modes; on a tie ``np.maximum`` returns its
    second operand, here the lower-index half.  The backward closure stores
    nothing of its own: it reads the input and the output, which the tape
    holds anyway, and at each block position 0-7 in linear order sends the
    gradient to the voxels that equal the block maximum and whose block no
    earlier position took, so ties go to the lowest linear index.

    Precondition for backward: no NaN.  A block holding a NaN pools to NaN
    but routes no gradient, since NaN equals nothing; NaN volumes are
    rejected on load and a non-finite loss raises first.  Likewise a
    signed-zero tie, which ReLU outputs never hold, may return either zero.
    """
    n, c, d, h, w = x.shape
    _require_even((d, h, w))
    blocks = (n, c, d // 2, 2, h // 2, 2, w // 2, 2)
    v = x.data.reshape(blocks)
    v = np.maximum(v[:, :, :, 1], v[:, :, :, 0])
    v = np.maximum(v[:, :, :, :, 1], v[:, :, :, :, 0])
    result = Tensor(np.maximum(v[..., 1], v[..., 0]))
    if tape is not None:
        def bwd(grad, needs):
            xv, out, dx = x.data.reshape(blocks), result.data, np.zeros(x.shape, dtype=x.dtype)
            free, hit = np.ones(out.shape, dtype=bool), np.empty(out.shape, dtype=bool)
            for k in range(8):  # block position (dd, hh, ww) = bits of k
                at = (slice(None),) * 3 + (k >> 2, slice(None), (k >> 1) & 1, slice(None), k & 1)
                np.equal(xv[at], out, out=hit)
                hit &= free
                np.copyto(dx.reshape(blocks)[at], grad, where=hit)
                free &= ~hit
            return (dx,)

        tape.record(result, (x,), bwd)
    return result


def downsample2x(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Halve the last three extents by 2x2x2 block mean."""
    if x.data.ndim < 3:
        raise DataError("downsample2x needs at least 3 trailing spatial axes")
    d, h, w = x.shape[-3:]
    _require_even((d, h, w))
    lead = x.shape[:-3]
    blocks = x.data.reshape(*lead, d // 2, 2, h // 2, 2, w // 2, 2)
    out = blocks.mean(axis=(-5, -3, -1), dtype=np.float64).astype(x.dtype)

    result = Tensor(out)
    if tape is not None:
        def bwd(grad, needs):
            dx = np.zeros_like(x.data)
            view = dx.reshape(*lead, d // 2, 2, h // 2, 2, w // 2, 2)
            view += (grad / 8)[..., :, None, :, None, :, None]
            return (dx,)

        tape.record(result, (x,), bwd)
    return result


def global_avg_pool(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Mean over all spatial positions: [N,C,D,H,W] -> [N,C]."""
    if x.data.ndim != 5:
        raise DataError(f"expected 5-d input, got {x.shape}")
    volume = x.shape[2] * x.shape[3] * x.shape[4]
    out = x.data.mean(axis=(2, 3, 4), dtype=np.float64).astype(x.dtype)

    result = Tensor(out)
    if tape is not None:
        def bwd(grad, needs):
            g = (grad / volume).astype(x.dtype)[:, :, None, None, None]
            return (np.broadcast_to(g, x.shape).copy(),)

        tape.record(result, (x,), bwd)
    return result


# ---------------------------------------------------------------------------
# batch normalization

_BN_MOMENTUM = 0.1  # weight of the batch statistic in the running averages
_BN_EPS = 1e-5


@dataclass
class BNState:
    """Running statistics for one batch-norm layer (eval-mode inputs)."""

    mean: np.ndarray
    var: np.ndarray


def batchnorm3d(x: Tensor, gamma: Tensor, beta: Tensor, mode: str, state: BNState,
                tape: Tape | None = None, out: np.ndarray | None = None) -> Tensor:
    """Per-channel normalization over (N, D, H, W) with learned scale/shift.

    Train mode normalizes with the mini-batch mean and biased variance and
    updates ``state`` by exponential moving average; eval mode normalizes
    with the stored running statistics.  Reductions use 64-bit accumulators.
    The result is written to ``out`` if given (``x.data`` itself may be
    passed: it is read in full before ``out`` is written).  Without a tape
    no closure reads the normalized ``xhat``, so it is computed in the output
    buffer, with the same roundings.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    n, c, d, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DataError(f"gamma/beta must have shape ({c},)")

    dest = out if tape is None else None
    if mode == "train":
        count = n * d * h * w
        if count < 2:
            raise DataError("train-mode batchnorm needs >= 2 elements per channel")
        mean = x.data.mean(axis=(0, 2, 3, 4), dtype=np.float64)
        xhat = np.subtract(x.data, mean[None, :, None, None, None].astype(x.dtype), out=dest)
        var = np.square(xhat, dtype=np.float64).mean(axis=(0, 2, 3, 4), dtype=np.float64)
        istd = (1.0 / np.sqrt(var + _BN_EPS)).astype(x.dtype)
        momentum = _BN_MOMENTUM
        state.mean[...] = (1 - momentum) * state.mean + momentum * mean.astype(state.mean.dtype)
        state.var[...] = (1 - momentum) * state.var + momentum * var.astype(state.var.dtype)
    else:
        istd = (1.0 / np.sqrt(state.var.astype(np.float64) + _BN_EPS)).astype(x.dtype)
        xhat = np.subtract(x.data, state.mean.astype(x.dtype)[None, :, None, None, None], out=dest)
    istd5 = istd[None, :, None, None, None]
    xhat *= istd5

    out = np.multiply(gamma.data[None, :, None, None, None], xhat,
                      out=xhat if tape is None else out)
    out += beta.data[None, :, None, None, None]
    result = Tensor(out)

    if tape is not None:
        dtype = x.dtype  # the closure never reads x, whose buffer may now hold out

        def bwd(grad, needs):
            need_x, need_gamma, need_beta = needs
            dgamma = _reduce(grad * xhat, (0, 2, 3, 4), dtype) if need_gamma else None
            dbeta = _reduce(grad, (0, 2, 3, 4), dtype) if need_beta else None
            dx = None
            if need_x:
                # istd * (dxhat - m1 - xhat * m2) in train mode, dxhat * istd in
                # eval mode, each step in place on dx (starting as dxhat)
                dx = grad * gamma.data[None, :, None, None, None]
                if mode == "train":
                    m1 = dx.mean(axis=(0, 2, 3, 4), dtype=np.float64).astype(dtype)
                    m2 = (dx * xhat).mean(axis=(0, 2, 3, 4), dtype=np.float64).astype(dtype)
                    dx -= m1[None, :, None, None, None]
                    dx -= xhat * m2[None, :, None, None, None]
                dx *= istd5
            return dx, dgamma, dbeta

        tape.record(result, (x, gamma, beta), bwd)
    return result


# ---------------------------------------------------------------------------
# dense / activations / dropout


def dense(x: Tensor, w: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Affine map x @ W + b with x [N,F], W [F,O], b [O]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DataError(f"dense expects 2-d operands, got {x.shape}/{w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DataError(f"inner extents differ: {x.shape[1]} vs {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise DataError(f"bias shape {b.shape} != ({w.shape[1]},)")
    out = x.data @ w.data + b.data

    result = Tensor(out)
    if tape is not None:
        def bwd(grad, needs):
            need_x, need_w, need_b = needs
            dx = grad @ w.data.T if need_x else None
            dw = x.data.T @ grad if need_w else None
            db = _reduce(grad, 0, x.dtype) if need_b else None
            return dx, dw, db

        tape.record(result, (x, w, b), bwd)
    return result


def relu(x: Tensor, tape: Tape | None = None, out: np.ndarray | None = None) -> Tensor:
    """max(x, 0), written to ``out`` if given (``x.data`` itself may be passed);
    the backward mask is read from the output, never from ``x``."""
    out = np.maximum(x.data, 0, out=out)
    result = Tensor(out)
    if tape is not None:
        def bwd(grad, needs):
            return (grad * (out > 0),)

        tape.record(result, (x,), bwd)
    return result


def sigmoid(x: Tensor, tape: Tape | None = None) -> Tensor:
    z = x.data
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(x.dtype)
    result = Tensor(out)
    if tape is not None:
        def bwd(grad, needs):
            return (grad * out * (1 - out),)

        tape.record(result, (x,), bwd)
    return result


def softmax(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Softmax over the last axis with max-subtraction stabilization."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)

    result = Tensor(out)
    if tape is not None:
        def bwd(grad, needs):
            inner = (grad * out).sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
            return (out * (grad - inner),)

        tape.record(result, (x,), bwd)
    return result


def dropout(x: Tensor, p: float, mode: str, rng: np.random.Generator | None = None,
            tape: Tape | None = None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "eval" or p == 0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs a random generator")
    scale = (rng.random(x.shape) >= p).astype(x.dtype) / np.asarray(1 - p, dtype=x.dtype)
    out = x.data * scale

    result = Tensor(out)
    if tape is not None:
        def bwd(grad, needs):
            return (grad * scale,)

        tape.record(result, (x,), bwd)
    return result


# ---------------------------------------------------------------------------
# loss


def cross_entropy(logits: Tensor, labels, tape: Tape | None = None) -> Tensor:
    """Mean negative log-likelihood of the true class, fused with log-softmax.

    The gradient with respect to the logits is (softmax - onehot) / N.
    """
    y = np.asarray(labels)
    if logits.data.ndim != 2:
        raise DataError(f"logits must be [N, K], got {logits.shape}")
    n, k = logits.shape
    if y.shape != (n,):
        raise DataError(f"labels shape {y.shape} != ({n},)")
    if not np.issubdtype(y.dtype, np.integer) or y.min() < 0 or y.max() >= k:
        raise DataError(f"labels must be integers in [0, {k})")

    z = logits.data.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    logp = z[np.arange(n), y] - lse
    loss = Tensor(np.float64(-logp.mean()))

    if tape is not None:
        def bwd(grad, needs):
            p = np.exp(z - lse[:, None]).astype(logits.dtype)
            p[np.arange(n), y] -= 1
            return (p * np.asarray(float(grad) / n, dtype=logits.dtype),)

        tape.record(loss, (logits,), bwd)
    return loss


# ---------------------------------------------------------------------------
# small structural ops


def reshape(x: Tensor, shape, tape: Tape | None = None) -> Tensor:
    result = Tensor(x.data.reshape(shape))
    if tape is not None:
        def bwd(grad, needs):
            return (grad.reshape(x.shape),)

        tape.record(result, (x,), bwd)
    return result


def channel_scale(x: Tensor, gate: Tensor, tape: Tape | None = None,
                  out: np.ndarray | None = None) -> Tensor:
    """Multiply each channel of [N,C,D,H,W] by a per-(sample, channel) gate,
    written to ``out`` if given.  ``x.data`` itself may be passed only without
    a tape: the backward closure reads ``x`` for the gate's gradient."""
    if gate.shape != x.shape[:2]:
        raise DataError(f"gate shape {gate.shape} != {x.shape[:2]}")
    g5 = gate.data[:, :, None, None, None]
    out = np.multiply(x.data, g5, out=out)

    result = Tensor(out)
    if tape is not None:
        def bwd(grad, needs):
            need_x, need_gate = needs
            dx = grad * g5 if need_x else None
            dgate = _reduce(grad * x.data, (2, 3, 4), x.dtype) if need_gate else None
            return dx, dgate

        tape.record(result, (x, gate), bwd)
    return result


def take(x: Tensor, index: tuple, tape: Tape | None = None) -> Tensor:
    """Select a single element as a 0-d tensor (e.g. one logit)."""
    result = Tensor(x.data[index])
    if tape is not None:
        def bwd(grad, needs):
            dx = np.zeros_like(x.data)
            dx[index] = grad
            return (dx,)

        tape.record(result, (x,), bwd)
    return result
