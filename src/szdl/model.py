"""The SE-VGG-11BN volumetric classifier.

Five convolution blocks over a 2x down-sampled input, each convolution
followed by batch normalization, a squeeze-and-excitation gate and ReLU.
Blocks 1 and 2 hold one conv each, blocks 3-5 hold two; blocks 1-4 end in
2x2x2 max-pooling while block 5 keeps its spatial extent.  Grad-CAM reads
the deepest block ReLU whose map is at least 6^3 (``Model.feature_layer``):
6^3 is the final map at the paper's 96^3 input, where this picks block 5;
at 48^3 block 5 shrinks to 3^3, every cell but the centre touches the
convolutions' zero padding, and block 4's 6^3 map is used instead.  The
classifier is dropout -> dense -> ReLU -> dropout -> dense -> sigmoid ->
dense -> softmax over the flattened feature maps.

The layer stack is built once as a list of :class:`LayerInfo` descriptors
and the forward pass interprets ranges of that list (:meth:`Model.run`), so
structural assertions and execution can never drift apart: ``apply`` runs
the whole stack, Grad-CAM tapes only the layers above its source.  Only the
downsample layer reads the raw input, and it checks the input's shape.  A
range that starts at a BN or ReLU layer, or untaped at an SE layer, takes
over its input's buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .config import JsonConfig
from .errors import DataError
from .ops import BNState
from .tensor import Parameter, Tape, Tensor

_POOL_STAGES = 4  # blocks 1-4 halve the extent; block 5 does not
_MIN_CAM_EXTENT = 6  # the final map's extent at the paper's 96^3 input
_BLOCK_CHANNELS = (64, 128, 256, 256, 512, 512, 512, 512)  # the 8 convolution widths


@dataclass(frozen=True)
class ModelConfig(JsonConfig):
    """Structural hyperparameters of the classifier (one input channel, two classes).

    The eight convolution widths are the published ones, scaled by ``width_scale``.
    """

    input_extent: int = 96
    se_ratio: int = 16
    classifier_dims: tuple[int, int] = (128, 16)
    dropout_p: float = 0.5
    width_scale: float = 1.0

    def scaled_channels(self) -> tuple[int, ...]:
        scaled = []
        for c in _BLOCK_CHANNELS:
            v = c * self.width_scale
            if not 0 < v < math.inf or abs(v - round(v)) > 1e-9 or round(v) < 1:
                raise ValueError(f"width_scale {self.width_scale} does not scale {c} "
                                 "to a positive integer")
            scaled.append(int(round(v)))
        return tuple(scaled)

    def validate(self) -> None:
        if self.input_extent % (2 ** _POOL_STAGES) != 0 or self.input_extent <= 0:
            raise ValueError(
                f"input_extent {self.input_extent} must be a positive multiple of "
                f"{2 ** _POOL_STAGES} (four pooling stages)")
        if self.se_ratio < 1:
            raise ValueError(f"se_ratio must be >= 1, got {self.se_ratio}")
        for c in self.scaled_channels():
            if c % self.se_ratio != 0:
                raise ValueError(
                    f"se_ratio {self.se_ratio} does not divide channel width {c}")
        if not 0 <= self.dropout_p < 1:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        dims = self.classifier_dims
        if len(dims) != 2 or not all(type(d) is int and d > 0 for d in dims):
            raise ValueError(f"classifier_dims must be two positive integers, got {list(dims)}")


@dataclass(frozen=True)
class LayerInfo:
    kind: str                 # downsample|conv|bn|se|relu|pool|flatten|dropout|dense|sigmoid|softmax
    name: str


@dataclass
class ForwardResult:
    probs: Tensor
    logits: Tensor


class Model:
    """Layer stack, named parameters and batch-norm running statistics."""

    def __init__(self, config: ModelConfig, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Parameter] = {}
        self.bn_states: dict[str, BNState] = {}
        self.layers: list[LayerInfo] = []
        self.feature_layer: str = ""

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad[...] = 0

    def state_arrays(self) -> list[tuple[str, str, np.ndarray]]:
        """(role, name, array) of every parameter and BN statistic, in checkpoint order."""
        entries = [("param", p.name, p.data) for p in self.params.values()]
        for name in sorted(self.bn_states):
            entries.append(("bn_mean", name, self.bn_states[name].mean))
            entries.append(("bn_var", name, self.bn_states[name].var))
        return entries

    # -- execution -----------------------------------------------------

    def apply(self, x: Tensor, mode: str = "eval", tape: Optional[Tape] = None,
              rng: Optional[np.random.Generator] = None) -> ForwardResult:
        """Run the full stack; returns probabilities and the logits they come from."""
        logits = self.run(x, mode, 0, -1, tape, rng)
        probs = self.run(logits, mode, -1, len(self.layers), tape, rng)
        return ForwardResult(probs=probs, logits=logits)

    def run(self, x: Tensor, mode: str, start: int, stop: int, tape: Optional[Tape] = None,
            rng: Optional[np.random.Generator] = None) -> Tensor:
        """Interpret ``self.layers[start:stop]`` on ``x``, recording only its ops on
        ``tape``; returns the last layer's output.  A range that starts at a BN
        or ReLU layer (or, with no tape, at an SE layer) writes into ``x``'s
        buffer and empties ``x``."""
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown mode {mode!r}")
        cur = x
        for layer in self.layers[start:stop]:
            kind = layer.kind
            if kind == "downsample":
                extent = self.config.input_extent
                if cur.data.ndim != 5 or cur.shape[1] != 1:
                    raise DataError(f"expected [N, 1, D, H, W] input, got {cur.shape}")
                spatial = cur.shape[2:]
                if spatial == (2 * extent,) * 3:
                    cur = ops.downsample2x(cur, tape=tape)
                elif spatial != (extent,) * 3:
                    raise DataError(f"input extent {spatial} matches neither {extent} "
                                    f"nor {2 * extent}")
            elif kind == "conv":
                cur = ops.conv3d(cur, self.params[layer.name + ".weight"],
                                 self.params[layer.name + ".bias"], tape=tape)
            elif kind == "bn":
                conv_out = cur
                cur = ops.batchnorm3d(cur, self.params[layer.name + ".gamma"],
                                      self.params[layer.name + ".beta"], mode,
                                      self.bn_states[layer.name], tape=tape,
                                      out=conv_out.data)
                _empty(conv_out)
            elif kind == "se":  # only a taped closure reads the BN output
                se, bn_out = layer.name, cur
                cur = se_block(cur, self.params[se + ".fc1.weight"], self.params[se + ".fc1.bias"],
                               self.params[se + ".fc2.weight"], self.params[se + ".fc2.bias"],
                               tape=tape, out=bn_out.data if tape is None else None)
                if cur.data is bn_out.data:
                    _empty(bn_out)
            elif kind == "relu":
                relu_in = cur
                cur = ops.relu(cur, tape=tape, out=relu_in.data)
                _empty(relu_in)
            elif kind == "pool":
                cur = ops.maxpool3d(cur, tape=tape)
            elif kind == "flatten":
                cur = ops.reshape(cur, (cur.shape[0], -1), tape=tape)
            elif kind == "dropout":
                cur = ops.dropout(cur, self.config.dropout_p, mode, rng=rng, tape=tape)
            elif kind == "dense":
                cur = ops.dense(cur, self.params[layer.name + ".weight"],
                                self.params[layer.name + ".bias"], tape=tape)
            elif kind == "sigmoid":
                cur = ops.sigmoid(cur, tape=tape)
            elif kind == "softmax":
                cur = ops.softmax(cur, tape=tape)
            else:  # pragma: no cover
                raise AssertionError(f"unhandled layer kind {kind}")
        return cur


def _empty(t: Tensor) -> None:
    """Detach an input of batch norm or ReLU whose buffer the op's output took over
    (no backward closure reads it); the dtype is kept."""
    t.data = np.empty(0, t.dtype)


def se_block(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
             tape: Optional[Tape] = None, out: Optional[np.ndarray] = None) -> Tensor:
    """Squeeze-and-excitation: pool to [N,C], dense bottleneck, sigmoid gate.

    output(n, c, .) = gate(n, c) * x(n, c, .) with gate in (0, 1), written to
    ``out`` if given (``x.data`` only without a tape, as ``channel_scale``).
    """
    squeezed = ops.global_avg_pool(x, tape=tape)
    hidden = ops.relu(ops.dense(squeezed, w1, b1, tape=tape), tape=tape)
    gate = ops.sigmoid(ops.dense(hidden, w2, b2, tape=tape), tape=tape)
    return ops.channel_scale(x, gate, tape=tape, out=out)


# ---------------------------------------------------------------------------
# construction


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> Model:
    """Deterministically initialize the full layer stack from one seed.

    Conv and dense weights and biases (SE bottlenecks included) draw from a
    fan-in scaled uniform distribution; batch-norm starts at gamma 1 / beta 0
    with running mean 0 / variance 1.
    """
    model = Model(config, dtype=dtype)
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0]))
    dt = model.dtype

    def add_param(name, shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        model.params[name] = Parameter(name, rng.uniform(-bound, bound, size=shape).astype(dt))

    def add_affine(name, fin, fout):
        add_param(name + ".weight", (fin, fout), fin)
        add_param(name + ".bias", (fout,), fin)

    def add_conv(name, cin, cout):
        add_param(name + ".weight", (cout, cin, 3, 3, 3), cin * 27)
        add_param(name + ".bias", (cout,), cin * 27)
        model.layers.append(LayerInfo("conv", name))

    def add_bn(name, c):
        model.params[name + ".gamma"] = Parameter(name + ".gamma", np.ones(c, dtype=dt))
        model.params[name + ".beta"] = Parameter(name + ".beta", np.zeros(c, dtype=dt))
        model.bn_states[name] = BNState(np.zeros(c, dtype=dt), np.ones(c, dtype=dt))
        model.layers.append(LayerInfo("bn", name))

    def add_se(name, c):
        hidden = c // config.se_ratio
        add_affine(name + ".fc1", c, hidden)
        add_affine(name + ".fc2", hidden, c)
        model.layers.append(LayerInfo("se", name))

    def add_dense(name, fin, fout):
        add_affine(name, fin, fout)
        model.layers.append(LayerInfo("dense", name))

    def add_conv_unit(block, idx, cin, cout):
        prefix = f"block{block}"
        add_conv(f"{prefix}.conv{idx}", cin, cout)
        add_bn(f"{prefix}.bn{idx}", cout)
        add_se(f"{prefix}.se{idx}", cout)
        model.layers.append(LayerInfo("relu", f"{prefix}.relu{idx}"))

    channels = config.scaled_channels()
    model.layers.append(LayerInfo("downsample", "downsample"))

    extent = config.input_extent
    cin = 1
    conv_idx = 0
    for block, n_convs in enumerate((1, 1, 2, 2, 2), start=1):
        for idx in range(1, n_convs + 1):
            cout = channels[conv_idx]
            add_conv_unit(block, idx, cin, cout)
            cin = cout
            conv_idx += 1
        if extent >= _MIN_CAM_EXTENT:  # deepest qualifying block wins
            model.feature_layer = f"block{block}.relu{n_convs}"
        if block < 5:
            model.layers.append(LayerInfo("pool", f"block{block}.pool"))
            extent //= 2

    flat = channels[-1] * extent ** 3
    h1, h2 = config.classifier_dims
    model.layers.append(LayerInfo("flatten", "classifier.flatten"))
    model.layers.append(LayerInfo("dropout", "classifier.drop1"))
    add_dense("classifier.fc1", flat, h1)
    model.layers.append(LayerInfo("relu", "classifier.relu1"))
    model.layers.append(LayerInfo("dropout", "classifier.drop2"))
    add_dense("classifier.fc2", h1, h2)
    model.layers.append(LayerInfo("sigmoid", "classifier.sigmoid"))
    add_dense("classifier.fc3", h2, 2)
    model.layers.append(LayerInfo("softmax", "classifier.softmax"))
    return model
