"""The benchmark's per-layer tracer finds every szdl name it hooks.

``bench/spans.py`` swaps module attributes of szdl for timing wrappers.  A
renamed or deleted hook site only shows when the benchmark runs, so this
installs the tracer, checks what it replaced and removes it again, and runs
the hooked calls under it.
"""

import sys
from pathlib import Path

import numpy as np

from szdl import gradcam, ops, tensor, train
from szdl.model import ModelConfig, build_model
from szdl.nifti import Volume
from szdl.tensor import Tape, Tensor

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

HOOK_SITES = 32


def test_tracer_installs_and_restores_every_hook():
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert len(patched) == HOOK_SITES
        for owner, attr, original in patched:
            assert original.__module__.startswith("szdl."), (owner, attr)
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.remove()
    assert not tracer.installed
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_traced_calls_run_and_are_counted():
    """A training step, an eval forward and a Grad-CAM run through the installed
    wrappers: a drift in a hooked signature fails here, not only in traced
    benchmark runs."""
    config = ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                         classifier_dims=(8, 4))
    net = build_model(config, seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((2, 1, 16, 16, 16), dtype=np.float32))
    tracer = spans.Tracer()
    try:
        tracer.install()
        tape = Tape()
        result = net.apply(x, mode="train", tape=tape, rng=rng)
        loss = ops.cross_entropy(result.logits, np.array([0, 1]), tape=tape)
        net.zero_grad()
        tensor.backward(tape, loss)
        params = net.parameters()
        train.adam_step(params, [p.grad for p in params], train.AdamState.for_params(params),
                        1e-3)
        probs = net.apply(x, mode="eval").probs
        cam = gradcam.grad_cam(net, Volume(x.data[0, 0]), 1)
    finally:
        tracer.remove()
    assert np.isfinite(loss.item()) and probs.shape == (2, 2)
    assert cam.extents == (16, 16, 16)
    for name in ("model.apply.train", "model.apply.eval", "gradcam.grad_cam"):
        assert tracer.counts[name] > 0, name
