"""Per-layer spans recorded from outside szdl.

A :class:`Tracer` replaces a module-level name with a timing wrapper at
every place a caller looks that name up (``train`` imports ``load_volume``
and ``backward`` by name, ``cli`` imports ``grad_cam`` and the checkpoint
functions, ``model`` calls ``ops.<op>`` through the module), and restores
the originals when it is removed.  Backward time per op is taken by
wrapping the closure each op records on the tape.  Nothing inside szdl is
edited; end-to-end figures come from runs without a tracer.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

from szdl import augment, cli, gradcam, model, nifti, ops, tensor, train

OPS = ("conv3d", "batchnorm3d", "maxpool3d", "channel_scale", "relu", "downsample2x",
       "global_avg_pool", "dense")
# augment function -> its step name in a plan, which also names its metric
TRANSFORMS = {"blur": "blur", "add_noise": "noise", "affine_resample": "affine",
              "elastic_deform": "elastic", "bias_field": "bias",
              "motion_artifact": "motion"}

# per-call spans: metric name -> the (module, attribute) sites that call it
CALLS = {
    "nifti.load_volume": [(train, "load_volume"), (cli, "load_volume"),
                          (nifti, "load_volume")],
    "train.save_checkpoint": [(cli, "save_checkpoint")],
    "train.load_checkpoint": [(cli, "load_checkpoint")],
    "train.adam_step": [(train, "adam_step")],
    "gradcam.grad_cam": [(cli, "grad_cam"), (gradcam, "grad_cam")],
    "gradcam.trilinear_resize": [(gradcam, "trilinear_resize")],
    "evalstats.report_dict": [(cli, "report_dict")],
}

class _TimedBackward:
    """A tape closure that adds its own run time to one op's backward total."""

    def __init__(self, tracer: "Tracer", op: str, inner):
        self.tracer, self.op, self.inner = tracer, op, inner

    def __call__(self, grad, needs):
        start = time.perf_counter()
        try:
            return self.inner(grad, needs)
        finally:
            elapsed = time.perf_counter() - start
            self.tracer.add(f"ops.{self.op}.bwd", elapsed)
            self.tracer.closure_time += elapsed


def tape_bytes(tape: tensor.Tape) -> int:
    """Bytes of the distinct buffers that the tape's nodes keep alive.

    Counts node outputs, node inputs and every array a recorded closure
    captured (directly, in a Tensor, or in a list), each base buffer once.
    Parameters are left out: the model holds them with or without a tape.
    """
    seen: set[int] = set()
    total = 0

    def add(obj) -> None:
        nonlocal total
        if isinstance(obj, tensor.Parameter):
            return
        if isinstance(obj, tensor.Tensor):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                add(item)

    for output, inputs, fn in tape._nodes:
        add(output)
        add(inputs)
        for cell in getattr(getattr(fn, "inner", fn), "__closure__", None) or ():
            try:
                add(cell.cell_contents)
            except ValueError:  # empty cell
                pass
    return total


class Tracer:
    """Installs the wrappers, accumulates span totals and builds the metrics.

    ``fit`` augments on worker threads, so span totals are added under a
    lock and the transform nesting depth is kept per thread.
    """

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.closure_time = 0.0          # main thread only: backward runs there
        self.tape_peak = (0, 0)          # (bytes, nodes) of the largest tape
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()  # .augment_depth: transforms open on this thread
        self._in_fit = False
        self._mark = None                # end of the last non-data step inside fit

    # -- spans -------------------------------------------------------------

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            self.totals[name] += seconds
            self.counts[name] += count

    def span(self, name: str):
        return _Span(self, name)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        for op in OPS:
            self._patch(ops, op, self._wrap_op(op, getattr(ops, op)))
        for fn_name, short in TRANSFORMS.items():
            self._patch(augment, fn_name, self._wrap_transform(short, getattr(augment, fn_name)))
        for name, sites in CALLS.items():
            for owner, attr in sites:
                self._patch(owner, attr, self._wrap_call(name, getattr(owner, attr)))
        for owner in (train, gradcam, cli, tensor):
            self._patch(owner, "backward", self._wrap_backward(getattr(owner, "backward")))
        self._patch(model.Model, "apply", self._wrap_apply(model.Model.apply))
        self._patch(train, "_evaluate", self._mark_after(train._evaluate))
        self._patch(train, "build_model", self._mark_after(train.build_model))
        self._patch(cli, "fit", self._wrap_fit(cli.fit))
        return self

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap_op(self, op: str, fn):
        def wrapper(*args, **kwargs):
            tape = kwargs.get("tape")
            before = len(tape) if tape is not None else 0
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.add(f"ops.{op}.fwd", time.perf_counter() - start)
            if tape is not None and len(tape) > before:
                output, inputs, closure = tape._nodes[-1]
                tape._nodes[-1] = (output, inputs, _TimedBackward(self, op, closure))
            return out
        return wrapper

    def _wrap_transform(self, short: str, fn):
        def wrapper(*args, **kwargs):
            depth = getattr(self._local, "augment_depth", 0)
            self._local.augment_depth = depth + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.augment_depth = depth
                if depth == 0:  # motion resamples through affine
                    self.add(f"augment.{short}", time.perf_counter() - start)
        return wrapper

    def _wrap_call(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)
                if name == "train.adam_step" and self._in_fit:
                    self._mark = time.perf_counter()
        return wrapper

    def _wrap_backward(self, fn):
        def wrapper(tape, loss, *args, **kwargs):
            held = tape_bytes(tape)
            if held > self.tape_peak[0]:
                self.tape_peak = (held, len(tape))
            closures_before = self.closure_time
            start = time.perf_counter()
            try:
                return fn(tape, loss, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.add("tensor.backward_self",
                         elapsed - (self.closure_time - closures_before))
        return wrapper

    def _wrap_apply(self, fn):
        tracer = self

        def wrapper(self_model, x, mode="eval", tape=None, rng=None):
            start = time.perf_counter()
            if mode == "train" and tracer._in_fit and tracer._mark is not None:
                tracer.add("train.data_wait", start - tracer._mark)
            batch = x.shape[0]
            try:
                return fn(self_model, x, mode=mode, tape=tape, rng=rng)
            finally:
                tracer.add(f"model.apply.{mode}", time.perf_counter() - start, batch)
                tracer.add("samples.fwd", 0.0, batch)
                if tape is not None:
                    tracer.add("samples.bwd", 0.0, batch)
        return wrapper

    def _mark_after(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if self._in_fit:
                    self._mark = time.perf_counter()
        return wrapper

    def _wrap_fit(self, fn):
        def wrapper(*args, **kwargs):
            self._in_fit, self._mark = True, None
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_fit, self._mark = False, None
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric's value; a layer the workload never called reads 0."""
        values: dict[str, float] = {}
        fwd_samples = max(self.counts["samples.fwd"], 1)
        bwd_samples = max(self.counts["samples.bwd"], 1)
        for op in OPS:
            values[f"ops.{op}.fwd_ms"] = 1e3 * self.totals[f"ops.{op}.fwd"] / fwd_samples
            values[f"ops.{op}.bwd_ms"] = 1e3 * self.totals[f"ops.{op}.bwd"] / bwd_samples
        values["tape.bytes_held_mb"] = self.tape_peak[0] / 2 ** 20
        values["tape.nodes"] = float(self.tape_peak[1])
        # per call, per sample (model.apply) or per training step (data wait)
        per_unit = {
            "tensor.backward_self_ms": "tensor.backward_self",
            "model.apply.train_ms": "model.apply.train",
            "model.apply.eval_ms": "model.apply.eval",
            "train.adam_step_ms": "train.adam_step",
            "nifti.load_volume_ms": "nifti.load_volume",
            "train.save_checkpoint_ms": "train.save_checkpoint",
            "train.load_checkpoint_ms": "train.load_checkpoint",
            "gradcam.grad_cam_ms": "gradcam.grad_cam",
            "gradcam.trilinear_resize_ms": "gradcam.trilinear_resize",
            "evalstats.report_dict_ms": "evalstats.report_dict",
        }
        per_unit.update({f"augment.{s}_ms": f"augment.{s}" for s in TRANSFORMS.values()})
        for metric, span in per_unit.items():
            values[metric] = 1e3 * self.totals[span] / max(self.counts[span], 1)
        steps = max(self.counts["train.adam_step"], 1)
        values["train.data_wait_ms"] = 1e3 * self.totals["train.data_wait"] / steps
        return values


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.add(self.name, time.perf_counter() - self.start)
        return False
