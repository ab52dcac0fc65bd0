"""Fast self-test of the benchmark: toy-size workloads and wrong outputs.

    python3 bench/selftest.py

Run from the root of a source checkout; it takes about 20 seconds.  Each
workload runs one round at a toy size, untraced and traced, and must
finish correct with no failed operation.  Each check must accept a right
output and reject a deliberately wrong one.  The tracer must time
transforms that run on two threads at once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
import unittest
from dataclasses import replace
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from szdl import augment, cli, gradcam, ops, tensor, train  # noqa: E402
from szdl.model import build_model  # noqa: E402
from szdl.nifti import Volume  # noqa: E402
from workloads import LEARNING_RATE, TOY, WORKLOADS, execute  # noqa: E402
from checks import CheckFailed  # noqa: E402


def declared(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]


class TestWorkloads(unittest.TestCase):
    def _run(self, name: str, trace: bool) -> dict:
        out = execute(name, seed=0, seconds=0, trace=trace, root=ROOT, workers=1, scale=TOY,
                      rounds=1)
        result = out["result"]
        self.assertEqual(out["detail"]["errors"], [])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return result["metrics"]

    def test_untraced_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                metrics = self._run(name, trace=False)
                self.assertEqual(list(metrics), declared("end_to_end"))
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_traced_metrics(self):
        exercised = {
            "desk-train": ["ops.conv3d.bwd_ms", "tape.bytes_held_mb", "train.data_wait_ms",
                           "train.save_checkpoint_ms", "evalstats.report_dict_ms"],
            "paper-scale": ["ops.downsample2x.fwd_ms", "train.adam_step_ms",
                            "train.data_wait_ms", "gradcam.trilinear_resize_ms"],
            "augment-192": [f"augment.{t}_ms" for t in spans.TRANSFORMS.values()],
        }
        for name, names in exercised.items():
            with self.subTest(workload=name):
                metrics = self._run(name, trace=True)
                self.assertEqual(list(metrics), declared("per_layer"))
                for metric in names:
                    self.assertGreater(metrics[metric]["value"], 0, metric)
                if name == "augment-192":
                    self.assertEqual(metrics["ops.conv3d.fwd_ms"]["value"], 0)

    def test_refuses_without_source(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                                   "desk-train", "--seed", "0", "--seconds", "1"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TestTracer(unittest.TestCase):
    def test_transforms_on_two_threads(self):
        """fit augments on worker threads: each thread's calls are timed, and a
        transform called inside another (motion through affine) is not."""
        tracer = spans.Tracer()
        inner = tracer._wrap_transform("affine", lambda: time.sleep(0.05))

        def outer():
            time.sleep(0.02)
            inner()

        motion = tracer._wrap_transform("motion", outer)
        workers = [threading.Thread(target=motion) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        inner()
        self.assertEqual(tracer.counts["augment.motion"], 2)
        self.assertEqual(tracer.counts["augment.affine"], 1)
        self.assertGreaterEqual(tracer.totals["augment.motion"], 2 * 0.07)


class TestChecksRejectWrongOutputs(unittest.TestCase):
    def test_auc(self):
        scores, labels = [0.9, 0.4, 0.4, 0.1], [1, 1, 0, 0]
        self.assertEqual(checks.check_auc(0.875, scores, labels), 0.875)
        with self.assertRaises(CheckFailed):
            checks.check_auc(0.88, scores, labels)
        with self.assertRaises(CheckFailed):   # reversed ranking is below the floor
            checks.check_auc(0.125, [0.1, 0.4, 0.4, 0.9], labels, floor=0.9)

    def test_probabilities(self):
        logits = tensor.Tensor(np.array([[0.3, -1.2], [2.0, 0.5]], dtype=np.float32))
        probs = ops.softmax(logits).data
        labels = np.array([0, 1])
        losses = [ops.cross_entropy(tensor.Tensor(logits.data[i:i + 1]), labels[i:i + 1]).item()
                  for i in range(2)]
        checks.check_probabilities(probs, labels, losses)
        with self.assertRaises(CheckFailed):
            checks.check_probabilities(probs * 1.01, labels, losses)
        with self.assertRaises(CheckFailed):
            checks.check_probabilities(probs, labels[::-1], losses)

    def test_first_adam_step(self):
        model = build_model(TOY.paper_model, seed=0)
        params = model.parameters()
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(p.data.shape).astype(p.data.dtype) * 1e-3
                 for p in params]
        before = {p.name: p.data.copy() for p in params}
        state = train.AdamState.for_params(params)
        train.adam_step(params, grads, state, LEARNING_RATE)
        after = {p.name: p.data for p in params}
        named = {p.name: g for p, g in zip(params, grads)}
        checks.check_first_adam_step(before, after, named, LEARNING_RATE, state.eps)
        with self.assertRaises(CheckFailed):   # a step twice as long
            checks.check_first_adam_step(before, after, named, LEARNING_RATE / 2, state.eps)

    def test_cam_range(self):
        model = build_model(TOY.paper_model, seed=0)
        rng = np.random.default_rng(1)
        cams = [gradcam.grad_cam(model, Volume(rng.random((32, 32, 32), dtype=np.float32)), 1)
                for _ in range(4)]
        for cam in cams:
            checks.check_cam_range(cam.values, cam.degenerate)
        cam = next(c for c in cams if not c.degenerate)
        with self.assertRaises(CheckFailed):
            checks.check_cam_range(cam.values * 0.5, False)
        with self.assertRaises(CheckFailed):
            checks.check_cam_range(cam.values, True)

    def test_augmentation(self):
        rng = np.random.default_rng(2)
        vol = Volume(rng.random((24, 24, 24), dtype=np.float32))
        rot, shift = [4.0, -3.0, 7.0], [1.5, -0.5, 2.0]
        moved = augment.affine_resample(vol, rotation_deg=rot, translation_mm=shift).data
        checks.check_within_range(vol.data, moved, "affine")
        with self.assertRaises(CheckFailed):
            checks.check_within_range(vol.data, moved * 1.1, "affine")
        checks.check_affine_oracle(vol.data, moved, rot, shift)
        with self.assertRaises(CheckFailed):
            checks.check_affine_oracle(vol.data, moved, [-4.0, -3.0, 7.0], shift)
        with self.assertRaises(CheckFailed):
            checks.check_affine_oracle(vol.data, moved, rot, [-1.5, -0.5, 2.0])

        whole = augment.affine_resample(vol, translation_mm=(2.0, -1.0, 3.0)).data
        checks.check_shift(vol.data, whole, (2, -1, 3))
        with self.assertRaises(CheckFailed):
            checks.check_shift(vol.data, whole, (1, -1, 3))

        same = augment.elastic_deform(vol, np.zeros((7, 7, 7, 3))).data
        checks.check_unchanged(vol.data, same, "elastic")
        warped = augment.elastic_deform(vol, np.full((7, 7, 7, 3), 0.5)).data
        with self.assertRaises(CheckFailed):
            checks.check_unchanged(vol.data, warped, "elastic")


class TestWorkloadsRejectWrongOutputs(unittest.TestCase):
    """A deliberately wrong szdl output inside a toy run makes it incorrect."""

    def _assert_incorrect(self, workload: str, owner, attr: str, make_wrong) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrong(original))
        try:
            out = execute(workload, seed=0, seconds=0, trace=False, root=ROOT, workers=1,
                          scale=TOY, rounds=1)
        finally:
            setattr(owner, attr, original)
        self.assertFalse(out["result"]["correct"])
        self.assertEqual(out["result"]["failed"], 0)

    def test_desk_train(self):
        def wrong_auc(fn):
            return lambda scored, *a, **k: {**fn(scored, *a, **k),
                                             "auc": fn(scored, *a, **k)["auc"] + 0.01}

        def halved_scores(fn):
            return lambda scored, path: fn(replace(scored, scores=scored.scores / 2), path)

        def extra_voxel(fn):
            def wrong(cam, threshold):
                mask = fn(cam, threshold).copy()
                mask.flat[0] = not mask.flat[0]
                return mask
            return wrong

        self._assert_incorrect("desk-train", cli, "report_dict", wrong_auc)
        self._assert_incorrect("desk-train", cli, "write_scores_csv", halved_scores)
        self._assert_incorrect("desk-train", cli, "threshold_cam", extra_voxel)

    def test_paper_scale(self):
        def shifted_loss(fn):
            def wrong(*a, **k):
                loss = fn(*a, **k)
                loss.data = loss.data + 0.1
                return loss
            return wrong

        def doubled_rate(fn):
            return lambda params, grads, state, lr: fn(params, grads, state, 2 * lr)

        def dimmed_cam(fn):
            return lambda *a, **k: replace(fn(*a, **k), values=fn(*a, **k).values * 0.5)

        self._assert_incorrect("paper-scale", ops, "cross_entropy", shifted_loss)
        self._assert_incorrect("paper-scale", train, "adam_step", doubled_rate)
        def blank_cam(fn):
            return lambda *a, **k: replace(fn(*a, **k), values=np.zeros((32,) * 3, np.float32),
                                           degenerate=True)

        self._assert_incorrect("paper-scale", gradcam, "grad_cam", dimmed_cam)
        self._assert_incorrect("paper-scale", gradcam, "grad_cam", blank_cam)

    def test_augment_192(self):
        def raised(fn):
            return lambda volume, *a, **k: replace(fn(volume, *a, **k),
                                                   data=fn(volume, *a, **k).data + 1.0)

        def turned(fn):
            return lambda volume, rotation_deg=(0.0, 0.0, 0.0), **k: fn(
                volume, rotation_deg=[r + 1.0 for r in rotation_deg], **k)

        self._assert_incorrect("augment-192", augment, "blur", raised)
        self._assert_incorrect("augment-192", augment, "affine_resample", turned)
        self._assert_incorrect("augment-192", augment, "elastic_deform", raised)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main(verbosity=2)
