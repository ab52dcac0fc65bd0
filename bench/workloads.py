"""The three benchmark workloads and the closed loop that runs them.

Each workload sets up its inputs from the seed (several times, to time
set-up), then runs whole rounds back to back until the run's seconds are
used, at least one round.  Every call into szdl is one operation: it is
timed, and an exception (or a non-zero exit code of a subcommand) counts
it as failed.  Checks from :mod:`checks` run between operations, outside
the timed calls.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from szdl import augment, cli, gradcam, nifti, ops, phantom, tensor, train
from szdl.augment import AugmentSpec
from szdl.manifest import ScanRecord
from szdl.model import ModelConfig, build_model

import checks
from spans import TRANSFORMS, Tracer

SETUP_REPEATS = 3
DESK_EPOCHS = 1        # desk-train's szdl train epochs per round
SCAN_REPEATS = 3       # desk-train runs eval and cam this many times per round
RECIPE_SEED = 0        # desk-train's TrainConfig.seed, the same in every run
LEARNING_RATE = 1e-4   # the acceptance recipe's rate
STREAM_AUGMENT = 11    # SeedSequence tags for the benchmark's own streams
STREAM_FORCED = 12
STREAM_DROPOUT = 13


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is what the benchmark measures, TOY is for the self-test."""

    desk_extent: int = 48
    desk_per_class: int = 20
    paper_raw: int = 192
    paper_model: ModelConfig = field(default_factory=ModelConfig)
    paper_cam_layer: str = "block5.relu2"  # the deepest block ReLU with a map >= 6^3
    augment_raw: int = 192


FULL = Scale()
# 32 is the smallest extent whose last block (2^3) keeps train-mode BN defined at batch 1
TOY = Scale(desk_extent=32, desk_per_class=10, paper_raw=64,
            paper_model=ModelConfig(input_extent=32, width_scale=1 / 8, se_ratio=4,
                                    classifier_dims=(8, 4)),
            paper_cam_layer="block3.relu2", augment_raw=32)


class OperationFailed(Exception):
    """An operation raised; the rest of its round is skipped."""


class Run:
    """Operation counts, timings and check results of one run."""

    def __init__(self, workers: int):
        self.workers = workers             # szdl train --workers
        self.tracer: Tracer | None = None  # set while a traced run measures
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.info: dict[str, object] = {}

    def call(self, name: str, fn, *args, **kwargs):
        """Run one szdl operation; returns (result, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                result = fn(*args, **kwargs)
        except (Exception, SystemExit) as exc:  # any error of szdl, argparse exits included
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise OperationFailed(name) from exc
        return result, time.perf_counter() - start

    def cli(self, name: str, argv: list) -> float:
        """Run a ``szdl`` subcommand in-process; a non-zero exit fails it."""
        code, seconds = self.call(name, cli.main, [str(a) for a in argv])
        if code != 0:
            self.failed += 1
            self.errors.append(f"{name}: exit code {code}")
            raise OperationFailed(name)
        return seconds

    def check(self, fn, *args, **kwargs):
        """Run a check with tracing paused; a failure marks the run incorrect."""
        with self.untraced():
            try:
                return fn(*args, **kwargs)
            except checks.CheckFailed as exc:
                self.correct = False
                self.errors.append(f"check {fn.__name__}: {exc}")
                return None

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None or not self.tracer.installed:
            yield
            return
        self.tracer.remove()
        try:
            yield
        finally:
            self.tracer.install()


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# desk-train


class DeskTrain:
    """``szdl train`` / ``eval`` / ``cam`` at the acceptance config on 48^3 phantoms."""

    name = "desk-train"
    # the first szdl train of a process runs slower than the next ones
    warmup_rounds = 1

    def __init__(self, scale: Scale):
        self.scale = scale

    def setup(self, run: Run, directory: Path, seed: int) -> dict:
        data = directory / "data"
        run.cli("synth", ["synth", "--out", data, "--count", self.scale.desk_per_class,
                          "--size", self.scale.desk_extent, "--seed", seed])
        manifest = data / "manifest.json"
        run.cli("split", ["split", manifest, "--seed", seed, "--ratios", "8,1,1"])
        config = train.TrainConfig(
            model=ModelConfig(input_extent=self.scale.desk_extent, width_scale=1 / 8,
                              se_ratio=4),
            learning_rate=LEARNING_RATE, batch_size=5, max_epochs=DESK_EPOCHS,
            patience=DESK_EPOCHS, seed=RECIPE_SEED, augment=True, workers=run.workers)
        cli.save_run_config(config, directory / "config.json")
        return {"dir": directory, "manifest": manifest, "config": directory / "config.json"}

    def prepare(self, run: Run, state: dict, seed: int) -> None:
        """Ground-truth scores: dark voxels in the central box, where the class
        differs by construction (label-1 cavities are 1.5x larger per axis)."""
        records = json.loads(state["manifest"].read_text())
        state["test"] = [r for r in records if r["split"] == "test"]
        state["n_train"] = sum(r["split"] == "train" for r in records)
        rows = []
        for rec in records:
            data = nifti.load_volume(state["manifest"].parent / rec["scan_path"]).data
            n = data.shape[0]
            core = data[n // 4: n - n // 4, n // 4: n - n // 4, n // 4: n - n // 4]
            rows.append((rec["subject_id"], float((core < 0.2).sum()), rec["label"]))
        state["truth"] = state["dir"] / "truth_scores.csv"
        with open(state["truth"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "score", "label"])
            writer.writerows(rows)

    def round(self, run: Run, state: dict, index: int) -> None:
        out = state["dir"] / f"round{index}"
        ckpt = out / "train" / "model.ckpt"
        manifest = state["manifest"]
        t_train = run.cli("train", ["train", "--config", state["config"], "--manifest",
                                    manifest, "--out", out / "train"])
        samples = DESK_EPOCHS * state["n_train"]
        run.times["sample_ms"].append(1e3 * t_train / samples)
        run.times["train_samples_per_s"].append(samples / t_train)

        with run.untraced():  # a check on ground-truth scores, not part of the workload
            run.cli("eval-truth", ["eval", "--scores", state["truth"], "--out", out / "truth"])
        truth = cli.read_scores_csv(state["truth"])
        truth_report = json.loads((out / "truth" / "report.json").read_text())
        run.info["truth_auc"] = run.check(checks.check_auc, truth_report["auc"],
                                          truth.scores, truth.labels, floor=0.9)

        # eval and cam take well under a second each: repeat them for a steadier median
        n_test = len(state["test"])
        n_cam = sum(r["label"] == 1 for r in state["test"])
        for repeat in range(SCAN_REPEATS):
            sub = out / f"scan{repeat}"
            t_eval = run.cli("eval", ["eval", "--checkpoint", ckpt, "--manifest", manifest,
                                      "--split", "test", "--out", sub / "eval"])
            t_cam = run.cli("cam", ["cam", "--checkpoint", ckpt, "--manifest", manifest,
                                    "--split", "test", "--target-class", "1",
                                    "--out", sub / "cam"])
            run.times["scan_ms"].append(1e3 * (t_eval / n_test + t_cam / n_cam))
            run.times["eval_scans_per_s"].append(n_test / t_eval)
            run.times["cam_ms_per_scan"].append(1e3 * t_cam / n_cam)
            self._check(run, state, sub, ckpt)
        shutil.rmtree(out, ignore_errors=True)

    def _check(self, run: Run, state: dict, out: Path, ckpt: Path) -> None:
        scored = cli.read_scores_csv(out / "eval" / "scores.csv")
        report = json.loads((out / "eval" / "report.json").read_text())
        run.info["test_auc"] = run.check(checks.check_auc, report["auc"], scored.scores,
                                         scored.labels)

        # probabilities and losses of the trained model on the test scans
        with run.untraced():
            model, _, _ = train.load_checkpoint(ckpt)
            root = state["manifest"].parent
            x = tensor.Tensor(np.stack([nifti.load_volume(root / r["scan_path"]).data
                                        for r in state["test"]])[:, None])
            labels = np.array([r["label"] for r in state["test"]])
            result = model.apply(x, mode="eval")
            losses = [ops.cross_entropy(tensor.Tensor(result.logits.data[i:i + 1]),
                                        labels[i:i + 1]).item() for i in range(len(labels))]
        run.check(checks.check_probabilities, result.probs.data, labels, losses)
        run.check(checks.require,
                  bool(np.allclose(result.probs.data[:, 1], scored.scores, rtol=0, atol=1e-6)),
                  "scores.csv differs from the model's class-1 probabilities")

        cam = nifti.load_volume(out / "cam" / "cam.nii").data
        cam_report = json.loads((out / "cam" / "cam_report.json").read_text())
        run.check(checks.check_cam_range, cam,
                  cam_report["degenerate_maps"] == cam_report["n_subjects"])
        hot = int((cam >= cam_report["threshold"]).sum())
        run.check(checks.require, hot == cam_report["suprathreshold_voxels"],
                  f"cam_report counts {cam_report['suprathreshold_voxels']} voxels "
                  f">= threshold, cam.nii holds {hot}")
        extent = self.scale.desk_extent
        roi = phantom.cavity_roi(phantom.PhantomSpec(size=extent), label=1,
                                 margin_voxels=6.0 * extent / 48)
        run.info["cam_roi_fraction"] = checks.roi_fraction(cam, roi, cam_report["threshold"])

    def finish(self, run: Run, state: dict) -> dict:
        return {"sample_ms": median(run.times["sample_ms"]),
                "scan_ms": median(run.times["scan_ms"])}


# ---------------------------------------------------------------------------
# paper-scale


class PaperScale:
    """One training step, scoring and Grad-CAM at 192^3 -> 96^3, full width."""

    name = "paper-scale"
    warmup_rounds = 0

    def __init__(self, scale: Scale):
        self.scale = scale

    def setup(self, run: Run, directory: Path, seed: int) -> dict:
        directory.mkdir(parents=True, exist_ok=True)
        spec = phantom.PhantomSpec(size=self.scale.paper_raw, seed=seed)
        volume, _ = run.call("phantom", phantom.generate_phantom,
                             phantom.subject_spec(spec, 0, 0), 0)
        run.call("save", nifti.save_volume, volume, directory / "paper-00000.nii")
        model, _ = run.call("build", build_model, self.scale.paper_model, seed)
        record = ScanRecord("paper-00000", "paper-00000.nii", 0, "SYNTH", "test")
        return {"dir": directory, "model": model, "record": record}

    def prepare(self, run: Run, state: dict, seed: int) -> None:
        state["seed"] = seed

    def round(self, run: Run, state: dict, index: int) -> None:
        model = state["model"]
        record = state["record"]
        span = run.tracer.span("train.data_wait") if run.tracer else contextlib.nullcontext()
        with span:
            volume, t_load = run.call("load", nifti.load_volume,
                                      state["dir"] / record.scan_path)
            x = tensor.Tensor(volume.data[None, None].astype(model.dtype))
        labels = np.array([record.label])
        drop_rng = np.random.default_rng(
            np.random.SeedSequence([state["seed"], STREAM_DROPOUT, index]))

        def forward_backward():
            tape = tensor.Tape()
            result = model.apply(x, mode="train", tape=tape, rng=drop_rng)
            loss = ops.cross_entropy(result.logits, labels, tape=tape)
            model.zero_grad()
            tensor.backward(tape, loss)
            return result.probs.data.copy(), loss.item()

        (probs, loss), t_fb = run.call("forward-backward", forward_backward)
        run.check(checks.check_probabilities, probs, labels, [loss])
        params = model.parameters()
        before = {p.name: p.data.copy() for p in params}
        adam = train.AdamState.for_params(params)  # fresh: every round is a first step
        _, t_adam = run.call("adam", train.adam_step, params, [p.grad for p in params],
                             adam, LEARNING_RATE)
        run.check(checks.check_first_adam_step, before, {p.name: p.data for p in params},
                  {p.name: p.grad for p in params}, LEARNING_RATE, adam.eps)
        del before
        t_step = t_fb + t_adam

        scored, t_score = run.call("score", train.score_records, model, [record],
                                   data_root=state["dir"])
        run.check(checks.require, bool(0.0 <= scored.scores[0] <= 1.0),
                  f"score {scored.scores[0]} outside [0, 1]")
        # the class the step trained toward: its map is not all zero after the step,
        # so the resize and normalization are timed and checked too
        cam, t_cam = run.call("grad_cam", gradcam.grad_cam, model, volume, record.label)
        run.check(checks.check_cam_range, cam.values, cam.degenerate)
        run.check(checks.require, not cam.degenerate, "the Grad-CAM map is degenerate")
        run.check(checks.require, cam.source_layer == self.scale.paper_cam_layer,
                  f"Grad-CAM read {cam.source_layer}, not {self.scale.paper_cam_layer}")

        run.times["sample_ms"].append(1e3 * t_step)
        run.times["scan_ms"].append(1e3 * (t_score + t_cam))
        run.times["train_samples_per_s"].append(1.0 / t_step)
        run.times["eval_scans_per_s"].append(1.0 / t_score)
        run.times["cam_ms_per_scan"].append(1e3 * t_cam)
        run.times["load_ms"].append(1e3 * t_load)

    def finish(self, run: Run, state: dict) -> dict:
        return {"sample_ms": median(run.times["sample_ms"]),
                "scan_ms": median(run.times["scan_ms"])}


# ---------------------------------------------------------------------------
# augment-192


class Augment192:
    """The published augmentation pipeline on a 192^3 phantom; no model runs."""

    name = "augment-192"
    warmup_rounds = 0

    def __init__(self, scale: Scale):
        self.scale = scale
        self.spec = AugmentSpec()

    def setup(self, run: Run, directory: Path, seed: int) -> dict:
        directory.mkdir(parents=True, exist_ok=True)
        spec = phantom.PhantomSpec(size=self.scale.augment_raw, seed=seed)
        volume, _ = run.call("phantom", phantom.generate_phantom,
                             phantom.subject_spec(spec, 0, 0), 0)
        path = directory / "augment-00000.nii"
        run.call("save", nifti.save_volume, volume, path)
        return {"dir": directory, "path": path}

    def prepare(self, run: Run, state: dict, seed: int) -> None:
        state["seed"] = seed
        state["volume"], _ = run.call("load", nifti.load_volume, state["path"])

    def _apply(self, run: Run, volume, step) -> object:
        """Apply one plan step, time it per moved copy (motion) and check it."""
        name, kwargs = step
        out, seconds = run.call(f"augment.{name}", augment.apply_plan, volume, [step])
        copies = len(kwargs["transforms"]) if name == "motion" else 1
        run.times[f"augment.{name}"].append(1e3 * seconds / copies)
        run.times[f"augment.{name}.copies"].append(copies)
        before, after = volume.data, out.data
        run.check(checks.require, after.shape == before.shape and after.dtype == before.dtype
                  and bool(np.isfinite(after).all()), f"{name}: bad shape, dtype or values")
        if name in ("blur", "affine", "elastic"):
            run.check(checks.check_within_range, before, after, name)
        if name == "affine":
            run.check(checks.check_affine_oracle, before, after, kwargs["rotation_deg"],
                      kwargs["translation_mm"], volume.voxel_size)
        return out

    def round(self, run: Run, state: dict, index: int) -> None:
        rng = np.random.default_rng(
            np.random.SeedSequence([state["seed"], STREAM_AUGMENT, index]))
        plan, _ = run.call("plan", augment.plan_pipeline, self.spec, rng)
        volume = state["volume"]
        start = time.perf_counter()
        for step in plan:
            volume = self._apply(run, volume, step)
        run.times["pipeline_ms"].append(1e3 * (time.perf_counter() - start))

    def finish(self, run: Run, state: dict) -> dict:
        # Each transform the stream did not draw is forced once, so all six are
        # timed.  Motion is forced with the most copies the spec allows unless the
        # stream drew such a motion: that step sets the run's peak memory, which
        # would otherwise depend on the seed.
        forced = replace(self.spec, p_blur=1.0, p_noise=1.0, p_spatial=1.0, p_bias=1.0,
                         p_motion=1.0)
        most = self.spec.motion_max_transforms
        rng = np.random.default_rng(np.random.SeedSequence([state["seed"], STREAM_FORCED]))
        missing = [t for t in TRANSFORMS.values()
                   if max(run.times[f"augment.{t}.copies"], default=0) < (most if t == "motion"
                                                                          else 1)]
        while missing:
            for name, kwargs in augment.plan_pipeline(forced, rng):
                if name in missing and (name != "motion" or len(kwargs["transforms"]) == most):
                    missing.remove(name)
                    self._apply(run, state["volume"], (name, kwargs))

        # property checks on extra calls, kept out of the per-layer spans
        volume = state["volume"]
        n = volume.data.shape[0]
        crop = nifti.Volume(volume.data[n // 2 - 16: n // 2 + 16, n // 2 - 16: n // 2 + 16,
                                        n // 2 - 16: n // 2 + 16].copy())
        shift = (2, -1, 3)
        with run.untraced():
            moved, _ = run.call("translate", augment.affine_resample, crop,
                                translation_mm=tuple(float(s) for s in shift))
            still, _ = run.call("elastic-zero", augment.elastic_deform, volume,
                                np.zeros((self.spec.elastic_grid,) * 3 + (3,)))
        run.check(checks.check_shift, crop.data, moved.data, shift)
        run.check(checks.check_unchanged, volume.data, still.data, "zero elastic field")

        medians = {t: median(run.times[f"augment.{t}"]) for t in TRANSFORMS.values()}
        s = self.spec
        weights = {"blur": s.p_blur, "noise": s.p_noise, "affine": s.p_spatial / 2,
                   "elastic": s.p_spatial / 2, "bias": s.p_bias,
                   "motion": s.p_motion * (1 + s.motion_max_transforms) / 2}
        run.info["transform_ms"] = medians
        run.info["pipeline_ms_observed"] = run.times["pipeline_ms"]
        sample_ms = sum(weights[t] * medians[t] for t in medians)
        run.times["augment_ms_per_sample"].append(sample_ms)
        return {"sample_ms": sample_ms, "scan_ms": sum(medians.values())}


WORKLOADS = {w.name: w for w in (DeskTrain, PaperScale, Augment192)}


# ---------------------------------------------------------------------------
# the closed loop


def execute(name: str, seed: int, seconds: float, trace: bool, root: Path, workers: int,
            scale: Scale = FULL, rounds: int | None = None) -> dict:
    """One run: set up SETUP_REPEATS times, then whole rounds for ``seconds``
    (or exactly ``rounds``).  Returns the result and details; the metrics
    are those BENCHMARK.json in ``root`` declares, with its units."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    workload = WORKLOADS[name](scale)
    work = root / ".bench_out" / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workers)
    setup_s: list[float] = []
    try:
        state = None
        for k in range(SETUP_REPEATS):
            if state is not None:
                shutil.rmtree(state["dir"], ignore_errors=True)
            start = time.perf_counter()
            state = workload.setup(run, work / f"setup{k}", seed)
            setup_s.append(time.perf_counter() - start)
        workload.prepare(run, state, seed)
        for warm in range(workload.warmup_rounds):  # checked, not timed
            try:
                workload.round(run, state, -1 - warm)
            except OperationFailed:
                pass
        run.times.clear()

        run.tracer = Tracer().install() if trace else None
        start = time.perf_counter()
        done = 0
        while (done < rounds) if rounds else (done == 0 or time.perf_counter() - start < seconds):
            try:
                workload.round(run, state, done)
            except OperationFailed:
                pass
            done += 1
        headline = workload.finish(run, state)
        wall = time.perf_counter() - start
    finally:
        if run.tracer is not None:
            run.tracer.remove()
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        values, kind = run.tracer.metrics(), "per_layer"
    else:
        values = {"setup_s": median(setup_s),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  **headline}
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared[kind]}
    detail = {
        "workload": name, "seed": seed, "trace": trace, "rounds": done, "wall_s": wall,
        "setup_s": setup_s, "errors": run.errors,
        "phases": {k: median(v) for k, v in run.times.items()
                   if k in ("train_samples_per_s", "eval_scans_per_s", "cam_ms_per_scan",
                            "augment_ms_per_sample")},
        "info": run.info,
        "per_round": {k: run.times[k] for k in ("sample_ms", "scan_ms") if k in run.times},
    }
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return {"result": result, "detail": detail}
