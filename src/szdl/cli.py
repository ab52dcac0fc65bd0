"""Command-line entry point orchestrating the whole pipeline.

Subcommands: synth, split, train, eval, cam, compare, augment-preview,
gradcheck.  All randomness flows from --seed; outputs are JSON/CSV/NIfTI
files under --out.  Exit codes: 0 success, 1 configuration error, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import ops
from .augment import AugmentSpec, apply_plan, plan_pipeline
from .errors import DataError, NumericalError
from .evalstats import ScoredSet, delong_test, report_dict
from .gradcam import average_cam, export_cam, grad_cam, threshold_cam, write_mid_slices
from .manifest import SITES, SPLITS, assign_splits, hold_out_site, load_manifest, save_manifest
from .model import ModelConfig, build_model
from .nifti import load_volume, save_volume
from .phantom import PhantomSpec, synthesize_dataset
from .tensor import Tape, Tensor, backward
from .train import (
    TrainConfig,
    fit,
    load_checkpoint,
    load_scan,
    run_generalization,
    save_checkpoint,
    score_records,
)

RUN_CONFIG_SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as configuration errors (exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def load_run_config(path) -> TrainConfig:
    """Parse and strictly validate the run-config JSON document."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("run config must be a JSON object")
    unknown = set(raw) - {"schema_version", "train"}
    if unknown:
        raise ValueError(f"unknown run-config keys: {sorted(unknown)}")
    version = raw.get("schema_version")
    if version != RUN_CONFIG_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, "
                         f"expected {RUN_CONFIG_SCHEMA_VERSION}")
    try:
        return TrainConfig.from_dict(raw.get("train", {}))
    except TypeError as exc:
        raise ValueError(str(exc)) from exc


def save_run_config(config: TrainConfig, path) -> None:
    payload = {"schema_version": RUN_CONFIG_SCHEMA_VERSION, "train": config.to_dict()}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_scores_csv(scored: ScoredSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "score", "label"])
        for sid, score, label in zip(scored.subject_ids, scored.scores, scored.labels):
            writer.writerow([sid, repr(float(score)), int(label)])


def read_scores_csv(path) -> ScoredSet:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:3] != ["subject_id", "score", "label"]:
        raise DataError(f"{path}: expected header subject_id,score,label")
    ids, scores, labels = [], [], []
    for row in rows[1:]:
        try:
            scores.append(float(row[1]))
            labels.append(int(row[2]))
        except (IndexError, ValueError):
            raise DataError(f"{path}: malformed row {row!r}") from None
        ids.append(row[0])
    if len(set(ids)) < len(ids):
        repeated = next(sid for i, sid in enumerate(ids) if sid in ids[:i])
        raise DataError(f"{path}: subject {repeated!r} appears twice")
    return ScoredSet(np.array(scores), np.array(labels), subject_ids=tuple(ids))


def write_roc_csv(report: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for point in report["curve"]:
            writer.writerow([point["threshold"], point["fpr"], point["tpr"]])


def _id_order(scored: ScoredSet) -> tuple[np.ndarray, np.ndarray]:
    """A score file's unique subject ids, sorted, and the rows in that order."""
    return np.unique(np.array(scored.subject_ids, dtype=str), return_index=True)


def _align_score_files(a: ScoredSet, b: ScoredSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match two score files on unique subject ids, in id order; labels must agree."""
    (ids_a, ia), (ids_b, ib) = _id_order(a), _id_order(b)
    if not np.array_equal(ids_a, ids_b):
        raise DataError("score files cover different subject sets")
    mismatch = np.flatnonzero(a.labels[ia] != b.labels[ib])
    if mismatch.size:
        raise DataError(f"label mismatch for subject {str(ids_a[mismatch[0]])!r}")
    return a.scores[ia], b.scores[ib], a.labels[ia]


def _delong_block(a: ScoredSet, b: ScoredSet) -> dict:
    sa, sb, labels = _align_score_files(a, b)
    return {**asdict(delong_test(sa, sb, labels)), "n": int(len(labels))}


def _out_dir(value: str) -> Path:
    """Argparse type of every output directory: created here, else a usage error."""
    try:
        Path(value).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot create output directory {value!r}: {exc.strerror}") from None
    return Path(value)


def _data_root(args) -> Path:
    """Where relative scan paths resolve: --data-root, else the manifest's directory."""
    return Path(args.data_root) if args.data_root else Path(args.manifest).parent


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = PhantomSpec(size=args.size, effect_size=args.effect_size,
                       noise_std=args.noise_std, seed=args.seed)
    records = synthesize_dataset(args.out, args.count, spec, site=args.site,
                                 subject_prefix=args.prefix)
    print(f"wrote {len(records)} scans and manifest.json to {args.out}")
    return 0


def cmd_split(args) -> int:
    records = load_manifest(args.manifest)
    if args.hold_out_site:
        records = hold_out_site(records, args.hold_out_site, seed=args.seed)
    else:
        ratios = tuple(int(x) for x in args.ratios.split(","))
        if len(ratios) != 3:
            raise ValueError(f"--ratios needs three comma-separated tenths, got {args.ratios}")
        records = assign_splits(records, ratios=ratios, seed=args.seed)
    out = args.out or args.manifest
    save_manifest(records, out)
    counts = {s: sum(r.split == s for r in records) for s in ("train", "val", "test")}
    print(f"split {len(records)} scans: {counts}")
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    records = load_manifest(args.manifest)
    if args.hold_out_site:
        result = run_generalization(config, records, args.hold_out_site,
                                    data_root=_data_root(args))
        model, adam, history = result["model"], result["adam"], result["history"]
        (args.out / "generalization_report.json").write_text(
            json.dumps(result["report"], indent=2) + "\n")
        write_scores_csv(result["scored"], args.out / "test_scores.csv")
        save_manifest(result["records"], args.out / "manifest_holdout.json")
    else:
        model, adam, history = fit(config, records, data_root=_data_root(args))

    save_checkpoint(model, adam, history, args.out / "model.ckpt")
    (args.out / "history.csv").write_text(history.to_csv())
    save_run_config(config, args.out / "run_config.json")
    best = history.records[history.best_epoch - 1]
    print(f"trained {len(history.records)} epochs ({history.stop_reason}); "
          f"best epoch {history.best_epoch}: val_loss {best.val_loss:.4f}, "
          f"val_auc {best.val_auc:.4f}")
    return 0


def cmd_eval(args) -> int:
    if args.scores:
        scored = read_scores_csv(args.scores)
    elif args.checkpoint and args.manifest:
        model, _, _ = load_checkpoint(Path(args.checkpoint))
        records = [r for r in load_manifest(args.manifest) if r.split == args.split]
        if {r.label for r in records} != {0, 1}:
            raise DataError(f"split {args.split!r} needs scans of both classes")
        scored = score_records(model, records, data_root=_data_root(args))
    else:
        raise ValueError("eval needs either --scores or --checkpoint with --manifest")

    report = report_dict(scored)
    if not args.scores:
        write_scores_csv(scored, args.out / "scores.csv")
    (args.out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    write_roc_csv(report, args.out / "roc.csv")
    print(f"auc {report['auc']:.4f} over {report['n']} cases -> {args.out / 'report.json'}")
    return 0


def cmd_compare(args) -> int:
    block = _delong_block(read_scores_csv(args.scores_a), read_scores_csv(args.scores_b))
    (args.out / "delong.json").write_text(json.dumps(block, indent=2) + "\n")
    if block["degenerate"]:
        print("degenerate comparison: zero variance with unequal AUCs")
        return 3
    print(f"auc_a {block['auc_a']:.4f} vs auc_b {block['auc_b']:.4f}: "
          f"p = {block['p_value']:.4g}")
    return 0


def cmd_cam(args) -> int:
    if not 0 <= args.threshold <= 1:
        raise ValueError(f"--threshold must be in [0, 1], got {args.threshold}")
    model, _, _ = load_checkpoint(Path(args.checkpoint))
    if args.volume:
        volumes = [load_volume(Path(args.volume))]
    else:
        if not args.manifest:
            raise ValueError("cam needs --volume or --manifest")
        records = [r for r in load_manifest(args.manifest)
                   if r.split == args.split and r.label == args.target_class]
        if not records:
            raise DataError(f"no class-{args.target_class} records in split {args.split!r}")
        root = _data_root(args)
        volumes = (load_scan(r, root) for r in records)  # one scan in memory at a time

    degenerate = []  # one flag per map: the maps themselves are summed as they come

    def cams():
        for vol in volumes:
            cam = grad_cam(model, vol, args.target_class)
            degenerate.append(cam.degenerate)
            yield cam

    averaged = average_cam(cams())
    export_cam(averaged, args.out / "cam.nii")
    write_mid_slices(averaged.values, args.out, "cam")
    mask = threshold_cam(averaged, args.threshold)
    summary = {
        "n_subjects": len(degenerate),
        "target_class": args.target_class,
        "threshold": args.threshold,
        "suprathreshold_voxels": int(mask.sum()),
        "degenerate_maps": sum(degenerate),
        "source_layer": averaged.source_layer,
    }
    (args.out / "cam_report.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"averaged CAM over {len(degenerate)} scans -> {args.out / 'cam.nii'} "
          f"({summary['suprathreshold_voxels']} voxels >= {args.threshold})")
    return 0


def cmd_augment_preview(args) -> int:
    volume = load_volume(Path(args.volume))
    save_volume(volume, args.out / "original.nii")
    write_mid_slices(volume.data, args.out, "original")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    forced = AugmentSpec(p_blur=1.0, p_noise=1.0, p_spatial=1.0, p_bias=1.0, p_motion=1.0)
    # keep drawing plans until both spatial branches have been previewed
    seen: dict[str, object] = {}
    for _ in range(64):
        for name, kwargs in plan_pipeline(forced, rng):
            seen.setdefault(name, kwargs)
        if "affine" in seen and "elastic" in seen:
            break
    for name, kwargs in seen.items():
        transformed = apply_plan(volume, [(name, kwargs)])
        save_volume(transformed, args.out / f"{name}.nii")
        write_mid_slices(transformed.data, args.out, name)
    print(f"wrote original + {len(seen)} transformed volumes to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    config = ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                         classifier_dims=(8, 4), dropout_p=0.0)
    model = build_model(config, seed=args.seed, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 99]))
    x = Tensor(rng.random((2, 1, 16, 16, 16)))
    labels = np.array([0, 1])

    def loss_value() -> float:
        # train-mode batch norm reads batch statistics, never the running ones it updates
        return ops.cross_entropy(model.apply(x, mode="train").logits, labels).item()

    tape = Tape()
    result = model.apply(x, mode="train", tape=tape)
    loss = ops.cross_entropy(result.logits, labels, tape=tape)
    backward(tape, loss)  # into the zero gradients every new Parameter starts with

    step = 1e-5
    worst = {"name": None, "rel_error": 0.0}
    checked = 0
    for p in model.parameters():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_value()
            flat[i] = orig - step
            down = loss_value()
            flat[i] = orig
            numeric = (up - down) / (2 * step)
            analytic = gflat[i]
            denom = max(abs(numeric), abs(analytic), 1e-12)
            rel = abs(numeric - analytic) / denom if abs(numeric - analytic) > 1e-9 else 0.0
            checked += 1
            if rel > worst["rel_error"]:
                worst = {"name": p.name, "rel_error": float(rel)}
    passed = worst["rel_error"] < 1e-4
    report = {"coordinates_checked": checked, "worst": worst, "tolerance": 1e-4,
              "passed": passed}
    (args.out / "gradcheck.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"gradient check over {checked} coordinates: worst rel error "
          f"{worst['rel_error']:.3g} ({'pass' if passed else 'FAIL'})")
    if not passed:
        raise NumericalError("finite-difference gradient check failed")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="szdl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a phantom dataset with manifest")
    p.add_argument("--out", required=True, type=_out_dir)
    p.add_argument("--count", type=int, default=10, help="volumes per class")
    p.add_argument("--size", type=int, default=48)
    p.add_argument("--effect-size", type=float, default=0.5)
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--site", default="SYNTH", choices=SITES)
    p.add_argument("--prefix", default="synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="assign subject-level train/val/test splits")
    p.add_argument("manifest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratios", default="8,1,1")
    p.add_argument("--hold-out-site", default=None, choices=SITES)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train from a run config and manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, type=_out_dir)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--data-root", default=None)
    p.add_argument("--hold-out-site", default=None, choices=SITES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="ROC/AUC report from scores or a checkpoint")
    p.add_argument("--scores", default=None, help="score CSV (subject_id,score,label)")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--data-root", default=None)
    p.add_argument("--out", required=True, type=_out_dir)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="DeLong test between two score files")
    p.add_argument("--scores-a", required=True)
    p.add_argument("--scores-b", required=True)
    p.add_argument("--out", required=True, type=_out_dir)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cam", help="averaged Grad-CAM volume and mid-slices")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--volume", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--target-class", type=int, default=1, choices=(0, 1))
    p.add_argument("--threshold", type=float, default=0.85)
    p.add_argument("--data-root", default=None)
    p.add_argument("--out", required=True, type=_out_dir)
    p.set_defaults(func=cmd_cam)

    p = sub.add_parser("augment-preview", help="write before/after volumes per transform")
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True, type=_out_dir)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_augment_preview)

    p = sub.add_parser("gradcheck", help="finite-difference check of the toy model")
    p.add_argument("--out", required=True, type=_out_dir)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


# glibc mallopt parameters (malloc.h) and the values main sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2 ** 20   # glibc's ceiling for its own adaptive threshold
_TRIM_THRESHOLD = 256 * 2 ** 20  # more than a desk-config training step frees at once


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process instead of handing it back to the kernel.

    ``backward`` frees each activation once replayed, and ``Model.apply``
    hands dead ones on as output buffers.  Under glibc's adaptive
    thresholds most training steps then trim the heap top, and the next
    forward pass faults the same pages in again, at a cost that depends on
    the host's free memory.  Fixed thresholds stop that: arrays under 32 MiB
    reuse the heap, larger ones are still mapped and unmapped one by one.
    A no-op where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_heap()
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
