"""Run the byte-identity recipe of szdl into a directory and hash every output.

The recipe is 18 CLI commands that together touch every subcommand whose
output a kernel or pipeline change could move:

- ``synth`` 20 phantoms per class at 48^3 and ``split`` them;
- a 2-epoch 48^3 ``train`` (width 1/8, batch 5, augmentation on, its
  config's ``workers`` 2), its ``eval`` and class-1 ``cam`` on the test
  split;
- ``compare`` against a dark-voxel-fraction score file;
- a two-site 32^3 hold-out: two ``synth`` runs and a ``train
  --hold-out-site NMorphCH`` with a 16^3 model input, so ``downsample2x``
  runs forward and backward;
- a 16^3 run that stops early: ``synth``, ``split``, ``train``, ``eval``
  and a class-0 ``cam``;
- ``gradcheck``;
- a class-0 ``cam --split train`` on the 48^3 model, whose averaged map is
  not degenerate (the 48^3 test-split maps are all zero);
- ``eval --split train`` on the 48^3 model, which scores all 32 train scans
  in one call;
- a class-1 ``cam`` on the hold-out model's test split, whose 16^3 map lies
  over 32^3 scans at twice their voxel size.

Each command runs in its own process with ``OPENBLAS_NUM_THREADS=2`` and
relative paths, from the ``src`` directory next to this script.  Its exit
code and output go to ``log.txt``.  Afterwards one ``sha256  path`` line
per file is printed, sorted by path.  Run it on two trees and ``diff`` the
listings:

    python3 tools/identity_recipe.py /tmp/recipe-a > a.txt   # in tree A
    python3 tools/identity_recipe.py /tmp/recipe-b > b.txt   # in tree B
    diff a.txt b.txt

The output directory must not exist.  The whole recipe takes a few
minutes on a 2-core desk machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MODEL_48 = {"input_extent": 48, "width_scale": 0.125, "se_ratio": 4}
MODEL_16 = {"input_extent": 16, "width_scale": 0.125, "se_ratio": 4, "classifier_dims": [8, 4]}
CONFIGS = {
    "train48.json": {"model": MODEL_48, "learning_rate": 1e-3, "batch_size": 5,
                     "max_epochs": 2, "seed": 5, "augment": True, "workers": 2},
    "holdout.json": {"model": MODEL_16, "learning_rate": 1e-3, "batch_size": 5,
                     "max_epochs": 2, "seed": 5, "augment": False},
    "train16.json": {"model": MODEL_16, "learning_rate": 0.03, "batch_size": 5,
                     "max_epochs": 8, "patience": 3, "seed": 3, "augment": False},
}

M48, M16, SITES = "data48/manifest.json", "data16/manifest.json", "sites/manifest.json"
CKPT48, CKPT16 = "run48/model.ckpt", "run16/model.ckpt"
COMMANDS = [
    ["synth", "--out", "data48", "--count", "20", "--size", "48", "--seed", "5"],
    ["split", M48, "--seed", "5"],
    ["train", "--config", "train48.json", "--manifest", M48, "--out", "run48"],
    ["eval", "--checkpoint", CKPT48, "--manifest", M48, "--out", "eval48"],
    ["cam", "--checkpoint", CKPT48, "--manifest", M48, "--target-class", "1", "--out", "cam48"],
    ["compare", "--scores-a", "eval48/scores.csv", "--scores-b", "dark.csv", "--out", "compare48"],
    ["synth", "--out", "sites/nmorph", "--count", "10", "--size", "32", "--seed", "11",
     "--site", "NMorphCH", "--prefix", "n"],
    ["synth", "--out", "sites/cobre", "--count", "10", "--size", "32", "--seed", "22",
     "--site", "COBRE", "--prefix", "c"],
    ["train", "--config", "holdout.json", "--manifest", SITES, "--hold-out-site", "NMorphCH",
     "--out", "holdout"],
    ["synth", "--out", "data16", "--count", "15", "--size", "16", "--seed", "3"],
    ["split", M16, "--seed", "3"],
    ["train", "--config", "train16.json", "--manifest", M16, "--out", "run16"],
    ["eval", "--checkpoint", CKPT16, "--manifest", M16, "--out", "eval16"],
    ["cam", "--checkpoint", CKPT16, "--manifest", M16, "--target-class", "0", "--out", "cam16"],
    ["gradcheck", "--out", "gradcheck"],
    ["cam", "--checkpoint", CKPT48, "--manifest", M48, "--split", "train", "--target-class", "0",
     "--out", "cam48train"],
    ["eval", "--checkpoint", CKPT48, "--manifest", M48, "--split", "train", "--out",
     "eval48train"],
    ["cam", "--checkpoint", "holdout/model.ckpt", "--manifest", "holdout/manifest_holdout.json",
     "--data-root", "sites", "--target-class", "1", "--out", "camholdout"],
]


def write_dark_scores(out: Path) -> None:
    """A second score file over the 48^3 test split: each scan's fraction of voxels below 0.2."""
    sys.path.insert(0, str(SRC))
    from szdl.manifest import load_manifest
    from szdl.nifti import load_volume

    with open(out / "dark.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "score", "label"])
        for rec in load_manifest(out / M48):
            if rec.split == "test":
                data = load_volume(out / "data48" / rec.scan_path).data
                writer.writerow([rec.subject_id, repr(float((data < 0.2).mean())), rec.label])


def merge_site_manifests(out: Path) -> None:
    """One manifest over both synthesized sites, scan paths relative to ``sites/``."""
    records = []
    for site in ("nmorph", "cobre"):
        for rec in json.loads((out / "sites" / site / "manifest.json").read_text()):
            records.append({**rec, "scan_path": f"{site}/{rec['scan_path']}"})
    (out / SITES).write_text(json.dumps(records, indent=2) + "\n")


def run_recipe(out: Path) -> None:
    out.mkdir(parents=True)
    for name, train in CONFIGS.items():
        (out / name).write_text(json.dumps({"schema_version": 1, "train": train}, indent=2) + "\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(SRC)}
    with open(out / "log.txt", "w") as log:
        for argv in COMMANDS:
            if argv[0] == "compare":
                write_dark_scores(out)
            if argv[:3] == ["train", "--config", "holdout.json"]:
                merge_site_manifests(out)
            proc = subprocess.run([sys.executable, "-m", "szdl.cli", *argv], cwd=out, env=env,
                                  capture_output=True, text=True)
            log.write(f"$ szdl {' '.join(argv)}\n{proc.stdout}{proc.stderr}"
                      f"exit {proc.returncode}\n")
            log.flush()
            if proc.returncode != 0:
                sys.exit(f"szdl {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("out", type=Path, help="directory to create and fill")
    out = parser.parse_args().out
    run_recipe(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
