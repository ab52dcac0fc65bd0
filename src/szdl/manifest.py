"""Dataset manifests: scan records, subject-level splits, site hold-out.

A manifest is a JSON array of records with keys ``subject_id``,
``scan_path``, ``label`` (0 control / 1 schizophrenia), ``site`` and
``split``.  A subject may contribute several scans; all of them must
carry the same label, site and split, and splitting always operates on
subjects so no subject leaks across train/val/test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError

SITES = ("COBRE", "BrainGluSchi", "NMorphCH", "SYNTH")
SPLITS = ("train", "val", "test", "unassigned")
_KEYS = ("subject_id", "scan_path", "label", "site", "split")


@dataclass(frozen=True)
class ScanRecord:
    subject_id: str
    scan_path: str
    label: int
    site: str
    split: str = "unassigned"


def validate_records(records: list[ScanRecord]) -> None:
    """Check the manifest invariants; raises DataError on violation."""
    seen_paths = set()
    subject_info: dict[str, tuple[int, str, str]] = {}
    for rec in records:
        if rec.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {rec.label!r}")
        if rec.site not in SITES:
            raise DataError(f"unknown site {rec.site!r}, expected one of {SITES}")
        if rec.split not in SPLITS:
            raise DataError(f"unknown split {rec.split!r}, expected one of {SPLITS}")
        if rec.scan_path in seen_paths:
            raise DataError(f"duplicate scan_path {rec.scan_path!r}")
        seen_paths.add(rec.scan_path)
        info = (rec.label, rec.site, rec.split)
        prev = subject_info.setdefault(rec.subject_id, info)
        if prev != info:
            raise DataError(
                f"subject {rec.subject_id!r} has inconsistent label/site/split across scans"
            )


def load_manifest(path) -> list[ScanRecord]:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise DataError("manifest must be a JSON array of records")
    records = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != set(_KEYS):
            raise DataError(f"record {i} must have exactly the keys {_KEYS}")
        if type(item["label"]) is not int:  # rejects 1.0 and true, which equal 1
            raise DataError(f"record {i} label must be a JSON integer, got {item['label']!r}")
        records.append(ScanRecord(str(item["subject_id"]), str(item["scan_path"]),
                                  item["label"], str(item["site"]), str(item["split"])))
    validate_records(records)
    return records


def save_manifest(records: list[ScanRecord], path) -> None:
    validate_records(records)
    payload = [{k: getattr(r, k) for k in _KEYS} for r in records]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _subjects_by_label(records: list[ScanRecord]) -> dict[int, list[str]]:
    by_label: dict[int, list[str]] = {0: [], 1: []}
    seen = set()
    for rec in records:
        if rec.subject_id not in seen:
            seen.add(rec.subject_id)
            by_label[rec.label].append(rec.subject_id)
    return by_label


def assign_splits(records: list[ScanRecord], ratios: tuple[int, int, int] = (8, 1, 1),
                  seed: int = 0) -> list[ScanRecord]:
    """Partition subjects into ten near-equal subsets and map them to splits.

    Subjects (not scans) are shuffled label-by-label and dealt round-robin
    into ten subsets, so each subset receives a near-equal share of each
    class; ``ratios`` (summing to 10) then assigns whole subsets to
    train/val/test.  The default 8:1:1 matches the subject-level protocol.
    """
    validate_records(records)
    if not records:
        raise DataError("cannot split an empty manifest")
    if any(rec.split != "unassigned" for rec in records):
        raise DataError("records must all be unassigned before splitting")
    if len(ratios) != 3 or sum(ratios) != 10 or any(r < 0 for r in ratios):
        raise ValueError(f"ratios must be three non-negative tenths, got {ratios}")

    by_label = _subjects_by_label(records)
    if not by_label[0] or not by_label[1]:
        raise DataError("both labels must be present to stratify the split")

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    subsets: list[list[str]] = [[] for _ in range(10)]
    position = 0
    for label in (0, 1):
        group = sorted(by_label[label])
        for idx in rng.permutation(len(group)):
            subsets[position % 10].append(group[idx])
            position += 1

    split_of_subject: dict[str, str] = {}
    boundaries = (ratios[0], ratios[0] + ratios[1])
    for i, subset in enumerate(subsets):
        split = "train" if i < boundaries[0] else "val" if i < boundaries[1] else "test"
        for subject in subset:
            split_of_subject[subject] = split

    return [replace(rec, split=split_of_subject[rec.subject_id]) for rec in records]


def hold_out_site(records: list[ScanRecord], site: str, seed: int = 0) -> list[ScanRecord]:
    """Send every scan of one site to the test split; 9:1 train/val the rest."""
    validate_records(records)
    if site not in {rec.site for rec in records}:
        raise DataError(f"site {site!r} has no records in this manifest")
    held = [replace(rec, split="test") for rec in records if rec.site == site]
    rest = [replace(rec, split="unassigned") for rec in records if rec.site != site]
    rest = assign_splits(rest, ratios=(9, 1, 0), seed=seed)
    return held + rest
