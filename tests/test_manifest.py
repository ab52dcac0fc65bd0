"""Subject-level split protocol and manifest schema checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szdl.errors import DataError
from szdl.manifest import (
    ScanRecord,
    assign_splits,
    hold_out_site,
    load_manifest,
    save_manifest,
)

from oracles import split_subjects


def make_records(n_controls, n_patients, site="SYNTH", scans_per_subject=1, prefix="s"):
    records = []
    for i in range(n_controls + n_patients):
        label = 0 if i < n_controls else 1
        for k in range(scans_per_subject):
            records.append(ScanRecord(f"{prefix}{i:04d}", f"{prefix}{i:04d}_{k}.nii",
                                      label, site))
    return records


class TestAssignSplits:
    def test_ten_subjects_split_8_1_1(self):
        records = assign_splits(make_records(5, 5), seed=7)
        counts = {s: sum(r.split == s for r in records) for s in ("train", "val", "test")}
        assert counts == {"train": 8, "val": 1, "test": 1}

    def test_proportions_near_global(self):
        records = assign_splits(make_records(89, 86), seed=1)
        global_frac = 86 / 175
        for split in ("train", "val", "test"):
            part = [r for r in records if r.split == split]
            frac = sum(r.label for r in part) / len(part)
            assert abs(frac - global_frac) <= 0.10

    def test_fig1a_scale_split_sizes(self):
        # three-site scan counts at the published scale: 437 controls, 450 patients
        records = (make_records(89, 86, site="BrainGluSchi", prefix="b")
                   + make_records(237, 243, site="COBRE", prefix="c")
                   + make_records(111, 121, site="NMorphCH", prefix="n"))
        out = assign_splits(records, seed=3)
        counts = {s: sum(r.split == s for r in out) for s in ("train", "val", "test")}
        assert counts["train"] + counts["val"] + counts["test"] == 887
        # 8:1:1 at the subject level: train close to 80%, val/test close to 10%
        assert abs(counts["train"] - 0.8 * 887) <= 10
        assert abs(counts["val"] - 0.1 * 887) <= 6
        assert abs(counts["test"] - 0.1 * 887) <= 6

    def test_multi_scan_subjects_stay_together(self):
        records = assign_splits(make_records(10, 10, scans_per_subject=3), seed=2)
        per_subject = {}
        for rec in records:
            per_subject.setdefault(rec.subject_id, set()).add(rec.split)
        assert all(len(s) == 1 for s in per_subject.values())

    def test_no_subject_in_two_splits(self):
        records = assign_splits(make_records(17, 23, scans_per_subject=2), seed=5)
        subj = split_subjects(records)
        assert not (subj["train"] & subj["val"])
        assert not (subj["train"] & subj["test"])
        assert not (subj["val"] & subj["test"])

    def test_deterministic_in_seed(self):
        a = assign_splits(make_records(20, 20), seed=11)
        b = assign_splits(make_records(20, 20), seed=11)
        assert a == b
        c = assign_splits(make_records(20, 20), seed=12)
        assert a != c

    def test_empty_manifest(self):
        with pytest.raises(DataError, match="cannot split an empty manifest"):
            assign_splits([])

    def test_single_class(self):
        with pytest.raises(DataError, match="both labels must be present to stratify"):
            assign_splits(make_records(10, 0))

    def test_already_assigned_rejected(self):
        records = assign_splits(make_records(5, 5))
        with pytest.raises(DataError):
            assign_splits(records)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(10, 60), st.integers(10, 60), st.integers(0, 2**31 - 1))
    def test_leakage_free_property(self, n0, n1, seed):
        records = assign_splits(make_records(n0, n1, scans_per_subject=2), seed=seed)
        subj = split_subjects(records)
        assert not (subj["train"] & subj["val"] | subj["train"] & subj["test"]
                    | subj["val"] & subj["test"])
        assert not subj["unassigned"]


class TestHoldOutSite:
    def _records(self):
        return (make_records(20, 20, site="COBRE", prefix="c")
                + make_records(15, 15, site="NMorphCH", prefix="n")
                + make_records(10, 10, site="BrainGluSchi", prefix="b"))

    def test_held_site_is_entire_test_set(self):
        out = hold_out_site(self._records(), "BrainGluSchi", seed=4)
        test = [r for r in out if r.split == "test"]
        assert test and all(r.site == "BrainGluSchi" for r in test)
        assert all(r.site == "BrainGluSchi" for r in out if r.split == "test")
        assert sum(r.site == "BrainGluSchi" for r in out) == len(test)

    def test_remaining_sites_train_val_only(self):
        out = hold_out_site(self._records(), "BrainGluSchi", seed=4)
        rest = [r for r in out if r.site != "BrainGluSchi"]
        assert {r.split for r in rest} == {"train", "val"}
        # 9:1 at the subject level over the two remaining sites
        n_train = sum(r.split == "train" for r in rest)
        assert abs(n_train - 0.9 * len(rest)) <= 4

    def test_unknown_site(self):
        with pytest.raises(DataError, match="site 'SYNTH' has no records in this manifest"):
            hold_out_site(make_records(5, 5, site="COBRE"), "SYNTH")


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        records = assign_splits(make_records(6, 6), seed=0)
        path = tmp_path / "manifest.json"
        save_manifest(records, path)
        assert load_manifest(path) == records

    def test_schema_is_exact(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"subject_id": "a", "scan_path": "a.nii",
                                     "label": 0, "site": "SYNTH", "split": "train",
                                     "extra": 1}]))
        with pytest.raises(DataError):
            load_manifest(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"subject_id": "a", "scan_path": "a.nii",
                                     "label": 2, "site": "SYNTH", "split": "train"}]))
        with pytest.raises(DataError):
            load_manifest(path)

    @pytest.mark.parametrize("label", [1.0, True, False])
    def test_non_integer_label_rejected(self, tmp_path, label):
        good = {"subject_id": "a", "scan_path": "a.nii", "label": 0, "site": "SYNTH",
                "split": "train"}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([good, {**good, "subject_id": "b", "scan_path": "b.nii",
                                           "label": label}]))
        with pytest.raises(DataError, match=rf"record 1 label must be a JSON integer, "
                                            rf"got {label!r}"):
            load_manifest(path)

    def test_inconsistent_subject_rejected(self):
        records = [ScanRecord("a", "a0.nii", 0, "SYNTH"),
                   ScanRecord("a", "a1.nii", 1, "SYNTH")]
        with pytest.raises(DataError):
            save_manifest(records, "/dev/null")

    def test_duplicate_scan_path_rejected(self):
        records = [ScanRecord("a", "a.nii", 0, "SYNTH"),
                   ScanRecord("b", "a.nii", 1, "SYNTH")]
        with pytest.raises(DataError):
            save_manifest(records, "/dev/null")
