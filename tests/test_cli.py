"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import szdl
from szdl import train
from szdl.cli import load_run_config, main, read_scores_csv, save_run_config
from szdl.errors import DataError
from szdl.manifest import ScanRecord, load_manifest, save_manifest
from szdl.model import ModelConfig, build_model
from szdl.nifti import Volume, load_volume, save_volume
from szdl.train import CHECKPOINT_VERSION, AdamState, TrainConfig, save_checkpoint


def run(*argv):
    return main([str(a) for a in argv])


def write_scores(path, rows):
    lines = ["subject_id,score,label"] + [f"{s},{v},{l}" for s, v, l in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def checkpoint_bytes(meta: bytes) -> bytes:
    return b"SZDL" + struct.pack("<IQ", CHECKPOINT_VERSION, len(meta)) + meta


def edited_checkpoint(path, edit) -> bytes:
    """The checkpoint at ``path`` with ``edit(meta)`` applied to its metadata."""
    blob = Path(path).read_bytes()
    _, meta_len = struct.unpack_from("<IQ", blob, 4)
    meta = json.loads(blob[16:16 + meta_len])
    edit(meta)
    return checkpoint_bytes(json.dumps(meta).encode()) + blob[16 + meta_len:]


def _float_shape(meta):
    meta["arrays"][0]["shape"] = [float(n) for n in meta["arrays"][0]["shape"]]


def _text_loss(meta):
    meta["history"]["records"][0][1] = "x"


# a checkpoint metadata object with every key but dtype and one array entry
META = {"model_config": {}, "adam": None, "history": None,
        "arrays": [{"role": "param", "name": "block1.conv1.bias", "shape": [8]}]}


def tiny_config(path, **overrides):
    model = ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                        classifier_dims=(8, 4), dropout_p=0.2)
    base = dict(model=model, learning_rate=1e-3, batch_size=4, max_epochs=2,
                patience=5, seed=0, augment=False)
    base.update(overrides)
    save_run_config(TrainConfig(**base), path)
    return path


class TestSynthAndSplit:
    def test_synth_writes_volumes_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        assert run("synth", "--out", out, "--count", 5, "--size", 16, "--seed", 3) == 0
        nii = sorted(out.glob("*.nii"))
        assert len(nii) == 10
        records = load_manifest(out / "manifest.json")
        assert len(records) == 10
        assert sum(r.label for r in records) == 5

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--out", out, "--count", 3, "--size", 16,
                       "--seed", 7) == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_split_assigns_ratios(self, tmp_path):
        out = tmp_path / "data"
        run("synth", "--out", out, "--count", 5, "--size", 16)
        assert run("split", out / "manifest.json", "--seed", 1) == 0
        records = load_manifest(out / "manifest.json")
        counts = {s: sum(r.split == s for r in records) for s in ("train", "val", "test")}
        assert counts == {"train": 8, "val": 1, "test": 1}

    def test_split_missing_manifest_is_data_error(self, tmp_path):
        assert run("split", tmp_path / "nope.json") == 2

    @pytest.mark.parametrize("ratios", ["5,5,5", "5,x,5"])
    def test_split_bad_ratios_is_config_error(self, tmp_path, capsys, ratios):
        out = tmp_path / "data"
        run("synth", "--out", out, "--count", 5, "--size", 16)
        capsys.readouterr()
        assert run("split", out / "manifest.json", "--ratios", ratios) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err


class TestEvalAndCompare:
    def test_eval_perfect_scores(self, tmp_path):
        scores = tmp_path / "scores.csv"
        write_scores(scores, [("a", 0.9, 1), ("b", 0.8, 1), ("c", 0.2, 0), ("d", 0.1, 0)])
        out = tmp_path / "report"
        assert run("eval", "--scores", scores, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["auc"] == 1.0
        assert (out / "roc.csv").read_text().splitlines()[0] == "threshold,fpr,tpr"

    def test_compare_identical_files_p_one(self, tmp_path):
        scores = tmp_path / "scores.csv"
        write_scores(scores, [("a", 0.9, 1), ("b", 0.4, 1), ("c", 0.5, 0), ("d", 0.1, 0)])
        out = tmp_path / "cmp"
        assert run("compare", "--scores-a", scores, "--scores-b", scores,
                   "--out", out) == 0
        block = json.loads((out / "delong.json").read_text())
        assert block["p_value"] == 1.0

    def test_compare_aligns_by_subject_id(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores(a, [("s1", 0.9, 1), ("s2", 0.4, 1), ("s3", 0.5, 0), ("s4", 0.1, 0)])
        write_scores(b, [("s4", 0.1, 0), ("s3", 0.5, 0), ("s2", 0.4, 1), ("s1", 0.9, 1)])
        out = tmp_path / "cmp"
        assert run("compare", "--scores-a", a, "--scores-b", b, "--out", out) == 0
        assert json.loads((out / "delong.json").read_text())["p_value"] == 1.0

    def test_single_class_scores_exit_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        write_scores(scores, [("a", 0.9, 1), ("b", 0.8, 1)])
        assert run("eval", "--scores", scores, "--out", tmp_path / "r") == 2

    def test_eval_without_inputs_exit_1(self, tmp_path):
        assert run("eval", "--out", tmp_path / "r") == 1

    @pytest.mark.parametrize("row", [("b", "abc", 1), ("b", 0.5, "x")],
                             ids=["score-abc", "label-x"])
    def test_malformed_score_row_exit_2(self, tmp_path, capsys, row):
        scores = tmp_path / "scores.csv"
        write_scores(scores, [("a", 0.9, 1), row, ("c", 0.2, 0), ("d", 0.1, 0)])
        assert run("eval", "--scores", scores, "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["compare", "eval-alone"])
    def test_repeated_subject_id_exit_2(self, tmp_path, capsys, command):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores(a, [("x", 0.9, 1), ("x", 0.4, 1), ("y", 0.5, 0), ("z", 0.1, 0)])
        write_scores(b, [("x", 0.8, 1), ("y", 0.3, 0), ("y", 0.6, 0), ("z", 0.2, 0)])
        argv = {"compare": ("compare", "--scores-a", a, "--scores-b", b),
                "eval-alone": ("eval", "--scores", a)}
        assert run(*argv[command], "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {a}: subject 'x' appears twice")
        assert "Traceback" not in err

    def test_label_mismatch_names_first_subject(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores(a, [("s4", 0.1, 0), ("s3", 0.5, 0), ("s2", 0.4, 1), ("s1", 0.9, 1)])
        write_scores(b, [("s1", 0.9, 1), ("s2", 0.4, 0), ("s3", 0.5, 1), ("s4", 0.1, 0)])
        assert run("compare", "--scores-a", a, "--scores-b", b, "--out", tmp_path / "r") == 2
        assert capsys.readouterr().err == "data error: label mismatch for subject 's2'\n"

    def test_read_scores_csv_rejects_nan(self, tmp_path):
        scores = tmp_path / "scores.csv"
        write_scores(scores, [("a", 0.9, 1), ("b", "nan", 1), ("c", 0.2, 0), ("d", 0.1, 0)])
        with pytest.raises(DataError, match="not finite"):
            read_scores_csv(scores)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    run("synth", "--out", data, "--count", 12, "--size", 16,
        "--effect-size", 0.8, "--noise-std", 0.02, "--seed", 4)
    run("split", data / "manifest.json", "--seed", 2)
    cfg = tiny_config(root / "config.json")
    out = root / "run1"
    code = run("train", "--config", cfg, "--manifest", data / "manifest.json",
               "--out", out)
    return code, root, data, cfg, out


class TestTrainPipeline:
    def test_train_writes_artifacts(self, trained):
        code, root, data, cfg, out = trained
        assert code == 0
        assert (out / "model.ckpt").exists()
        history = (out / "history.csv").read_text()
        assert history.splitlines()[0] == "epoch,train_loss,val_loss,val_auc"
        assert len(history.splitlines()) == 3  # header + 2 epochs

    def test_train_deterministic_history(self, trained):
        code, root, data, cfg, out1 = trained
        out2 = root / "run2"
        assert run("train", "--config", cfg, "--manifest", data / "manifest.json",
                   "--out", out2) == 0
        assert (out1 / "history.csv").read_text() == (out2 / "history.csv").read_text()

    def test_trailing_one_scan_batch_trains(self, tmp_path):
        # 16 train scans at batch 5 leave one over; in a batch of its own, block 5's
        # 1^3 map would give train-mode batchnorm one element per channel
        data = tmp_path / "data"
        run("synth", "--out", data, "--count", 10, "--size", 16)
        run("split", data / "manifest.json")
        assert sum(r.split == "train" for r in load_manifest(data / "manifest.json")) == 16
        cfg = tiny_config(tmp_path / "config.json", batch_size=5)
        out = tmp_path / "run"
        assert run("train", "--config", cfg, "--manifest", data / "manifest.json",
                   "--out", out) == 0
        assert (out / "model.ckpt").exists()

    def test_single_class_held_out_site_exit_2_before_training(self, tmp_path, capsys,
                                                                monkeypatch):
        # every held-out NMorphCH scan is a control, so the test split cannot be scored
        records = [ScanRecord(f"c{i:02d}", f"c{i:02d}.nii", i % 2, "COBRE") for i in range(20)]
        records += [ScanRecord(f"n{i}", f"n{i}.nii", 0, "NMorphCH") for i in range(6)]
        save_manifest(records, tmp_path / "manifest.json")

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the test split was checked")

        monkeypatch.setattr(train, "fit", no_fit)
        out = tmp_path / "run"
        assert run("train", "--config", tiny_config(tmp_path / "config.json"),
                   "--manifest", tmp_path / "manifest.json", "--hold-out-site", "NMorphCH",
                   "--out", out) == 2
        assert capsys.readouterr().err == "data error: test split holds a single class\n"
        assert not any(out.iterdir())

    def test_eval_from_checkpoint(self, trained):
        code, root, data, cfg, out = trained
        report_dir = root / "eval"
        assert run("eval", "--checkpoint", out / "model.ckpt",
                   "--manifest", data / "manifest.json", "--out", report_dir) == 0
        report = json.loads((report_dir / "report.json").read_text())
        assert 0.0 <= report["auc"] <= 1.0
        scored = read_scores_csv(report_dir / "scores.csv")
        assert len(scored.labels) == 2  # the 12-per-class synth test split

    def test_two_scan_subject_scored_once(self, trained, tmp_path):
        # every subject in the test split; subject a gets a second scan (b's, copied)
        code, root, data, cfg, out = trained
        records = [replace(r, split="test") for r in load_manifest(data / "manifest.json")]
        a, b = [r for r in records if r.label == 1][:2]
        (tmp_path / "extra.nii").write_bytes((data / b.scan_path).read_bytes())
        save_manifest(records, tmp_path / "one.json")
        save_manifest(records + [replace(a, scan_path=str(tmp_path / "extra.nii"))],
                      tmp_path / "two.json")
        for name in ("one", "two"):
            assert run("eval", "--checkpoint", out / "model.ckpt", "--manifest",
                       tmp_path / f"{name}.json", "--data-root", data,
                       "--out", tmp_path / name) == 0
        one = read_scores_csv(tmp_path / "one" / "scores.csv")
        two = read_scores_csv(tmp_path / "two" / "scores.csv")
        assert two.subject_ids == one.subject_ids == tuple(r.subject_id for r in records)
        scores = dict(zip(one.subject_ids, one.scores))
        mean = (scores[a.subject_id] + scores[b.subject_id]) / 2
        assert dict(zip(two.subject_ids, two.scores))[a.subject_id] == pytest.approx(mean)
        files = tmp_path / "two" / "scores.csv", tmp_path / "one" / "scores.csv"
        assert run("compare", "--scores-a", files[0], "--scores-b", files[1],
                   "--out", tmp_path / "cmp") == 0

    def test_cam_from_checkpoint(self, trained):
        code, root, data, cfg, out = trained
        cam_dir = root / "cam"
        assert run("cam", "--checkpoint", out / "model.ckpt",
                   "--manifest", data / "manifest.json", "--split", "test",
                   "--out", cam_dir) == 0
        report = json.loads((cam_dir / "cam_report.json").read_text())
        assert report["target_class"] == 1
        vol = load_volume(cam_dir / "cam.nii")
        assert vol.extents == (16, 16, 16)
        assert (cam_dir / "cam_axial.pgm").exists()

    def test_eval_single_class_split_exit_2_writes_nothing(self, trained, tmp_path, capsys):
        code, root, data, cfg, out = trained
        records = [replace(r, split="val") if r.split == "test" and r.label == 0 else r
                   for r in load_manifest(data / "manifest.json")]
        assert {r.label for r in records if r.split == "test"} == {1}
        save_manifest(records, tmp_path / "manifest.json")
        report_dir = tmp_path / "eval"
        capsys.readouterr()
        assert run("eval", "--checkpoint", out / "model.ckpt", "--manifest",
                   tmp_path / "manifest.json", "--data-root", data, "--split", "test",
                   "--out", report_dir) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "'test'" in err
        assert "Traceback" not in err
        assert list(report_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["eval", "cam"])
    def test_wrong_extent_scans_exit_2(self, trained, tmp_path, capsys, command):
        code, root, data, cfg, out = trained
        wide = tmp_path / "wide"
        run("synth", "--out", wide, "--count", 5, "--size", 24, "--seed", 4)
        run("split", wide / "manifest.json", "--seed", 2)
        capsys.readouterr()
        assert run(command, "--checkpoint", out / "model.ckpt", "--manifest",
                   wide / "manifest.json", "--split", "train", "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: input extent (24, 24, 24)")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "cam"])
    def test_unusable_out_exit_1(self, trained, tmp_path, capsys, command):
        code, root, data, cfg, out = trained
        scores = tmp_path / "scores.csv"
        write_scores(scores, [("a", 0.9, 1), ("b", 0.8, 1), ("c", 0.2, 0), ("d", 0.1, 0)])
        afile = tmp_path / "afile"
        afile.write_text("a regular file")
        argv = {"eval": ("eval", "--scores", scores),
                "cam": ("cam", "--checkpoint", out / "model.ckpt",
                        "--manifest", data / "manifest.json")}[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            run(*argv, "--out", afile)
        assert exited.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --out: cannot create output directory {str(afile)!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "cam"])
    def test_unknown_split_exit_1(self, trained, tmp_path, capsys, command):
        code, root, data, cfg, out = trained
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            run(command, "--checkpoint", out / "model.ckpt", "--manifest",
                data / "manifest.json", "--split", "nope", "--out", tmp_path / "r")
        assert exited.value.code == 1
        err = capsys.readouterr().err
        assert "argument --split: invalid choice: 'nope'" in err
        assert "Traceback" not in err

    def test_cam_threshold_out_of_range_writes_nothing(self, trained, tmp_path, capsys):
        code, root, data, cfg, out = trained
        cam_dir = tmp_path / "cam"
        capsys.readouterr()
        assert run("cam", "--checkpoint", out / "model.ckpt", "--manifest",
                   data / "manifest.json", "--threshold", 1.5, "--out", cam_dir) == 1
        assert not (cam_dir / "cam.nii").exists()
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --threshold must be in [0, 1]")
        assert "Traceback" not in err

    # a misspelt key, then keys that name the fields of older configs
    @pytest.mark.parametrize("key, value", [
        ("learning_rt", 1e-3),
        ("precision", "float32"),
        ("augment_spec", {}),
        ("eval_batch_size", 16),
        ("model.block_channels", [64, 128, 256, 256, 512, 512, 512, 512]),
    ], ids=["learning_rt", "precision", "augment_spec", "eval_batch_size",
            "model.block_channels"])
    def test_bad_config_key_exit_1(self, trained, tmp_path, key, value):
        code, root, data, cfg, out = trained
        raw = json.loads(Path(cfg).read_text())
        *parents, name = key.split(".")
        section = raw["train"]
        for parent in parents:
            section = section[parent]
        section[name] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run("train", "--config", bad, "--manifest", data / "manifest.json",
                   "--out", tmp_path / "o") == 1

    # values of the right JSON type that no model or optimizer can use; json
    # writes and reads inf and nan as Infinity and NaN
    @pytest.mark.parametrize("section, key, value, message", [
        ("model", "se_ratio", 0, "se_ratio must be >= 1, got 0"),
        ("model", "classifier_dims", [0, 4], "must be two positive integers, got [0, 4]"),
        ("model", "classifier_dims", ["a", 4], "must be two positive integers, got ['a', 4]"),
        ("model", "width_scale", float("inf"), "width_scale inf does not scale 64"),
        ("train", "learning_rate", float("nan"), "learning_rate must be finite and > 0, got nan"),
    ], ids=["se_ratio-0", "classifier_dims-0", "classifier_dims-text", "width_scale-inf",
            "learning_rate-nan"])
    def test_unusable_config_value_exit_1(self, trained, tmp_path, capsys, section, key,
                                          value, message):
        code, root, data, cfg, out = trained
        raw = json.loads(Path(cfg).read_text())
        (raw["train"] if section == "train" else raw["train"][section])[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        capsys.readouterr()
        assert run("train", "--config", bad, "--manifest", data / "manifest.json",
                   "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("se_ratio", 0), ("classifier_dims", [0, 4]),
                                            ("width_scale", float("inf"))],
                             ids=["se_ratio-0", "classifier_dims-0", "width_scale-inf"])
    def test_unusable_checkpoint_model_config_exit_2(self, trained, tmp_path, capsys, key,
                                                     value):
        code, root, data, cfg, out = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(edited_checkpoint(out / "model.ckpt",
                                          lambda meta: meta["model_config"].update({key: value})))
        capsys.readouterr()
        assert run("cam", "--checkpoint", bad, "--manifest", data / "manifest.json",
                   "--out", tmp_path / "c") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed checkpoint metadata: ValueError(")
        assert "Traceback" not in err

    def test_bad_schema_version_exit_1(self, trained, tmp_path):
        code, root, data, cfg, out = trained
        raw = json.loads(Path(cfg).read_text())
        raw["schema_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run("train", "--config", bad, "--manifest", data / "manifest.json",
                   "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize("payload", [
        b"XXXX" + struct.pack("<IQ", 1, 2) + b"{}",
        b"SZDL" + struct.pack("<I", 2),
        checkpoint_bytes(b"\xff\xfe{}"),
        checkpoint_bytes(b"{not json"),
        checkpoint_bytes(b"[1, 2]"),
        checkpoint_bytes(json.dumps(META).encode()),
        checkpoint_bytes(json.dumps({**META, "dtype": "banana"}).encode()),
        checkpoint_bytes(json.dumps({**META, "dtype": "float32",
                                     "arrays": [{"role": "param", "name": "x"}]}).encode()),
        # the trained checkpoint with one metadata entry edited
        lambda meta: meta.update(adam={}),
        lambda meta: meta.update(model_config=[16]),
        lambda meta: meta["model_config"].update(input_extent=24),
        lambda meta: meta.update(history={"records": 3}),
        _text_loss,
        _float_shape,
    ], ids=["bad-magic", "short-header", "meta-not-utf8", "meta-not-json", "meta-not-object",
            "no-dtype", "unknown-dtype", "array-without-shape", "adam-empty",
            "model-config-list", "input-extent-24", "history-records-int", "history-loss-text",
            "float-shape"])
    def test_corrupt_checkpoint_exit_2(self, trained, tmp_path, capsys, payload):
        code, root, data, cfg, out = trained
        if callable(payload):
            payload = edited_checkpoint(out / "model.ckpt", payload)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(payload)
        capsys.readouterr()
        assert run("eval", "--checkpoint", bad, "--manifest", data / "manifest.json",
                   "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "Traceback" not in err

    def test_checkpoint_model_too_large_for_memory_exit_2(self, trained, tmp_path):
        # input_extent 4096 asks for a 64 GiB dense weight; the child caps its
        # own address space at 2 GiB, so the allocation fails before any page
        # is touched
        code, root, data, cfg, out = trained
        bad = tmp_path / "huge.ckpt"
        bad.write_bytes(edited_checkpoint(
            out / "model.ckpt", lambda meta: meta["model_config"].update(input_extent=4096)))
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                  "from szdl.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        volume = sorted(data.glob("*.nii"))[0]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(szdl.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, "cam", "--checkpoint", str(bad),
                               "--volume", str(volume), "--out", str(tmp_path / "c")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("data error: checkpoint model {")
        assert "'input_extent': 4096" in proc.stderr and "does not fit in memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_train_model_too_large_for_memory_exit_1(self, trained, tmp_path):
        # input_extent 4096 from a run config: building the model fails under
        # the child's self-imposed 2 GiB address-space cap
        code, root, data, cfg, out = trained
        model = ModelConfig(input_extent=4096, width_scale=1 / 8, se_ratio=4)
        huge = tiny_config(tmp_path / "huge.json", model=model)
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                  "from szdl.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(szdl.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script, "train", "--config", str(huge),
                               "--manifest", str(data / "manifest.json"),
                               "--out", str(tmp_path / "t")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("configuration error: model {")
        assert "'input_extent': 4096" in proc.stderr and "does not fit in memory" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("eval", "--scores", "{dir}", "--out", "{tmp}/r"),
        ("train", "--config", "{dir}", "--manifest", "{data}/manifest.json",
         "--out", "{tmp}/o"),
        ("split", "{dir}"),
        ("cam", "--checkpoint", "{out}/model.ckpt", "--volume", "{dir}", "--out", "{tmp}/c"),
        ("split", "{tmp}/latin1.json"),
        ("eval", "--scores", "{tmp}/latin1.csv", "--out", "{tmp}/r"),
    ], ids=["scores-dir", "config-dir", "manifest-dir", "volume-dir", "manifest-not-utf8",
            "scores-not-utf8"])
    def test_unreadable_input_exit_2(self, trained, tmp_path, capsys, argv):
        code, root, data, cfg, out = trained
        (tmp_path / "dir").mkdir()
        (tmp_path / "latin1.json").write_bytes(b'[{"subject_id": "caf\xe9"}]')
        (tmp_path / "latin1.csv").write_bytes(b"subject_id,score,label\ncaf\xe9,0.5,1\n")
        capsys.readouterr()
        assert run(*(a.format(dir=tmp_path / "dir", tmp=tmp_path, data=data, out=out)
                     for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "Traceback" not in err


# VmPeak of `szdl eval` and `szdl cam` below with OPENBLAS_NUM_THREADS=2 (2-core x86-64,
# numpy 2.4, OpenBLAS 0.3.31): 1120 and 1174 MiB, against 1460 MiB for both when the
# whole checkpoint file was read into memory before the model.  The cap leaves cam 157 MiB.
PAPER_SCALE_ADDRESS_SPACE = int(1.3 * 2 ** 30)


@pytest.mark.slow
def test_paper_scale_eval_and_cam_under_address_space_cap(tmp_path):
    # a full-width checkpoint with Adam state, two 192^3 scans (96^3 model input)
    model = build_model(ModelConfig(), seed=0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(model, AdamState.for_params(model.parameters()), None, ckpt)
    del model
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--count", 1, "--size", 192) == 0
    manifest = data / "manifest.json"
    save_manifest([replace(r, split="test") for r in load_manifest(manifest)], manifest)
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({PAPER_SCALE_ADDRESS_SPACE},) * 2)\n"
              "from szdl.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": str(Path(szdl.__file__).parents[1])}
    for argv in (["eval", "--out", tmp_path / "eval"],
                 ["cam", "--target-class", 1, "--out", tmp_path / "cam"]):
        proc = subprocess.run([sys.executable, "-c", script, *map(str, argv),
                               "--checkpoint", str(ckpt), "--manifest", str(manifest)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
    scored = read_scores_csv(tmp_path / "eval" / "scores.csv")
    assert len(scored.scores) == 2 and np.isfinite(scored.scores).all()
    cam = load_volume(tmp_path / "cam" / "cam.nii")
    assert cam.extents == (96, 96, 96)
    assert cam.voxel_size == (2.0, 2.0, 2.0)  # the 96^3 map spans the 192 mm scan


def test_cam_memory_flat_in_the_number_of_scans(tmp_path):
    # an averaged map over 16 scans holds no more maps than one over a single scan
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--count", 1, "--size", 48) == 0
    scan = next(r for r in load_manifest(data / "manifest.json") if r.label == 1)
    records = [replace(scan, subject_id=f"s{i:02d}", scan_path=f"s{i:02d}.nii", split="test")
               for i in range(16)]
    for r in records:
        (data / r.scan_path).write_bytes((data / scan.scan_path).read_bytes())
    save_manifest(records[:1], data / "one.json")
    save_manifest(records, data / "sixteen.json")
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(build_model(ModelConfig(input_extent=48, width_scale=1 / 8, se_ratio=4),
                                seed=0), None, None, ckpt)
    peaks = []
    for name in ("one", "sixteen"):
        tracemalloc.start()
        try:
            assert run("cam", "--checkpoint", ckpt, "--manifest", data / f"{name}.json",
                       "--out", tmp_path / name) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert json.loads((tmp_path / "sixteen" / "cam_report.json").read_text())["n_subjects"] == 16
    assert peaks[1] <= 1.15 * peaks[0], [p / 2 ** 20 for p in peaks]


class TestAugmentPreviewAndGradcheck:
    def test_augment_preview_writes_all_transforms(self, tmp_path):
        vol = Volume(np.random.default_rng(0).random((16, 16, 16), dtype=np.float32))
        src = tmp_path / "vol.nii"
        save_volume(vol, src)
        out = tmp_path / "preview"
        assert run("augment-preview", "--volume", src, "--out", out, "--seed", 5) == 0
        names = {p.stem for p in out.glob("*.nii")}
        assert {"original", "blur", "noise", "bias", "motion"} <= names
        assert "affine" in names and "elastic" in names

    def test_augment_preview_vox_offset_inside_header_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.nii"
        save_volume(Volume(np.ones((2, 2, 2), dtype=np.float32)), src)
        blob = bytearray(src.read_bytes())
        struct.pack_into("<f", blob, 108, 100.0)  # vox_offset
        src.write_bytes(bytes(blob))
        assert run("augment-preview", "--volume", src, "--out", tmp_path / "p") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: vox_offset 100.0")
        assert "Traceback" not in err

    def test_gradcheck_passes(self, tmp_path):
        out = tmp_path / "gc"
        assert run("gradcheck", "--out", out, "--seed", 1) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["passed"] is True
        assert report["worst"]["rel_error"] < 1e-4


class TestRunConfig:
    def test_round_trip(self, tmp_path):
        path = tiny_config(tmp_path / "cfg.json", seed=9)
        cfg = load_run_config(path)
        assert cfg.seed == 9
        assert cfg.model.input_extent == 16

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "train": {}, "extra": 1}))
        with pytest.raises(Exception):
            load_run_config(path)
