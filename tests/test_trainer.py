"""Adam, the training loop, early stopping, and checkpoint persistence."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from szdl import train
from szdl.errors import DataError, NumericalError
from szdl.manifest import assign_splits
from szdl.model import ModelConfig, build_model
from szdl.phantom import PhantomSpec, synthesize_dataset
from szdl.tensor import Parameter, Tensor
from szdl.train import (
    CHECKPOINT_VERSION,
    AdamState,
    TrainConfig,
    TrainHistory,
    adam_step,
    fit,
    load_checkpoint,
    run_generalization,
    save_checkpoint,
    score_records,
)


def tiny_train_config(**overrides):
    model = ModelConfig(input_extent=32, width_scale=1 / 8, se_ratio=4,
                        classifier_dims=(16, 8), dropout_p=0.2)
    base = dict(model=model, learning_rate=1e-3, batch_size=5, max_epochs=3,
                patience=20, seed=0, augment=False)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantoms")
    spec = PhantomSpec(size=32, effect_size=0.8, noise_std=0.02, seed=100)
    records = synthesize_dataset(root, 25, spec)
    return root, assign_splits(records, seed=1)


class TestAdam:
    def _scalar_param(self, value=1.0):
        return Parameter("theta", np.array([value]))

    def test_zero_gradient_no_motion(self):
        p = self._scalar_param(3.0)
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(1)], state, lr=0.1)
        assert p.data[0] == 3.0

    def test_hand_derived_first_step(self):
        lr = 1e-4
        p = self._scalar_param(0.0)
        state = AdamState.for_params([p])
        adam_step([p], [np.ones(1)], state, lr=lr)
        assert state.t == 1
        assert state.m["theta"][0] == pytest.approx(0.1, abs=1e-12)
        assert state.v["theta"][0] == pytest.approx(0.001, abs=1e-12)
        # bias-corrected m=1, v=1 so the step is -lr / (1 + eps)
        assert p.data[0] == pytest.approx(-lr / (1 + state.eps), abs=1e-10)

    def test_constant_gradient_update_approaches_lr(self):
        lr = 1e-2
        p = Parameter("theta", np.array([0.0]))
        state = AdamState.for_params([p])
        prev = p.data[0]
        for _ in range(10_000):
            prev = p.data[0]
            adam_step([p], [np.full(1, -2.0)], state, lr=lr)
        last_step = p.data[0] - prev
        assert last_step == pytest.approx(lr, rel=0.01)  # sign-following limit

    def test_second_moment_stays_nonnegative(self):
        rng = np.random.default_rng(0)
        p = Parameter("theta", rng.standard_normal(32))
        state = AdamState.for_params([p])
        for _ in range(50):
            adam_step([p], [rng.standard_normal(32)], state, lr=1e-3)
            assert np.all(state.v["theta"] >= 0)
            assert np.isfinite(p.data).all()

    def test_non_finite_gradient_rejected(self):
        p = self._scalar_param()
        state = AdamState.for_params([p])
        with pytest.raises(NumericalError, match=r"gradient of \S+ is not finite"):
            adam_step([p], [np.array([np.nan])], state, lr=1e-3)


class TestEarlyStopping:
    """``fit`` stops ``patience`` epochs after the best validation loss in its history."""

    def _history(self, monkeypatch, small_dataset, val_losses, **overrides):
        root, records = small_dataset
        scripted = iter(val_losses)
        evaluate = train._evaluate
        # the real validation scores, with a scripted validation loss
        monkeypatch.setattr(train, "_evaluate",
                            lambda *args: (next(scripted), evaluate(*args)[1]))
        return fit(tiny_train_config(**overrides), records, data_root=root)[2]

    def test_plateau_stops_after_patience_epochs(self, monkeypatch, small_dataset):
        history = self._history(monkeypatch, small_dataset, [1.0] * 10,
                                patience=5, max_epochs=10)
        assert len(history.records) == 6  # patience + 1
        assert history.best_epoch == 1
        assert history.stop_reason == "early-stop"

    def test_improvement_resets(self, monkeypatch, small_dataset):
        history = self._history(monkeypatch, small_dataset, [1.0, 1.0, 0.5, 0.5],
                                patience=2, max_epochs=4)
        assert len(history.records) == 4
        assert history.best_epoch == 3
        assert history.stop_reason == "max-epochs"


class TestFit:
    def test_loss_decreases_on_separable_phantoms(self, small_dataset):
        root, records = small_dataset
        model, adam, history = fit(tiny_train_config(), records, data_root=root)
        assert history.records[-1].train_loss < history.records[0].train_loss
        assert history.stop_reason == "max-epochs"
        assert history.best_epoch >= 1

    def test_identical_seeds_bitwise_identical_history(self, small_dataset):
        root, records = small_dataset
        cfg = tiny_train_config(max_epochs=2)
        _, _, h1 = fit(cfg, records, data_root=root)
        _, _, h2 = fit(cfg, records, data_root=root)
        assert h1.to_csv() == h2.to_csv()

    def test_worker_count_does_not_change_results(self, small_dataset):
        root, records = small_dataset
        cfg1 = tiny_train_config(max_epochs=1, augment=True)
        cfg2 = tiny_train_config(max_epochs=1, augment=True, workers=3)
        _, _, h1 = fit(cfg1, records, data_root=root)
        _, _, h2 = fit(cfg2, records, data_root=root)
        assert h1.to_csv() == h2.to_csv()

    def test_best_checkpoint_matches_history_minimum(self, small_dataset):
        root, records = small_dataset
        cfg = tiny_train_config(max_epochs=4)
        model, adam, history = fit(cfg, records, data_root=root)
        best = min(r.val_loss for r in history.records)
        assert history.records[history.best_epoch - 1].val_loss == best

    def test_early_stop_reason(self, small_dataset):
        root, records = small_dataset
        cfg = tiny_train_config(max_epochs=40, patience=1)
        _, _, history = fit(cfg, records, data_root=root)
        assert history.stop_reason == "early-stop"
        assert len(history.records) < 40

    def test_each_scan_loaded_when_a_batch_needs_it(self, tmp_path, monkeypatch):
        # no scan is kept between uses: every epoch reads each train and val scan once
        records = assign_splits(synthesize_dataset(tmp_path, 10, PhantomSpec(size=16)))
        loads = []
        load = train.load_volume

        def counting_load(path):
            loads.append(Path(path).name)
            return load(path)

        monkeypatch.setattr(train, "load_volume", counting_load)
        model = ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                            classifier_dims=(8, 4))
        _, _, history = fit(tiny_train_config(model=model, max_epochs=2), records,
                            data_root=tmp_path)
        assert len(history.records) == 2
        used = [Path(r.scan_path).name for r in records if r.split in ("train", "val")]
        assert sorted(loads) == sorted(used * 2)

    def test_empty_split_rejected(self, small_dataset):
        root, records = small_dataset
        train_only = [r for r in records if r.split == "train"]
        with pytest.raises(DataError, match="val split is empty"):
            fit(tiny_train_config(), train_only, data_root=root)

    def test_single_class_split_rejected(self, small_dataset):
        root, records = small_dataset
        skewed = [r for r in records if r.split != "val" or r.label == 1]
        with pytest.raises(DataError, match="val split holds a single class"):
            fit(tiny_train_config(), skewed, data_root=root)


class TestScoring:
    def test_each_scan_scored_as_if_alone(self, small_dataset):
        # a scan's score is the class-1 probability of its own batch-of-one
        # forward pass, whatever other scans are scored with it
        root, records = small_dataset
        model = build_model(tiny_train_config().model, seed=7)
        mixed = records[::3]
        assert {r.label for r in mixed} == {0, 1}
        scored = score_records(model, mixed, data_root=root)
        for rec, score in zip(mixed, scored.scores):
            alone = score_records(model, [rec], data_root=root)
            assert alone.scores.tobytes() == score.tobytes()
            x = Tensor(train.load_scan(rec, root).data[None, None])
            probs = model.apply(x, mode="eval").probs.data
            assert np.float64(probs[0, 1]).tobytes() == score.tobytes()

    def test_memory_does_not_grow_with_scan_count(self, small_dataset):
        root, records = small_dataset
        model = build_model(tiny_train_config().model, seed=7)
        score_records(model, records[:1], data_root=root)  # warm caches outside the trace
        peaks = []
        for count in (1, 8):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                score_records(model, records[:count], data_root=root)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]


class TestCheckpoint:
    def test_round_trip_bit_exact_forward(self, small_dataset, tmp_path):
        root, records = small_dataset
        cfg = tiny_train_config(max_epochs=1)
        model, adam, history = fit(cfg, records, data_root=root)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, adam, history, path)
        loaded, adam2, history2 = load_checkpoint(path)

        test = [r for r in records if r.split == "test"]
        before = score_records(model, test, data_root=root)
        after = score_records(loaded, test, data_root=root)
        np.testing.assert_array_equal(before.scores, after.scores)
        assert adam2.t == adam.t
        for name in adam.m:
            np.testing.assert_array_equal(adam.m[name], adam2.m[name])
        assert history2.to_csv() == history.to_csv()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(DataError, match="checkpoint magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        import struct
        path = tmp_path / "v9.ckpt"
        path.write_bytes(b"SZDL" + struct.pack("<IQ", 9, 2) + b"{}")
        with pytest.raises(DataError, match="checkpoint version 9"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = build_model(ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                                        classifier_dims=(8, 4)), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, None, None, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(DataError, match=r"array \S+ truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        model = build_model(ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                                        classifier_dims=(8, 4)), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, None, None, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataError, match="8 trailing bytes after the last array"):
            load_checkpoint(path)

    @staticmethod
    def _edited_checkpoint(tmp_path, edit, adam=False):
        """Save a 16^3, width-1/8, seed-3 model, then rewrite its array index.

        ``edit(meta, arrays)`` changes the metadata and the list of
        ``[entry, payload bytes]`` pairs in place; the file is written back
        with the edited index and the payloads in list order.
        """
        import json
        import struct
        model = build_model(ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                                        classifier_dims=(8, 4)), seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, AdamState.for_params(model.parameters()) if adam else None,
                        None, path)
        blob = path.read_bytes()
        _, meta_len = struct.unpack_from("<IQ", blob, 4)
        meta = json.loads(blob[16:16 + meta_len])
        arrays, offset = [], 16 + meta_len
        for entry in meta["arrays"]:
            nbytes = 4 * int(np.prod(entry["shape"], dtype=np.int64))
            arrays.append([entry, blob[offset:offset + nbytes]])
            offset += nbytes
        edit(meta, arrays)
        meta["arrays"] = [entry for entry, _ in arrays]
        head = json.dumps(meta).encode("utf-8")
        path.write_bytes(blob[:4] + struct.pack("<IQ", CHECKPOINT_VERSION, len(head)) + head
                         + b"".join(payload for _, payload in arrays))
        return path, model

    def test_unedited_index_loads(self, tmp_path):
        path, model = self._edited_checkpoint(tmp_path, lambda meta, arrays: None)
        loaded, _, _ = load_checkpoint(path)
        for p, q in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_missing_array(self, tmp_path):
        def drop(meta, arrays):
            arrays[:] = [a for a in arrays if a[0]["name"] != "block1.conv1.weight"]
        path, _ = self._edited_checkpoint(tmp_path, drop)
        with pytest.raises(DataError, match="arrays missing"):
            load_checkpoint(path)

    def test_duplicate_array(self, tmp_path):
        def repeat(meta, arrays):
            arrays.append(next(a for a in arrays if a[0]["name"] == "block1.conv1.bias"))
        path, _ = self._edited_checkpoint(tmp_path, repeat)
        with pytest.raises(DataError, match="appears twice"):
            load_checkpoint(path)

    def test_unknown_name(self, tmp_path):
        def add(meta, arrays):
            arrays.append([{"role": "param", "name": "block9.conv1.bias", "shape": [2]},
                           b"\x00" * 8])
        path, _ = self._edited_checkpoint(tmp_path, add)
        with pytest.raises(DataError, match="unexpected array"):
            load_checkpoint(path)

    def test_shape_differs(self, tmp_path):
        def reshape(meta, arrays):
            entry = next(a[0] for a in arrays if a[0]["name"] == "block1.conv1.bias")
            entry["shape"] = [1] + entry["shape"]  # same byte count, wrong shape
        path, _ = self._edited_checkpoint(tmp_path, reshape)
        with pytest.raises(DataError, match="has shape"):
            load_checkpoint(path)

    def test_adam_arrays_without_adam_metadata(self, tmp_path):
        def drop_adam(meta, arrays):
            meta["adam"] = None
        path, _ = self._edited_checkpoint(tmp_path, drop_adam, adam=True)
        with pytest.raises(DataError, match="unexpected array adam_m"):
            load_checkpoint(path)

    def test_float64_round_trip_bit_exact(self, tmp_path):
        model = build_model(ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                                        classifier_dims=(8, 4)), seed=0, dtype=np.float64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, None, None, path)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.dtype == np.float64
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert q.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, q.data)

    def test_load_reads_into_the_model_without_a_file_copy(self, tmp_path):
        # each array is read straight into the model or Adam buffer it fills, so
        # loading allocates under 10% beyond those and the gradient buffers
        model = build_model(ModelConfig(input_extent=48, width_scale=1 / 8, se_ratio=4), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, AdamState.for_params(model.parameters()), None, path)
        del model
        tracemalloc.start()
        try:
            loaded, adam, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        filled = sum(a.nbytes for _, _, a in train._array_index(loaded, adam))
        grads = sum(p.grad.nbytes for p in loaded.parameters())
        assert peak <= 1.1 * (filled + grads), (peak, filled, grads)

    def test_resume_steps_identically(self, small_dataset, tmp_path):
        # saved Adam state resumes exactly: one manual step after load matches
        # one manual step without the round trip
        root, records = small_dataset
        cfg = tiny_train_config(max_epochs=1)
        model, adam, history = fit(cfg, records, data_root=root)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, adam, history, path)
        loaded, adam2, _ = load_checkpoint(path)

        grads = {p.name: np.full_like(p.data, 0.01) for p in model.parameters()}
        for m, st in ((model, adam), (loaded, adam2)):
            params = m.parameters()
            adam_step(params, [grads[p.name] for p in params], st, lr=1e-3)
        for p, q in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(p.data, q.data)


class TestGeneralization:
    def test_two_site_holdout_report(self, tmp_path):
        spec_a = PhantomSpec(size=32, effect_size=0.8, noise_std=0.02, seed=300)
        spec_b = PhantomSpec(size=32, effect_size=0.8, noise_std=0.05, seed=400)
        rec_a = synthesize_dataset(tmp_path / "a", 12, spec_a, site="COBRE",
                                   subject_prefix="a")
        rec_b = synthesize_dataset(tmp_path / "b", 12, spec_b, site="NMorphCH",
                                   subject_prefix="b")
        from dataclasses import replace
        records = ([replace(r, scan_path=f"a/{r.scan_path}") for r in rec_a]
                   + [replace(r, scan_path=f"b/{r.scan_path}") for r in rec_b])
        cfg = tiny_train_config(max_epochs=2)
        result = run_generalization(cfg, records, "NMorphCH", data_root=tmp_path)
        report = result["report"]
        assert report["held_out_site"] == "NMorphCH"
        assert report["n_test"] == 24
        assert all(r["site"] == "NMorphCH" for r in report["test_records"])
        assert 0.0 <= report["auc"] <= 1.0

    def test_unknown_site_raises(self, small_dataset):
        root, records = small_dataset
        with pytest.raises(DataError, match="site 'COBRE' has no records in this manifest"):
            run_generalization(tiny_train_config(), records, "COBRE", data_root=root)


class TestHistoryCsv:
    def test_round_trip_dict(self):
        h = TrainHistory(best_epoch=2, stop_reason="max-epochs")
        from szdl.train import EpochRecord
        h.records = [EpochRecord(1, 0.7, 0.68, 0.5), EpochRecord(2, 0.5, 0.45, 0.9)]
        assert TrainHistory.from_dict(h.to_dict()).to_csv() == h.to_csv()
        assert h.to_csv().splitlines()[0] == "epoch,train_loss,val_loss,val_auc"
