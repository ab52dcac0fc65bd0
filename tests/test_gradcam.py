"""Grad-CAM: analytic toy-model check, normalization, averaging, localization."""

from collections import Counter

import numpy as np
import pytest

from szdl import ops
from szdl.errors import DataError
from szdl.gradcam import (
    CamVolume,
    average_cam,
    export_cam,
    grad_cam,
    threshold_cam,
    trilinear_resize,
    write_mid_slices,
)
from szdl.model import ModelConfig, build_model
from szdl.nifti import Volume, load_volume, save_volume
from szdl.tensor import Tape, Tensor, backward

from oracles import block_average, localization_score


def toy_model(seed=0, **overrides):
    cfg = dict(input_extent=16, width_scale=1 / 8, se_ratio=4, classifier_dims=(8, 4))
    cfg.update(overrides)
    return build_model(ModelConfig(**cfg), seed=seed)


def random_volume(extent=16, seed=0):
    rng = np.random.default_rng(seed)
    return Volume(rng.random((extent,) * 3, dtype=np.float32))


def source_stop(model):
    """End of the layer range whose output is the Grad-CAM source's activations."""
    return [layer.name for layer in model.layers].index(model.feature_layer) + 1


class TestToyModelChainRule:
    def test_raw_map_equals_weighted_features_over_pool_factor(self):
        """Single conv -> GAP -> linear head: CAM weights must reduce to the
        head weights divided by the pooled voxel count."""
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 1, 4, 4, 4)))
        w = Tensor(rng.standard_normal((3, 1, 3, 3, 3)))
        b = Tensor(rng.standard_normal(3))
        head_w = Tensor(rng.standard_normal((3, 2)))
        head_b = Tensor(rng.standard_normal(2))

        tape = Tape()
        features = ops.conv3d(x, w, b, tape=tape)
        pooled = ops.global_avg_pool(features, tape=tape)
        logits = ops.dense(pooled, head_w, head_b, tape=tape)
        score = ops.take(logits, (0, 1), tape=tape)
        backward(tape, score, [features])

        weights = features.grad[0].mean(axis=(1, 2, 3))
        raw = np.maximum(np.tensordot(weights, features.data[0], axes=(0, 0)), 0.0)

        volume = 4 ** 3
        expected = np.maximum(
            np.tensordot(head_w.data[:, 1], features.data[0], axes=(0, 0)) / volume, 0.0)
        np.testing.assert_allclose(raw, expected, atol=1e-12)
        np.testing.assert_allclose(weights, head_w.data[:, 1] / volume, atol=1e-12)


class TestGradCam:
    def test_normalization_bounds(self):
        checked = 0
        for seed in range(8):
            cam = grad_cam(toy_model(seed=seed, input_extent=32),
                           random_volume(extent=32, seed=seed), target_class=1)
            if cam.degenerate:
                assert not cam.values.any()
                continue  # an untrained model's raw map can be all negative
            assert cam.values.min() == 0.0
            assert cam.values.max() == 1.0
            assert cam.extents == (32, 32, 32)
            checked += 1
        assert checked >= 3

    def test_parameter_gradients_untouched(self):
        model = toy_model(seed=2)
        volume = random_volume(seed=2)
        rng = np.random.default_rng(2)
        for p in model.parameters():
            p.grad = rng.standard_normal(p.shape).astype(p.dtype)
        before = {p.name: p.grad.copy() for p in model.parameters()}

        cam = grad_cam(model, volume, target_class=1)
        for p in model.parameters():
            assert np.array_equal(p.grad, before[p.name]), p.name

        # the same map as a full backward, every layer on one tape, that also
        # computes parameter gradients
        tape = Tape()
        stop = source_stop(model)
        features = model.run(Tensor(volume.data[None, None]), "eval", 0, stop, tape=tape)
        logits = model.run(features, "eval", stop, -1, tape=tape)
        backward(tape, ops.take(logits, (0, 1), tape=tape),
                 [features, *model.parameters()])
        weights = features.grad[0].mean(axis=(1, 2, 3), dtype=np.float64)
        raw = np.maximum(np.tensordot(weights, features.data[0].astype(np.float64),
                                      axes=(0, 0)), 0.0)
        assert raw.any() and not cam.degenerate
        full = trilinear_resize(raw, cam.extents)
        expected = ((full - full.min()) / (full.max() - full.min())).astype(np.float32)
        assert np.array_equal(cam.values, expected)

    def test_backward_stops_at_source_layer(self, monkeypatch):
        model = toy_model(input_extent=48)
        assert model.feature_layer == "block4.relu2"
        ran = Counter()
        record = Tape.record

        def counting_record(tape, output, inputs, backward_fn):
            op = backward_fn.__qualname__.split(".")[0]

            def counted(grad, needs):
                ran[op] += 1
                return backward_fn(grad, needs)

            record(tape, output, inputs, counted)

        monkeypatch.setattr(Tape, "record", counting_record)
        grad_cam(model, random_volume(extent=48), target_class=1)
        # block 5 (two conv units) lies between block4.relu2 and the logits
        assert (ran["conv3d"], ran["batchnorm3d"]) == (2, 2)

    def test_tape_starts_at_source_layer(self, monkeypatch):
        model = toy_model(input_extent=48)
        assert model.feature_layer == "block4.relu2"
        recorded = []
        record = Tape.record

        def counting_record(tape, output, inputs, backward_fn):
            recorded.append((backward_fn.__qualname__.split(".")[0], inputs))
            record(tape, output, inputs, backward_fn)

        monkeypatch.setattr(Tape, "record", counting_record)
        grad_cam(model, random_volume(extent=48), target_class=1)
        ops_taped = Counter(op for op, _ in recorded)
        # block 5's two conv units, and no conv unit below the source
        assert (ops_taped["conv3d"], ops_taped["batchnorm3d"]) == (2, 2)
        # the first node reads block4.relu2's [1, 64, 6, 6, 6] activations: block 4's pool
        first_op, first_inputs = recorded[0]
        assert first_op == "maxpool3d" and ops_taped["maxpool3d"] == 1
        assert [t.shape for t in first_inputs] == [(1, 64, 6, 6, 6)]
        assert "downsample2x" not in ops_taped

    def test_blocked_gradient_path_degenerates(self):
        model = toy_model()
        # zero fc1 weights with positive bias: classifier output no longer
        # depends on the features, so the CAM gradient vanishes everywhere
        model.params["classifier.fc1.weight"].data[...] = 0
        model.params["classifier.fc1.bias"].data[...] = 1.0
        cam = grad_cam(model, random_volume(), target_class=1)
        assert cam.degenerate
        assert np.all(cam.values == 0)

    def test_head_scale_covariance(self):
        model_a = toy_model(seed=5)
        model_b = toy_model(seed=5)
        model_b.params["classifier.fc3.weight"].data[:, 1] *= 4.0
        model_b.params["classifier.fc3.bias"].data[1] *= 4.0
        vol = random_volume(seed=6)
        cam_a = grad_cam(model_a, vol, target_class=1)
        cam_b = grad_cam(model_b, vol, target_class=1)
        np.testing.assert_allclose(cam_a.values, cam_b.values, atol=1e-6)

    def test_deterministic(self):
        model = toy_model(seed=7)
        vol = random_volume(seed=8)
        a = grad_cam(model, vol, 1)
        b = grad_cam(model, vol, 1)
        np.testing.assert_array_equal(a.values, b.values)

    def test_eval_purity(self):
        model = toy_model(seed=9)
        before = [(role, name, a.copy()) for role, name, a in model.state_arrays()]
        grad_cam(model, random_volume(seed=10), 1)
        after = model.state_arrays()
        assert [k[:2] for k in before] == [k[:2] for k in after]
        for (role, name, a), (_, _, b) in zip(before, after):
            np.testing.assert_array_equal(a, b, err_msg=f"{role} {name}")

    def test_wrong_extent(self):
        with pytest.raises(DataError, match=r"input extent \(12, 12, 12\) matches neither"):
            grad_cam(toy_model(), random_volume(extent=12), 1)

    def test_full_resolution_input_maps_to_model_grid(self):
        cam = grad_cam(toy_model(), random_volume(extent=32, seed=11), 1)
        assert cam.extents == (16, 16, 16)

    def test_halved_scan_cam_covers_the_scan(self, tmp_path):
        # a 32^3 scan at 1 mm with its origin at (-10, 20, 5), through a 16^3 model
        transform = np.eye(4)
        transform[:3, 3] = (-10.0, 20.0, 5.0)
        volume = random_volume(extent=32, seed=11)
        volume.world_transform = transform
        cam = grad_cam(toy_model(), volume, 1)
        assert cam.voxel_size == (2.0, 2.0, 2.0)
        # CAM voxel i lies at the centre of scan voxels 2i and 2i + 1
        np.testing.assert_array_equal(cam.world_transform @ [0, 0, 0, 1], [-9.5, 20.5, 5.5, 1])
        np.testing.assert_array_equal(cam.world_transform @ [15, 15, 15, 1],
                                      transform @ [30.5, 30.5, 30.5, 1])
        export_cam(cam, tmp_path / "cam.nii")
        back = load_volume(tmp_path / "cam.nii")
        assert back.voxel_size == (2.0, 2.0, 2.0)
        np.testing.assert_array_equal(back.world_transform, cam.world_transform)
        # a scan without a sform lies where the NIfTI writer puts it: diag(voxel size)
        bare = grad_cam(toy_model(), random_volume(extent=32, seed=11), 1)
        np.testing.assert_array_equal(bare.world_transform @ [0, 0, 0, 1], [0.5, 0.5, 0.5, 1])

    def test_model_grid_scan_cam_keeps_the_scan_geometry(self, tmp_path):
        transform = np.diag([1.5, 1.0, 2.0, 1.0])
        transform[:3, 3] = (-10.0, 20.0, 5.0)
        volume = random_volume(extent=16, seed=12)
        volume.voxel_size, volume.world_transform = (1.5, 1.0, 2.0), transform
        cam = grad_cam(toy_model(), volume, 1)
        assert cam.voxel_size == volume.voxel_size
        np.testing.assert_array_equal(cam.world_transform, transform)
        save_volume(volume, tmp_path / "scan.nii")
        export_cam(cam, tmp_path / "cam.nii")
        scan_header, cam_header = ((tmp_path / name).read_bytes()[:352]
                                   for name in ("scan.nii", "cam.nii"))
        assert cam_header == scan_header  # pixdim and sform included


class TestSourceLayer:
    """The CAM source is the deepest block ReLU whose map is at least 6^3."""

    def test_default_config_reads_block5(self):
        model = build_model(ModelConfig(), seed=0)
        assert model.feature_layer == "block5.relu2"
        x = Tensor(np.random.default_rng(0).random((1, 1, 96, 96, 96),
                                                   dtype=np.float32))
        assert model.run(x, "eval", 0, source_stop(model)).shape == (1, 512, 6, 6, 6)

    def test_acceptance_extent_reads_block4(self):
        # the end-to-end acceptance model: at 48^3 block 5 is only 3^3
        model = build_model(ModelConfig(input_extent=48, width_scale=1 / 8, se_ratio=4,
                                        classifier_dims=(128, 16)), seed=0)
        assert model.feature_layer == "block4.relu2"
        vol = random_volume(extent=48, seed=21)
        x = Tensor(vol.data[None, None])
        assert model.run(x, "eval", 0, source_stop(model)).shape[2:] == (6, 6, 6)
        assert grad_cam(model, vol, 1).source_layer == model.feature_layer


class TestResampling:
    def test_upsample_then_block_average_correlates_on_random_models(self):
        checked = 0
        for seed in range(6):
            model = toy_model(seed=seed, input_extent=48)
            vol = random_volume(extent=48, seed=seed + 99)
            # reconstruct the raw map independently of grad_cam internals
            x = Tensor(vol.data[None, None].astype(model.dtype))
            tape = Tape()
            stop = source_stop(model)
            features = model.run(x, "eval", 0, stop, tape=tape)
            score = ops.take(model.run(features, "eval", stop, -1, tape=tape), (0, 1),
                             tape=tape)
            backward(tape, score, [features])
            w = features.grad[0].mean(axis=(1, 2, 3), dtype=np.float64)
            raw = np.maximum(
                np.tensordot(w, features.data[0].astype(np.float64),
                             axes=(0, 0)), 0)
            if raw.max() <= raw.min():
                continue  # ReLU killed this random model's map
            up = trilinear_resize(raw, (48, 48, 48))
            back = block_average(up, raw.shape)
            r = np.corrcoef(raw.reshape(-1), back.reshape(-1))[0, 1]
            assert r > 0.95
            checked += 1
        assert checked >= 3

    def test_resize_constant(self):
        out = trilinear_resize(np.full((4, 4, 4), 2.5), (12, 12, 12))
        np.testing.assert_allclose(out, 2.5, atol=1e-12)

    def test_resize_identity_shape(self):
        rng = np.random.default_rng(13)
        data = rng.random((5, 5, 5))
        np.testing.assert_allclose(trilinear_resize(data, (5, 5, 5)), data, atol=1e-12)


class TestAverageCam:
    def _cam(self, values):
        return CamVolume(values=np.asarray(values, dtype=np.float32),
                         source_layer="block5.relu2", target_class=1,
                         norm_min=0.0, norm_max=1.0)

    def test_single_map_unchanged(self):
        rng = np.random.default_rng(14)
        cam = self._cam(rng.random((4, 4, 4)))
        # single-map average: values survive the re-normalization of an
        # already-normalized map up to the recorded min/max
        out = average_cam([cam])
        rescaled = (cam.values - cam.values.min()) / (cam.values.max() - cam.values.min())
        np.testing.assert_allclose(out.values, rescaled, atol=1e-6)

    def test_map_plus_complement_is_constant_half(self):
        rng = np.random.default_rng(15)
        values = rng.random((4, 4, 4)).astype(np.float32)
        out = average_cam([self._cam(values), self._cam(1 - values)])
        # pre-normalization mean is 0.5 everywhere (up to float32 rounding),
        # visible through the recorded normalization bounds
        assert out.norm_min == pytest.approx(0.5, abs=1e-6)
        assert out.norm_max == pytest.approx(0.5, abs=1e-6)

    def test_five_maps_match_independent_mean(self):
        rng = np.random.default_rng(16)
        maps = [rng.random((4, 4, 4)).astype(np.float32) for _ in range(5)]
        out = average_cam([self._cam(m) for m in maps])
        mean = sum(m.astype(np.float64) for m in maps) / 5
        expected = (mean - mean.min()) / (mean.max() - mean.min())
        np.testing.assert_allclose(out.values, expected, atol=1e-6)

    def test_streamed_maps_match_stacked_mean_bytes(self):
        rng = np.random.default_rng(21)
        maps = [rng.random((6, 6, 6)).astype(np.float32) for _ in range(7)]
        out = average_cam(self._cam(m) for m in maps)  # a generator: one map at a time
        mean = np.mean(maps, axis=0, dtype=np.float64)
        expected = ((mean - mean.min()) / (mean.max() - mean.min())).astype(np.float32)
        np.testing.assert_array_equal(out.values, expected)
        assert (out.norm_min, out.norm_max) == (mean.min(), mean.max())

    def test_errors(self):
        with pytest.raises(DataError, match="need at least one CAM to average"):
            average_cam([])
        with pytest.raises(DataError, match="CAM extents differ"):
            average_cam([self._cam(np.zeros((4, 4, 4))),
                         self._cam(np.zeros((5, 5, 5)))])


class TestThresholdAndLocalization:
    def _cam(self, values):
        return CamVolume(values=np.asarray(values, dtype=np.float32),
                         source_layer="block5.relu2", target_class=1,
                         norm_min=0.0, norm_max=1.0)

    def test_threshold_zero_all_true(self):
        cam = self._cam(np.random.default_rng(17).random((3, 3, 3)))
        assert threshold_cam(cam, 0.0).all()

    def test_threshold_one_keeps_max_only(self):
        values = np.zeros((3, 3, 3))
        values[1, 1, 1] = 1.0
        mask = threshold_cam(self._cam(values), 1.0)
        assert mask.sum() == 1 and mask[1, 1, 1]
        with pytest.raises(ValueError):
            threshold_cam(self._cam(values), 1.5)

    def test_counted_fixture(self):
        values = np.zeros((4, 4, 4))
        values.reshape(-1)[:10] = 0.9
        assert threshold_cam(self._cam(values), 0.85).sum() == 10

    def test_localization_whole_volume_roi(self):
        cam = self._cam(np.random.default_rng(18).random((4, 4, 4)))
        assert localization_score(cam, np.ones((4, 4, 4), dtype=bool), 0.5) == 1.0

    def test_localization_disjoint_roi(self):
        values = np.zeros((4, 4, 4))
        values[0, 0, 0] = 1.0
        roi = np.zeros((4, 4, 4), dtype=bool)
        roi[3, 3, 3] = True
        assert localization_score(self._cam(values), roi, 0.85) == 0.0

    def test_localization_fraction(self):
        values = np.zeros((4, 4, 4))
        values.reshape(-1)[:8] = 1.0
        roi = np.zeros((4, 4, 4), dtype=bool)
        roi.reshape(-1)[:6] = True
        assert localization_score(self._cam(values), roi, 0.85) == 0.75

    def test_localization_shape_mismatch(self):
        with pytest.raises(DataError, match="ROI shape"):
            localization_score(self._cam(np.zeros((4, 4, 4))),
                               np.ones((5, 5, 5), dtype=bool))


class TestExport:
    def test_nifti_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        cam = CamVolume(values=rng.random((8, 8, 8)).astype(np.float32),
                        source_layer="block5.relu2", target_class=1,
                        norm_min=0.0, norm_max=3.0, voxel_size=(2.0, 2.0, 2.0))
        path = tmp_path / "cam.nii"
        export_cam(cam, path)
        back = load_volume(path)
        np.testing.assert_array_equal(back.data, cam.values)
        assert back.extents == cam.extents
        assert back.data.min() >= 0.0 and back.data.max() <= 1.0

    def test_mid_slices_written(self, tmp_path):
        rng = np.random.default_rng(20)
        paths = write_mid_slices(rng.random((6, 6, 6)), tmp_path, "cam")
        assert len(paths) == 3
        for p in paths:
            blob = p.read_bytes()
            assert blob.startswith(b"P5\n6 6\n255\n")
            assert len(blob) == len(b"P5\n6 6\n255\n") + 36
