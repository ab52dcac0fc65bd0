"""Architecture assembly, SE gating, and forward-pass contracts."""

from collections import Counter

import numpy as np
import pytest

from szdl import ops
from szdl.errors import DataError
from szdl.model import (
    Model,
    ModelConfig,
    build_model,
    se_block,
)
from szdl.nifti import Volume
from szdl.tensor import Tape, Tensor, backward

from oracles import block_shapes, parameter_count, predict_likelihood


def toy_config(extent=16, **overrides):
    base = dict(input_extent=extent, width_scale=1 / 8, se_ratio=4,
                classifier_dims=(8, 4), dropout_p=0.5)
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_default_validates(self):
        ModelConfig().validate()

    def test_indivisible_se_ratio(self):
        with pytest.raises(ValueError, match="se_ratio 7 does not divide"):
            ModelConfig(se_ratio=7).validate()

    def test_bad_input_extent(self):
        with pytest.raises(ValueError, match="input_extent 24 must be a positive multiple"):
            ModelConfig(input_extent=24).validate()

    def test_round_trip_dict(self):
        cfg = toy_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig.from_dict({"input_extent": 96, "bogus": 1})


class TestStructure:
    def test_default_block_extents(self):
        # the extents depend on input_extent alone: 96, the default, at a toy width
        model = build_model(toy_config(extent=96), seed=0)
        x = Tensor(np.zeros((1, 1, 96, 96, 96), dtype=np.float32))
        assert [shape[2] for shape in block_shapes(model, x)] == [48, 24, 12, 6, 6]

    def test_layer_inventory(self):
        model = build_model(ModelConfig(), seed=0)
        counts = Counter(layer.kind for layer in model.layers)
        assert counts["conv"] == 8
        assert counts["bn"] == 8
        assert counts["se"] == 8
        assert counts["pool"] == 4
        assert counts["dense"] == 3
        assert counts["dropout"] == 2
        assert counts["sigmoid"] == 1
        assert counts["softmax"] == 1
        assert model.layers[0].kind == "downsample"

    def test_conv_unit_order(self):
        model = build_model(toy_config(), seed=0)
        kinds = [l.kind for l in model.layers[1:5]]
        assert kinds == ["conv", "bn", "se", "relu"]

    def test_classifier_order(self):
        model = build_model(ModelConfig(), seed=0)
        tail = [l.kind for l in model.layers if l.name.startswith("classifier")]
        assert tail == ["flatten", "dropout", "dense", "relu", "dropout", "dense",
                        "sigmoid", "dense", "softmax"]

    def test_parameter_count_closed_form(self):
        cfg = toy_config()
        model = build_model(cfg, seed=0)
        channels = cfg.scaled_channels()
        r = cfg.se_ratio
        expected = 0
        cin = 1
        for c in channels:
            expected += c * cin * 27 + c        # conv
            expected += 2 * c                   # bn
            expected += 2 * c * c // r + c // r + c  # se bottleneck
            cin = c
        flat = channels[-1] * (cfg.input_extent // 2 ** 4) ** 3  # after four 2x pools
        h1, h2 = cfg.classifier_dims
        expected += flat * h1 + h1 + h1 * h2 + h2 + h2 * 2 + 2
        assert parameter_count(model) == expected

    def test_unique_parameter_names(self):
        model = build_model(toy_config(), seed=0)
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))
        assert all(model.params[n].name == n for n in model.params)


class TestSEBlock:
    def _params(self, c, ratio, bias2=0.0):
        hidden = c // ratio
        return (Tensor(np.zeros((c, hidden))), Tensor(np.zeros(hidden)),
                Tensor(np.zeros((hidden, c))), Tensor(np.full(c, bias2)))

    def test_zero_input_zero_output(self):
        x = Tensor(np.zeros((1, 4, 2, 2, 2)))
        out = se_block(x, *self._params(4, 2))
        assert np.all(out.data == 0)

    def test_saturated_gate_passes_input(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 4, 2, 2, 2)))
        out = se_block(x, *self._params(4, 2, bias2=20.0))
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_neutral_gate_halves_input(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 4, 2, 2, 2)))
        out = se_block(x, *self._params(4, 2, bias2=0.0))
        np.testing.assert_allclose(out.data, x.data / 2, atol=1e-12)

    def test_gates_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        model = build_model(toy_config(), seed=3)
        x = Tensor(rng.standard_normal((1, 32, 4, 4, 4)).astype(np.float32))
        params = {k: model.params["block3.se1." + k]  # 32-channel layer at 1/8 width
                  for k in ("fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias")}
        gate_in = ops.dense(ops.relu(ops.dense(ops.global_avg_pool(x),
                                               params["fc1.weight"], params["fc1.bias"])),
                            params["fc2.weight"], params["fc2.bias"])
        gate = ops.sigmoid(gate_in)
        assert np.all(gate.data > 0) and np.all(gate.data < 1)


class TestForward:
    def test_rows_sum_to_one(self):
        model = build_model(toy_config(), seed=1)
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((2, 1, 16, 16, 16)).astype(np.float32))
        probs = model.apply(x, mode="eval").probs
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs.data >= 0) and np.all(probs.data <= 1)

    def test_final_feature_map_shape_default(self):
        model = build_model(ModelConfig(), seed=0)
        rng = np.random.default_rng(1)
        x = Tensor(rng.random((1, 1, 96, 96, 96)).astype(np.float32))
        assert block_shapes(model, x)[-1] == (1, 512, 6, 6, 6)

    def test_full_resolution_input_downsampled(self):
        model = build_model(toy_config(), seed=1)
        rng = np.random.default_rng(2)
        x32 = rng.random((1, 1, 32, 32, 32)).astype(np.float32)
        probs_full = model.apply(Tensor(x32), mode="eval").probs
        x16 = ops.downsample2x(Tensor(x32)).data
        probs_pre = model.apply(Tensor(x16), mode="eval").probs
        np.testing.assert_allclose(probs_full.data, probs_pre.data, atol=1e-6)

    def test_eval_deterministic(self):
        model = build_model(toy_config(), seed=1)
        rng = np.random.default_rng(3)
        x = Tensor(rng.random((2, 1, 16, 16, 16)).astype(np.float32))
        a = model.apply(x, mode="eval").probs
        b = model.apply(x, mode="eval").probs
        np.testing.assert_array_equal(a.data, b.data)

    def test_untaped_eval_equals_taped_eval_bytes(self):
        # value-only pooling, xhat-free BN, in-place SE gating and the conv GEMM
        # written into its output, against the taped kernels, on non-trivial BN
        model = build_model(ModelConfig(input_extent=48, width_scale=1 / 8, se_ratio=4), seed=0)
        rng = np.random.default_rng(9)
        for name, state in model.bn_states.items():
            c = state.mean.shape
            state.mean[...] = rng.normal(0.0, 0.1, c)
            state.var[...] = rng.uniform(0.5, 2.0, c)
            model.params[name + ".gamma"].data[...] = rng.uniform(0.5, 1.5, c)
            model.params[name + ".beta"].data[...] = rng.normal(0.0, 0.1, c)
        x = rng.random((2, 1, 48, 48, 48), dtype=np.float32)
        fast = model.apply(Tensor(x.copy()), mode="eval")
        taped = model.apply(Tensor(x.copy()), mode="eval", tape=Tape())
        assert fast.logits.data.tobytes() == taped.logits.data.tobytes()
        assert fast.probs.data.tobytes() == taped.probs.data.tobytes()

    def test_eval_mutates_nothing(self):
        model = build_model(toy_config(), seed=1)
        before = [(role, name, a.copy()) for role, name, a in model.state_arrays()]
        rng = np.random.default_rng(4)
        x = Tensor(rng.random((2, 1, 16, 16, 16)).astype(np.float32))
        model.apply(x, mode="eval")
        after = model.state_arrays()
        assert [k[:2] for k in before] == [k[:2] for k in after]
        for (role, name, a), (_, _, b) in zip(before, after):
            np.testing.assert_array_equal(a, b, err_msg=f"{role} {name}")

    def test_train_mode_updates_bn(self):
        model = build_model(toy_config(), seed=1)
        rng = np.random.default_rng(5)
        x = Tensor(rng.random((2, 1, 16, 16, 16)).astype(np.float32))
        model.apply(x, mode="train", rng=np.random.default_rng(0))
        assert not np.all(model.bn_states["block1.bn1"].mean == 0)

    def test_wrong_extent_rejected(self):
        model = build_model(toy_config(), seed=1)
        with pytest.raises(DataError, match=r"input extent \(20, 20, 20\) matches neither"):
            model.apply(Tensor(np.zeros((1, 1, 20, 20, 20), dtype=np.float32)))

    def test_gradient_flow_every_layer(self):
        model = build_model(toy_config(dropout_p=0.0), seed=2, dtype=np.float64)
        rng = np.random.default_rng(6)
        x = Tensor(rng.random((2, 1, 16, 16, 16)))
        tape = Tape()
        result = model.apply(x, mode="train", tape=tape)
        loss = ops.cross_entropy(result.logits, np.array([0, 1]), tape=tape)
        model.zero_grad()
        backward(tape, loss)
        by_layer: dict[str, list] = {}
        for p in model.parameters():
            assert np.all(np.isfinite(p.grad)), p.name
            layer = p.name.rsplit(".", 1)[0]
            by_layer.setdefault(layer, []).append(np.abs(p.grad).max())
        for layer, peaks in by_layer.items():
            assert max(peaks) > 0, f"no gradient reached {layer}"


class TestPredictLikelihood:
    def test_zero_classifier_gives_half(self):
        model = build_model(toy_config(), seed=1)
        for name in ("classifier.fc3.weight", "classifier.fc3.bias"):
            model.params[name].data[...] = 0
        vol = Volume(np.random.default_rng(0).random((16, 16, 16), dtype=np.float32))
        assert predict_likelihood(model, vol) == pytest.approx(0.5, abs=1e-6)

    def test_two_class_probabilities_sum_to_one(self):
        model = build_model(toy_config(), seed=2)
        vol = Volume(np.random.default_rng(1).random((16, 16, 16), dtype=np.float32))
        p1 = predict_likelihood(model, vol)
        probs = model.apply(Tensor(vol.data[None, None]), mode="eval").probs
        assert p1 + float(probs.data[0, 0]) == pytest.approx(1.0, abs=1e-6)

    def test_extent_mismatch(self):
        model = build_model(toy_config(), seed=2)
        with pytest.raises(DataError, match=r"volume extents \(20, 20, 20\) match neither"):
            predict_likelihood(model, Volume(np.zeros((20, 20, 20), dtype=np.float32)))

