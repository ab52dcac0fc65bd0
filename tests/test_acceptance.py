"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.  Criteria 7, 8 and 10 train real models on
synthetic phantoms and dominate the runtime.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from szdl import ops
from szdl.augment import (
    AugmentSpec,
    affine_resample,
    apply_plan,
    bias_field,
    blur,
    add_noise,
    elastic_deform,
    motion_artifact,
    plan_pipeline,
)
from szdl.evalstats import ScoredSet, auc, delong_test
from szdl.gradcam import average_cam, grad_cam
from szdl.manifest import assign_splits
from szdl.model import Model, ModelConfig, build_model
from szdl.nifti import Volume, load_volume, parse_nifti, write_nifti
from szdl.phantom import PhantomSpec, cavity_roi, synthesize_dataset
from szdl.tensor import Parameter, Tape, Tensor, backward
from szdl.train import (
    AdamState,
    TrainConfig,
    adam_step,
    fit,
    load_checkpoint,
    run_generalization,
    save_checkpoint,
    score_records,
)

from oracles import (
    activation,
    auc_pair_count,
    backward_along,
    block_shapes,
    conv3d_loops,
    localization_score,
    matmul_loops,
    mean_loops,
)

pytestmark = pytest.mark.slow


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:2d}] FAIL ({time.time() - start:6.1f}s) {description}")
        raise
    print(f"\n[criterion {number:2d}] PASS ({time.time() - start:6.1f}s) {description}")


# ---------------------------------------------------------------------------
# criterion 7/8 shared pipeline: synth 200/class at 48^3, train <= 60 epochs


END_TO_END_SPEC = PhantomSpec(size=48, effect_size=0.5, noise_std=0.05, seed=2024)

END_TO_END_MODEL = ModelConfig(input_extent=48, width_scale=1 / 8, se_ratio=4,
                               classifier_dims=(128, 16))

END_TO_END_TRAIN = TrainConfig(model=END_TO_END_MODEL, learning_rate=1e-4,
                               batch_size=5, max_epochs=8, patience=4,
                               seed=2024, augment=False)


@pytest.fixture(scope="module")
def phantom_run(tmp_path_factory):
    """One end-to-end pipeline shared by criteria 7, 8 and 9."""
    root = tmp_path_factory.mktemp("acceptance")
    records = synthesize_dataset(root, 200, END_TO_END_SPEC)
    records = assign_splits(records, ratios=(8, 1, 1), seed=2024)
    start = time.time()
    model, adam, history = fit(END_TO_END_TRAIN, records, data_root=root)
    elapsed = time.time() - start
    test = [r for r in records if r.split == "test"]
    scored = score_records(model, test, data_root=root)
    return {"root": root, "records": records, "model": model, "adam": adam,
            "history": history, "test": test, "scored": scored,
            "train_seconds": elapsed}


class TestCriterion1KernelOracles:
    def test_kernel_oracles(self):
        with criterion(1, "conv3d/dense/global_avg_pool match brute force on "
                          ">=200 shapes at 1e-12 (64-bit)"):
            start = time.time()
            rng = np.random.default_rng(101)
            for _ in range(200):
                n = int(rng.integers(1, 3))
                cin = int(rng.integers(1, 4))
                cout = int(rng.integers(1, 4))
                d, h, w = (int(rng.integers(3, 6)) for _ in range(3))
                x = rng.standard_normal((n, cin, d, h, w))
                k = rng.standard_normal((cout, cin, 3, 3, 3))
                b = rng.standard_normal(cout)
                got = ops.conv3d(Tensor(x), Tensor(k), Tensor(b)).data
                assert np.abs(got - conv3d_loops(x, k, b)).max() < 1e-12
            for _ in range(200):
                n, f, o = (int(rng.integers(1, 8)) for _ in range(3))
                x = rng.standard_normal((n, f))
                wmat = rng.standard_normal((f, o))
                b = rng.standard_normal(o)
                got = ops.dense(Tensor(x), Tensor(wmat), Tensor(b)).data
                assert np.abs(got - matmul_loops(x, wmat, b)).max() < 1e-12
            for _ in range(200):
                n, c = (int(rng.integers(1, 4)) for _ in range(2))
                d, h, w = (int(rng.integers(2, 6)) for _ in range(3))
                x = rng.standard_normal((n, c, d, h, w))
                got = ops.global_avg_pool(Tensor(x)).data
                assert np.abs(got - mean_loops(x)).max() < 1e-12
            assert time.time() - start < 60


def _fd_probe(loss_fn, value: np.ndarray, grad: np.ndarray, rng,
              n_coords: int, step=1e-5, rel_tol=1e-4, abs_tol=1e-8) -> None:
    flat = value.reshape(-1)
    gflat = grad.reshape(-1)
    for i in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
        i = int(i)
        orig = flat[i]
        flat[i] = orig + step
        up = loss_fn()
        flat[i] = orig - step
        down = loss_fn()
        flat[i] = orig
        numeric = (up - down) / (2 * step)
        analytic = gflat[i]
        err = abs(numeric - analytic)
        assert err < abs_tol or err / max(abs(numeric), abs(analytic)) < rel_tol, (
            f"coordinate {i}: numeric {numeric:.8g} vs analytic {analytic:.8g}")


class TestCriterion2GradientSuite:
    def test_gradient_suite(self):
        with criterion(2, "all layers, the SE block and the toy SE-VGG pass "
                          "finite differences at rel err < 1e-4 (64-bit)"):
            start = time.time()
            rng = np.random.default_rng(202)
            self._per_op_checks(rng)
            self._se_block_check(rng)
            self._full_model_check(rng)
            assert time.time() - start < 300

    def _run_op(self, make_output, tensors, rng, direction):
        tape = Tape()
        out = make_output(tape)
        for t in tensors:
            t.grad = None
        backward_along(tape, out, direction)

        def loss():
            return float((make_output(None).data * direction).sum())

        for t in tensors:
            _fd_probe(loss, t.data, t.grad, rng, n_coords=100)

    def _per_op_checks(self, rng):
        def leaf(*shape):
            return Parameter("leaf", rng.standard_normal(shape), dtype=np.float64)

        x = leaf(2, 2, 4, 4, 4)
        w = leaf(3, 2, 3, 3, 3)
        b = leaf(3)
        direction = rng.standard_normal((2, 3, 4, 4, 4))
        self._run_op(lambda tape: ops.conv3d(x, w, b, tape=tape), [x, w, b],
                     rng, direction)

        x = leaf(1, 2, 4, 4, 4)
        direction = rng.standard_normal((1, 2, 2, 2, 2))
        self._run_op(lambda tape: ops.maxpool3d(x, tape=tape), [x], rng, direction)

        x = leaf(3, 2, 3, 3, 3)
        gamma, beta = leaf(2), leaf(2)
        direction = rng.standard_normal(x.shape)
        self._run_op(
            lambda tape: ops.batchnorm3d(x, gamma, beta, "train",
                                         ops.BNState(np.zeros(2), np.ones(2)),
                                         tape=tape),
            [x, gamma, beta], rng, direction)

        x = leaf(2, 3, 3, 3, 3)
        direction = rng.standard_normal((2, 3))
        self._run_op(lambda tape: ops.global_avg_pool(x, tape=tape), [x], rng, direction)

        x, w, b = leaf(4, 6), leaf(6, 5), leaf(5)
        direction = rng.standard_normal((4, 5))
        self._run_op(lambda tape: ops.dense(x, w, b, tape=tape), [x, w, b],
                     rng, direction)

        for kind in ("relu", "sigmoid", "softmax"):
            x = leaf(5, 7)
            direction = rng.standard_normal((5, 7))
            self._run_op(lambda tape, k=kind: activation(x, k, tape=tape),
                         [x], rng, direction)

        x = leaf(11, 11)
        direction = rng.standard_normal((11, 11))
        self._run_op(
            lambda tape: ops.dropout(x, 0.4, "train", np.random.default_rng(7),
                                     tape=tape),
            [x], rng, direction)

        x = leaf(8, 2)
        labels = np.array([0, 1] * 4)
        self._run_op(lambda tape: ops.cross_entropy(x, labels, tape=tape), [x],
                     rng, np.float64(1.0))

        x = leaf(1, 1, 4, 4, 4)
        direction = rng.standard_normal((1, 1, 2, 2, 2))
        self._run_op(lambda tape: ops.downsample2x(x, tape=tape), [x], rng, direction)

    def _se_block_check(self, rng):
        from szdl.model import se_block

        def leaf(*shape):
            return Parameter("leaf", rng.standard_normal(shape), dtype=np.float64)

        x = leaf(2, 4, 3, 3, 3)
        params = [leaf(4, 2), leaf(2), leaf(2, 4), leaf(4)]
        tensors = [x, *params]
        direction = rng.standard_normal(x.shape)
        self._run_op(lambda tape: se_block(x, *params, tape=tape),
                     tensors, rng, direction)

    def _full_model_check(self, _shared_rng):
        # dedicated streams keep this deterministic: central differences sit a
        # hair's breadth from ReLU/argmax kinks, so the fixture is pinned to
        # seeds whose sampled coordinates are all kink-free
        rng = np.random.default_rng(999)
        config = ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                             classifier_dims=(8, 4), dropout_p=0.0)
        model = build_model(config, seed=11, dtype=np.float64)
        x = Tensor(rng.random((2, 1, 16, 16, 16)))
        labels = np.array([0, 1])

        tape = Tape()
        result = model.apply(x, mode="train", tape=tape)
        loss = ops.cross_entropy(result.logits, labels, tape=tape)
        model.zero_grad()
        backward(tape, loss)

        def loss_value():
            # train-mode loss depends only on batch statistics, so the
            # running-stat drift these evaluations cause is irrelevant
            out = model.apply(x, mode="train")
            return ops.cross_entropy(out.logits, labels).item()

        layers: dict[str, list[Parameter]] = {}
        for p in model.parameters():
            for layer in (l.name for l in model.layers if l.kind in
                          ("conv", "bn", "se", "dense")):
                if p.name.startswith(layer + "."):
                    layers.setdefault(layer, []).append(p)
                    break

        assert len(layers) == 27  # 8 conv + 8 bn + 8 se + 3 dense
        probe_rng = np.random.default_rng(5)
        for layer, params in layers.items():
            checked = 0
            for p in params:
                _fd_probe(loss_value, p.data, p.grad, probe_rng, n_coords=100)
                checked += min(100, p.data.size)
            assert checked >= min(100, sum(p.data.size for p in params))


class TestCriterion3ArchitectureShape:
    def test_architecture_shape(self):
        with criterion(3, "default config: final conv map [N,512,6,6,6]; "
                          "8 conv / 4 pool / 3 dense / 2 dropout"):
            model = build_model(ModelConfig(), seed=0)
            counts = Counter(layer.kind for layer in model.layers)
            assert counts["conv"] == 8
            assert counts["pool"] == 4
            assert counts["dense"] == 3
            assert counts["dropout"] == 2
            x = Tensor(np.random.default_rng(0).random((1, 1, 96, 96, 96),
                                                       dtype=np.float32))
            shapes = block_shapes(model, x)
            assert [shape[2] for shape in shapes] == [48, 24, 12, 6, 6]
            assert shapes[-1] == (1, 512, 6, 6, 6)


class TestCriterion4Adam:
    def test_adam(self):
        with criterion(4, "hand-derived Adam step matches to 1e-10; zero "
                          "gradients never move parameters"):
            lr = 1e-4
            p = Parameter("theta", np.array([0.25]))
            state = AdamState.for_params([p])
            adam_step([p], [np.ones(1)], state, lr=lr)
            expected = 0.25 - lr * 1.0 / (1.0 + state.eps)
            assert abs(p.data[0] - expected) < 1e-10

            q = Parameter("phi", np.array([1.5, -2.5]))
            state = AdamState.for_params([q])
            for _ in range(5):
                adam_step([q], [np.zeros(2)], state, lr=0.1)
            np.testing.assert_array_equal(q.data, [1.5, -2.5])


class TestCriterion5Statistics:
    def test_statistics(self):
        with criterion(5, "AUC pair-count parity on 500 sets; hand DeLong at "
                          "1e-12; identical p=1; null p-values KS-uniform"):
            start = time.time()
            rng = np.random.default_rng(505)
            checked = 0
            while checked < 500:
                n = int(rng.integers(6, 24))
                scores = np.round(rng.random(n), 1)  # coarse grid forces ties
                labels = rng.integers(0, 2, n)
                if labels.min() == labels.max():
                    continue
                s = ScoredSet(scores, labels)
                assert abs(auc(s) - auc_pair_count(scores, labels)) < 1e-12
                checked += 1

            labels = np.array([1, 1, 1, 0, 0])
            a = np.array([0.9, 0.6, 0.3, 0.5, 0.2])
            b = np.array([0.8, 0.65, 0.7, 0.6, 0.1])
            r = delong_test(a, b, labels)
            assert abs(r.auc_a - 5 / 6) < 1e-12
            assert abs(r.auc_b - 1.0) < 1e-12
            assert abs(r.variance - 1 / 18) < 1e-12
            assert abs(r.z - (-1 / math.sqrt(2))) < 1e-12
            assert abs(r.p_value - math.erfc(0.5)) < 1e-12

            same = delong_test(a, a, labels)
            assert same.p_value == 1.0

            sim_labels = np.r_[np.ones(50, dtype=int), np.zeros(50, dtype=int)]
            sim_rng = np.random.default_rng(42)
            pvals = []
            for _ in range(2000):
                base = 0.8 * sim_labels + sim_rng.standard_normal(100)
                sa = base + 0.7 * sim_rng.standard_normal(100)
                sb = base + 0.7 * sim_rng.standard_normal(100)
                pvals.append(delong_test(sa, sb, sim_labels).p_value)
            ks = stats.kstest(pvals, "uniform")
            assert ks.pvalue > 0.01
            assert time.time() - start < 120


class TestCriterion6Augmentation:
    def test_augmentation(self):
        with criterion(6, "neutral transforms are identity; 10^4 applications "
                          "at 32^3 hit the stated probabilities"):
            start = time.time()
            rng = np.random.default_rng(606)
            vol = Volume(rng.random((32, 32, 32), dtype=np.float32))

            np.testing.assert_array_equal(blur(vol, 0.0).data, vol.data)
            np.testing.assert_array_equal(
                add_noise(vol, 0.0, np.random.default_rng(0)).data, vol.data)
            np.testing.assert_array_equal(affine_resample(vol).data, vol.data)
            np.testing.assert_array_equal(
                elastic_deform(vol, np.zeros((5, 5, 5, 3))).data, vol.data)
            np.testing.assert_array_equal(
                bias_field(vol, np.zeros(20)).data, vol.data)
            np.testing.assert_allclose(
                motion_artifact(vol, [{"rotation_deg": (0, 0, 0),
                                       "translation_mm": (0, 0, 0)}]).data,
                vol.data, atol=1e-4)

            spec = AugmentSpec()
            draw_rng = np.random.default_rng(99)
            n = 10_000
            counts = {"blur": 0, "noise": 0, "spatial": 0, "bias": 0, "motion": 0}
            for _ in range(n):
                plan = plan_pipeline(spec, draw_rng)
                names = [name for name, _ in plan]
                assert not ("affine" in names and "elastic" in names)
                for name in names:
                    counts["spatial" if name in ("affine", "elastic") else name] += 1
                apply_plan(vol, plan)

            z = stats.norm.ppf(1 - 0.001 / 2)  # 99.9% two-sided interval
            for key, p in (("blur", 0.1), ("noise", 0.6), ("spatial", 0.2),
                           ("bias", 0.1), ("motion", 0.05)):
                half = z * math.sqrt(p * (1 - p) / n)
                frequency = counts[key] / n
                assert p - half <= frequency <= p + half, (
                    f"{key}: {frequency:.4f} outside {p}±{half:.4f}")
            elapsed = time.time() - start
            print(f"\n    augmentation: {n} draws in {elapsed:.0f}s, "
                  f"frequencies {({k: round(v / n, 4) for k, v in counts.items()})}")
            assert elapsed < 300


class TestCriterion7EndToEnd:
    def test_end_to_end_phantom_run(self, phantom_run):
        with criterion(7, "synth 200/class at 48^3, 8:1:1, width 1/8, "
                          "<= 60 epochs: held-out test AUC >= 0.95"):
            assert END_TO_END_TRAIN.max_epochs <= 60
            test_auc = auc(phantom_run["scored"])
            history = phantom_run["history"]
            print(f"\n    trained {len(history.records)} epochs "
                  f"({history.stop_reason}) in {phantom_run['train_seconds']:.0f}s; "
                  f"test AUC {test_auc:.4f} over {len(phantom_run['test'])} scans")
            assert test_auc >= 0.95
            assert phantom_run["train_seconds"] < 1800


class TestCriterion8CamLocalization:
    def test_cam_localization(self, phantom_run):
        with criterion(8, "averaged class-1 CAM thresholded at 0.85 has "
                          "localization >= 0.5 in the dilated cavity ROI"):
            model = phantom_run["model"]
            root = phantom_run["root"]
            class1 = [r for r in phantom_run["test"] if r.label == 1]
            cams = [grad_cam(model, load_volume(root / r.scan_path), 1)
                    for r in class1]
            averaged = average_cam(cams)
            roi = cavity_roi(END_TO_END_SPEC, margin_voxels=6.0)
            score = localization_score(averaged, roi, threshold=0.85)
            print(f"\n    localization {score:.3f} over {len(cams)} subjects "
                  f"from {averaged.source_layer} (ROI fraction {roi.mean():.3f})")
            assert score >= 0.5


class TestCriterion9DeterminismPersistence:
    def test_determinism_and_persistence(self, phantom_run, tmp_path):
        with criterion(9, "identical-seed runs match bit for bit; checkpoint "
                          "and NIfTI round trips are exact"):
            # two identical-seed training runs -> bit-identical history CSVs
            rng = np.random.default_rng(909)
            root = tmp_path / "det"
            spec = PhantomSpec(size=16, effect_size=0.8, noise_std=0.02, seed=31)
            records = assign_splits(synthesize_dataset(root, 10, spec), seed=3)
            cfg = TrainConfig(
                model=ModelConfig(input_extent=16, width_scale=1 / 8, se_ratio=4,
                                  classifier_dims=(8, 4), dropout_p=0.2),
                learning_rate=1e-3, batch_size=4, max_epochs=2, patience=5,
                seed=5, augment=True)
            _, _, h1 = fit(cfg, records, data_root=root)
            _, _, h2 = fit(cfg, records, data_root=root)
            assert h1.to_csv() == h2.to_csv()

            # checkpoint round trip: bit-identical forward outputs
            model = phantom_run["model"]
            path = tmp_path / "model.ckpt"
            save_checkpoint(model, phantom_run["adam"], phantom_run["history"], path)
            loaded, _, _ = load_checkpoint(path)
            scored_again = score_records(loaded, phantom_run["test"],
                                         data_root=phantom_run["root"])
            np.testing.assert_array_equal(phantom_run["scored"].scores,
                                          scored_again.scores)

            # NIfTI write -> parse round trips, bit-exact payloads
            for _ in range(20):
                extents = tuple(int(e) for e in rng.integers(2, 10, 3))
                vol = Volume((rng.random(extents) * 7 - 3).astype(np.float32),
                             voxel_size=tuple(rng.uniform(0.2, 3.0, 3)))
                back = parse_nifti(write_nifti(vol))
                assert back.data.tobytes() == vol.data.tobytes()


class TestCriterion10Generalization:
    def test_generalization_harness(self, tmp_path):
        with criterion(10, "two-site hold-out: test records only from the "
                           "held site; held-out AUC >= 0.85"):
            spec_a = PhantomSpec(size=48, effect_size=0.5, noise_std=0.03, seed=11)
            spec_b = PhantomSpec(size=48, effect_size=0.5, noise_std=0.08, seed=22)
            rec_a = synthesize_dataset(tmp_path / "site_a", 80, spec_a,
                                       site="COBRE", subject_prefix="a")
            rec_b = synthesize_dataset(tmp_path / "site_b", 80, spec_b,
                                       site="NMorphCH", subject_prefix="b")
            records = ([replace(r, scan_path=f"site_a/{r.scan_path}") for r in rec_a]
                       + [replace(r, scan_path=f"site_b/{r.scan_path}") for r in rec_b])
            cfg = TrainConfig(model=END_TO_END_MODEL, learning_rate=1e-4,
                              batch_size=5, max_epochs=4, patience=3, seed=77,
                              augment=False)
            result = run_generalization(cfg, records, "NMorphCH",
                                        data_root=tmp_path)
            report = result["report"]
            assert all(r["site"] == "NMorphCH" for r in report["test_records"])
            assert report["n_test"] == 160
            print(f"\n    held-out AUC {report['auc']:.4f} over "
                  f"{report['n_test']} scans")
            assert report["auc"] >= 0.85
