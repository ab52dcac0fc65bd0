"""Forward-pass contracts of the tensor kernels against brute-force oracles."""

import tracemalloc

import numpy as np
import pytest

from szdl import ops
from szdl.errors import DataError
from szdl.tensor import Tape, Tensor, backward

from oracles import (activation, conv3d_loops, matmul_loops, maxpool_argmax_grad, mean_loops,
                     mul, sum_all)


class TestConv3d:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 1, 4, 4, 4)))
        w = np.zeros((1, 1, 3, 3, 3))
        w[0, 0, 1, 1, 1] = 1.0
        out = ops.conv3d(x, Tensor(w), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_kernel_counts_neighbors(self):
        c = 2.5
        x = Tensor(np.full((1, 1, 4, 4, 4), c))
        out = ops.conv3d(x, Tensor(np.ones((1, 1, 3, 3, 3))), Tensor(np.zeros(1)))
        assert out.data[0, 0, 1, 1, 1] == pytest.approx(27 * c)
        assert out.data[0, 0, 0, 0, 0] == pytest.approx(8 * c)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        b = rng.standard_normal(3)
        out = ops.conv3d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, conv3d_loops(x, w, b), atol=1e-12)

    def test_channel_mismatch_raises(self):
        with pytest.raises(DataError, match="input channels 2 != kernel channels 3"):
            ops.conv3d(Tensor(np.zeros((1, 2, 4, 4, 4))),
                       Tensor(np.zeros((1, 3, 3, 3, 3))), Tensor(np.zeros(1)))


def pool_one_block(values):
    """Max-pool one 2x2x2 block; returns the output and the local indices (0-7)
    that the backward pass routes the gradient to."""
    x = Tensor(np.asarray(values, dtype=np.float64).reshape(1, 1, 2, 2, 2))
    tape = Tape()
    out = ops.maxpool3d(x, tape=tape)
    backward(tape, out, [x])
    return out, np.flatnonzero(x.grad).tolist()


class TestMaxpool:
    def test_constant_halves_extents(self):
        out = ops.maxpool3d(Tensor(np.full((1, 1, 4, 6, 8), 3.0)))
        assert out.shape == (1, 1, 2, 3, 4)
        assert np.all(out.data == 3.0)

    def test_enumerated_block(self):
        out, routed = pool_one_block(np.arange(1.0, 9.0))
        assert out.data[0, 0, 0, 0, 0] == 8.0
        assert routed == [7]

    def test_tie_takes_lowest_linear_index(self):
        _, routed = pool_one_block(np.zeros(8))
        assert routed == [0]

    def test_odd_extent_rejected(self):
        with pytest.raises(DataError, match=r"spatial extents \(3, 4, 4\) must be even"):
            ops.maxpool3d(Tensor(np.zeros((1, 1, 3, 4, 4))))

    def test_untaped_equals_taped_bytes(self):
        # ReLU-like values from {0, 1, 2}: repeated maxima and all-zero blocks
        rng = np.random.default_rng(7)
        x = np.maximum(rng.integers(-2, 3, size=(2, 3, 6, 8, 10)), 0).astype(np.float32)
        x[1, 2, :2, :2, :2] = 0
        fast = ops.maxpool3d(Tensor(x)).data
        taped = ops.maxpool3d(Tensor(x), tape=Tape()).data
        assert fast.shape == taped.shape == (2, 3, 3, 4, 5) and fast.dtype == taped.dtype
        assert fast.tobytes() == taped.tobytes()

    def test_nan_block_pools_to_nan_untaped_and_taped(self):
        x = np.ones((1, 1, 2, 2, 4), dtype=np.float32)
        x[0, 0, 1, 0, 1] = np.nan
        for tape in (None, Tape()):
            out = ops.maxpool3d(Tensor(x), tape=tape).data
            assert np.isnan(out[0, 0, 0, 0, 0]) and out[0, 0, 0, 0, 1] == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_taped_dx_equals_argmax_routing_bytes(self, dtype):
        # tie-heavy ReLU-like inputs: batch 2, non-cubic extents, all-zero
        # blocks and blocks whose positive maximum repeats
        rng = np.random.default_rng(9)
        x = np.maximum(rng.integers(-3, 3, size=(2, 3, 4, 6, 10)), 0).astype(dtype)
        x[0, 1, :2, :2, :2] = 0
        x[1, 2, :2, 2:4, 4:6] = 2
        x[1, 0, 2:, 4:, 8:] = [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]
        grad = rng.standard_normal((2, 3, 2, 3, 5)).astype(dtype)
        xt, tape = Tensor(x), Tape()
        out = ops.maxpool3d(xt, tape=tape)
        backward(tape, sum_all(mul(out, Tensor(grad), tape=tape), tape=tape), [xt])
        want = maxpool_argmax_grad(x, grad)
        assert xt.grad.dtype == want.dtype and xt.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tape", [None, Tape()], ids=["untaped", "taped"])
    def test_forward_builds_no_block_copy_or_argmax(self, tape):
        # the pairwise reductions peak at about 0.81x the input, taped or not;
        # a contiguous copy of the blocks plus an argmax peaked at 1.48x, and
        # kept the argmax (out.nbytes / 4) alive.  Backward reads x and out,
        # so a taped forward keeps nothing but its output
        x = np.random.default_rng(8).random((1, 8, 32, 32, 32), dtype=np.float32)
        xt = Tensor(x)
        tracemalloc.start()
        try:
            out = ops.maxpool3d(xt, tape=tape)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes
        assert out.data.nbytes <= held < out.data.nbytes + 4096


class TestBatchnorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((4, 3, 4, 4, 4)) * 5 + 2)
        state = ops.BNState(np.zeros(3), np.ones(3))
        out = ops.batchnorm3d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), "train", state)
        mean = out.data.mean(axis=(0, 2, 3, 4))
        var = out.data.var(axis=(0, 2, 3, 4))
        assert np.all(np.abs(mean) < 1e-6)
        assert np.all(np.abs(var - 1) < 1e-4)

    def test_gamma_beta_scale_shift(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 2, 4, 4, 4)))
        state = ops.BNState(np.zeros(2), np.ones(2))
        out = ops.batchnorm3d(x, Tensor(np.full(2, 2.0)), Tensor(np.full(2, 3.0)), "train", state)
        # independent statistics over the produced values
        got_mean = np.array([out.data[:, c].mean() for c in range(2)])
        got_std = np.array([out.data[:, c].std() for c in range(2)])
        np.testing.assert_allclose(got_mean, 3.0, atol=1e-6)
        np.testing.assert_allclose(got_std, 2.0, atol=1e-4)

    def test_eval_uses_running_stats(self):
        eps = 1e-5
        state = ops.BNState(np.array([1.0]), np.array([3.0]))
        x = Tensor(np.full((1, 1, 1, 1, 1), 4.0))
        out = ops.batchnorm3d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), "eval", state)
        assert out.data[0, 0, 0, 0, 0] == pytest.approx((4 - 1) / np.sqrt(3 + eps))

    def test_running_stats_updated(self):
        state = ops.BNState(np.zeros(1), np.ones(1))
        x = Tensor(np.full((2, 1, 2, 2, 2), 10.0))
        ops.batchnorm3d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), "train", state)
        assert state.mean[0] == pytest.approx(0.9 * 0 + 0.1 * 10)
        assert state.var[0] == pytest.approx(0.9 * 1 + 0.1 * 0)

    def test_degenerate_batch(self):
        state = ops.BNState(np.zeros(1), np.ones(1))
        with pytest.raises(DataError, match="needs >= 2 elements per channel"):
            ops.batchnorm3d(Tensor(np.zeros((1, 1, 1, 1, 1))),
                            Tensor(np.ones(1)), Tensor(np.zeros(1)), "train", state)


class TestGlobalAvgPool:
    def test_constant(self):
        out = ops.global_avg_pool(Tensor(np.full((1, 2, 3, 3, 3), 4.25)))
        np.testing.assert_array_equal(out.data, np.full((1, 2), 4.25))

    def test_half_half(self):
        x = np.zeros((1, 1, 2, 2, 2))
        x[0, 0, 1] = 1.0
        assert ops.global_avg_pool(Tensor(x)).data[0, 0] == 0.5

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 3, 3, 3))
        out = ops.global_avg_pool(Tensor(x))
        np.testing.assert_allclose(out.data, mean_loops(x), atol=1e-12)


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ops.dense(Tensor(x), Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_example(self):
        out = ops.dense(Tensor(np.array([[1.0, 2.0]])), Tensor(np.eye(2)),
                        Tensor(np.array([10.0, 20.0])))
        np.testing.assert_array_equal(out.data, [[11.0, 22.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x, w, b = rng.standard_normal((3, 5)), rng.standard_normal((5, 4)), rng.standard_normal(4)
        out = ops.dense(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_loops(x, w, b), atol=1e-12)

    def test_inner_mismatch(self):
        with pytest.raises(DataError, match="inner extents differ"):
            ops.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


class TestActivations:
    def test_relu(self):
        out = activation(Tensor(np.array([-1.0, 2.0])), "relu")
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_sigmoid_zero(self):
        assert activation(Tensor(np.array([0.0])), "sigmoid").data[0] == 0.5

    def test_softmax_symmetry_and_stability(self):
        np.testing.assert_allclose(ops.softmax(Tensor(np.array([0.0, 0.0]))).data, [0.5, 0.5])
        big = ops.softmax(Tensor(np.array([1000.0, 1000.0])))
        np.testing.assert_allclose(big.data, [0.5, 0.5])
        assert np.all(np.isfinite(big.data))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            activation(Tensor(np.zeros(2)), "tanh")


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(np.arange(8.0))
        assert ops.dropout(x, 0.0, "train", np.random.default_rng(0)) is x
        assert ops.dropout(x, 0.0, "eval") is x

    def test_eval_identity(self):
        x = Tensor(np.arange(8.0))
        assert ops.dropout(x, 0.7, "eval") is x

    def test_mass_preserved(self):
        rng = np.random.default_rng(6)
        x = Tensor(np.ones(100_000))
        out = ops.dropout(x, 0.5, "train", rng)
        assert 0.98 <= out.data.mean() <= 1.02

    def test_bad_probability(self):
        with pytest.raises(ValueError, match="dropout probability must be in"):
            ops.dropout(Tensor(np.zeros(2)), 1.0, "train", np.random.default_rng(0))


class TestCrossEntropy:
    def test_uniform_prediction(self):
        loss = ops.cross_entropy(Tensor(np.array([[0.0, 0.0]])), np.array([0]))
        assert loss.item() == pytest.approx(np.log(2), abs=1e-12)

    def test_confident_correct_no_overflow(self):
        loss = ops.cross_entropy(Tensor(np.array([[1000.0, 0.0]])), np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_bad_label(self):
        with pytest.raises(DataError, match=r"labels must be integers in \[0, 2\)"):
            ops.cross_entropy(Tensor(np.zeros((1, 2))), np.array([2]))


class TestDownsample:
    def test_constant(self):
        out = ops.downsample2x(Tensor(np.full((4, 4, 4), 7.0)))
        assert out.shape == (2, 2, 2)
        assert np.all(out.data == 7.0)

    def test_block_mean(self):
        x = np.zeros((2, 2, 2))
        x[1] = 8.0
        assert ops.downsample2x(Tensor(x)).data[0, 0, 0] == 4.0

    def test_shape_192_to_96(self):
        out = ops.downsample2x(Tensor(np.zeros((1, 1, 192, 192, 192), dtype=np.float32)))
        assert out.shape == (1, 1, 96, 96, 96)

    def test_odd_extent(self):
        with pytest.raises(DataError, match=r"spatial extents \(3, 4, 4\) must be even"):
            ops.downsample2x(Tensor(np.zeros((3, 4, 4))))
