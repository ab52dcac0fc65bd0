"""Reverse-mode gradients checked against central finite differences."""

import tracemalloc

import numpy as np
import pytest

from szdl import ops
from szdl.model import ModelConfig, build_model
from szdl.tensor import Parameter, Tape, Tensor, backward

from oracles import (
    activation,
    backward_along,
    batchnorm_input_grad,
    fd_check,
    mul,
    scale,
    sum_all,
)


def leaf(rng, shape):
    return Parameter("leaf", rng.standard_normal(shape), dtype=np.float64)


def bytes_held(tape: Tape) -> int:
    """Distinct buffers a tape keeps alive: node outputs, inputs and closure captures.

    Each base buffer counts once; parameters are left out, since the model
    holds them with or without a tape.
    """
    bases = {}

    def add(obj):
        if isinstance(obj, Parameter):
            return
        if isinstance(obj, Tensor):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                add(item)

    for output, inputs, fn in tape._nodes:
        add(output)
        add(inputs)
        for cell in fn.__closure__ or ():
            add(cell.cell_contents)
    return sum(bases.values())


class TestTapeBasics:
    def test_sum_gradient_is_ones(self):
        x = leaf(np.random.default_rng(0), (3, 4))
        tape = Tape()
        loss = sum_all(x, tape=tape)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_gradient(self):
        x = Parameter("x", np.array([3.0]))
        tape = Tape()
        loss = sum_all(mul(x, x, tape=tape), tape=tape)
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_reuse_accumulates(self):
        x = Parameter("x", np.array([2.0]))
        tape = Tape()
        y = scale(x, 3.0, tape=tape)
        z = scale(x, 5.0, tape=tape)
        loss = sum_all(mul(y, z, tape=tape), tape=tape)
        backward(tape, loss)
        # d/dx (15 x^2) = 30 x
        np.testing.assert_allclose(x.grad, [60.0])

    def test_detached_output(self):
        tape = Tape()
        with pytest.raises(ValueError, match="loss tensor was not produced on this tape"):
            backward(tape, Tensor(np.float64(1.0)))

    def test_inputs_name_the_gradients_kept(self):
        x = Tensor(np.array([2.0, -1.0]))
        w = Parameter("w", np.array([3.0, 4.0]))
        tape = Tape()
        y = mul(x, w, tape=tape)
        loss = sum_all(scale(y, 2.0, tape=tape), tape=tape)
        backward(tape, loss, [x])
        np.testing.assert_array_equal(x.grad, [6.0, 8.0])
        np.testing.assert_array_equal(w.grad, [0.0, 0.0])  # left as found
        assert y.grad is None and loss.grad is None

    def test_kept_gradient_shares_no_memory_with_an_upstream_input(self):
        # reshape's backward returns a view of its output gradient; x's second
        # contribution must not write through it into y.grad
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        tape = Tape()
        w = ops.reshape(x, (4,), tape=tape)
        y = ops.reshape(x, (4,), tape=tape)
        backward(tape, sum_all(mul(y, w, tape=tape), tape=tape), [y, x])
        np.testing.assert_array_equal(y.grad, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_backward_linearity_powers_of_two(self):
        rng = np.random.default_rng(1)
        x1 = leaf(rng, (2, 5))
        w = leaf(rng, (5, 3))
        b = leaf(rng, (3,))

        def run(factor):
            tape = Tape()
            out = ops.dense(x1, w, b, tape=tape)
            out = ops.relu(out, tape=tape)
            loss = scale(sum_all(out, tape=tape), factor, tape=tape)
            for t in (x1, w, b):
                t.grad = None
            backward(tape, loss)
            return [t.grad.copy() for t in (x1, w, b)]

        base = run(1.0)
        doubled = run(2.0)
        for g1, g2 in zip(base, doubled):
            np.testing.assert_array_equal(g2, 2.0 * g1)


class TestKernelGradients:
    def test_conv3d(self):
        rng = np.random.default_rng(10)
        x = leaf(rng, (2, 2, 4, 4, 4))
        w = leaf(rng, (3, 2, 3, 3, 3))
        b = leaf(rng, (3,))
        direction = rng.standard_normal((2, 3, 4, 4, 4))

        def f():
            return float((ops.conv3d(x, w, b).data * direction).sum())

        tape = Tape()
        out = ops.conv3d(x, w, b, tape=tape)
        backward_along(tape, out, direction)
        fd_check(f, [(x.data, x.grad), (w.data, w.grad), (b.data, b.grad)], rng)

    def test_maxpool_routes_one_per_block(self):
        rng = np.random.default_rng(11)
        x = leaf(rng, (1, 1, 4, 4, 4))
        tape = Tape()
        out = ops.maxpool3d(x, tape=tape)
        loss = sum_all(out, tape=tape)
        backward(tape, loss)
        blocks = x.grad.reshape(2, 2, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3, 5).reshape(8, 8)
        assert np.all(blocks.sum(axis=1) == 1.0)
        assert np.all((x.grad == 0) | (x.grad == 1))

        def f():
            return float(ops.maxpool3d(x).data.sum())

        fd_check(f, [(x.data, x.grad)], rng, n_coords=64)

    def test_batchnorm_train(self):
        rng = np.random.default_rng(12)
        x = leaf(rng, (3, 2, 3, 3, 3))
        gamma = leaf(rng, (2,))
        beta = leaf(rng, (2,))
        direction = rng.standard_normal(x.shape)

        def f():
            state = ops.BNState(np.zeros(2), np.ones(2))
            out = ops.batchnorm3d(x, gamma, beta, "train", state)
            return float((out.data * direction).sum())

        tape = Tape()
        out = ops.batchnorm3d(x, gamma, beta, "train", ops.BNState(np.zeros(2), np.ones(2)),
                              tape=tape)
        backward_along(tape, out, direction)
        fd_check(f, [(x.data, x.grad), (gamma.data, gamma.grad), (beta.data, beta.grad)], rng)

    def test_batchnorm_eval(self):
        rng = np.random.default_rng(13)
        x = leaf(rng, (2, 2, 2, 2, 2))
        gamma = leaf(rng, (2,))
        beta = leaf(rng, (2,))
        state = ops.BNState(rng.standard_normal(2), np.abs(rng.standard_normal(2)) + 0.5)
        direction = rng.standard_normal(x.shape)

        def f():
            return float((ops.batchnorm3d(x, gamma, beta, "eval", state).data * direction).sum())

        tape = Tape()
        out = ops.batchnorm3d(x, gamma, beta, "eval", state, tape=tape)
        backward_along(tape, out, direction)
        fd_check(f, [(x.data, x.grad), (gamma.data, gamma.grad), (beta.data, beta.grad)], rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batchnorm_input_grad_bit_equals_closed_form(self, mode, dtype):
        rng = np.random.default_rng(17)
        x = Parameter("x", (rng.standard_normal((2, 3, 4, 5, 6)) * 3 + 1).astype(dtype))
        gamma = Parameter("gamma", rng.standard_normal(3).astype(dtype))
        beta = Parameter("beta", rng.standard_normal(3).astype(dtype))
        mean = rng.standard_normal(3).astype(dtype)
        var = (np.abs(rng.standard_normal(3)) + 0.5).astype(dtype)
        grad = rng.standard_normal(x.shape).astype(dtype)

        tape = Tape()
        out = ops.batchnorm3d(x, gamma, beta, mode, ops.BNState(mean.copy(), var.copy()),
                              tape=tape)
        backward_along(tape, out, grad)
        expected = batchnorm_input_grad(x.data, gamma.data, grad, mode, mean, var)
        assert x.grad.dtype == expected.dtype == dtype
        assert np.array_equal(x.grad, expected)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(14)
        x = leaf(rng, (2, 3, 3, 3, 3))
        direction = rng.standard_normal((2, 3))

        def f():
            return float((ops.global_avg_pool(x).data * direction).sum())

        tape = Tape()
        out = ops.global_avg_pool(x, tape=tape)
        backward_along(tape, out, direction)
        fd_check(f, [(x.data, x.grad)], rng)

    def test_dense(self):
        rng = np.random.default_rng(15)
        x = leaf(rng, (3, 5))
        w = leaf(rng, (5, 4))
        b = leaf(rng, (4,))
        direction = rng.standard_normal((3, 4))

        def f():
            return float((ops.dense(x, w, b).data * direction).sum())

        tape = Tape()
        out = ops.dense(x, w, b, tape=tape)
        backward_along(tape, out, direction)
        fd_check(f, [(x.data, x.grad), (w.data, w.grad), (b.data, b.grad)], rng)

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "softmax"])
    def test_activations(self, kind):
        rng = np.random.default_rng(16)
        x = leaf(rng, (4, 6))
        direction = rng.standard_normal((4, 6))

        def f():
            return float((activation(x, kind).data * direction).sum())

        tape = Tape()
        out = activation(x, kind, tape=tape)
        backward_along(tape, out, direction)
        fd_check(f, [(x.data, x.grad)], rng)

    def test_dropout_fixed_mask(self):
        rng = np.random.default_rng(17)
        x = leaf(rng, (5, 5))
        direction = rng.standard_normal((5, 5))

        def f():
            mask_rng = np.random.default_rng(99)
            return float((ops.dropout(x, 0.4, "train", mask_rng).data * direction).sum())

        tape = Tape()
        out = ops.dropout(x, 0.4, "train", np.random.default_rng(99), tape=tape)
        backward_along(tape, out, direction)
        fd_check(f, [(x.data, x.grad)], rng)

    def test_cross_entropy(self):
        rng = np.random.default_rng(18)
        x = leaf(rng, (6, 2))
        labels = np.array([0, 1, 0, 1, 1, 0])

        def f():
            return ops.cross_entropy(x, labels).item()

        tape = Tape()
        loss = ops.cross_entropy(x, labels, tape=tape)
        backward(tape, loss)
        fd_check(f, [(x.data, x.grad)], rng, rel_tol=1e-6)

    def test_cross_entropy_gradient_formula(self):
        rng = np.random.default_rng(19)
        z = rng.standard_normal((4, 2))
        labels = np.array([0, 1, 1, 0])
        x = Parameter("x", z.copy())
        tape = Tape()
        loss = ops.cross_entropy(x, labels, tape=tape)
        backward(tape, loss)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(4), labels] -= 1
        np.testing.assert_allclose(x.grad, p / 4, atol=1e-12)

    def test_downsample2x(self):
        rng = np.random.default_rng(20)
        x = leaf(rng, (1, 1, 4, 4, 4))
        direction = rng.standard_normal((1, 1, 2, 2, 2))

        def f():
            return float((ops.downsample2x(x).data * direction).sum())

        tape = Tape()
        out = ops.downsample2x(x, tape=tape)
        backward_along(tape, out, direction)
        fd_check(f, [(x.data, x.grad)], rng)

    def test_channel_scale(self):
        rng = np.random.default_rng(21)
        x = leaf(rng, (2, 3, 2, 2, 2))
        gate = leaf(rng, (2, 3))
        direction = rng.standard_normal(x.shape)

        def f():
            return float((ops.channel_scale(x, gate).data * direction).sum())

        tape = Tape()
        out = ops.channel_scale(x, gate, tape=tape)
        backward_along(tape, out, direction)
        fd_check(f, [(x.data, x.grad), (gate.data, gate.grad)], rng)


class TestConvChunks:
    def test_pieces_bit_equal_one_chunk(self, monkeypatch):
        # float32, the model's dtype.  Every piece's GEMM is kept above 10^6
        # multiply-adds (3.5 x 10^6 at the least), as every piece of a layer
        # that the 64 MiB budget splits is: below that, OpenBLAS's AVX-512
        # small-matrix kernels round a split GEMM differently from the whole.
        dtype = np.float32
        n, cin, cout, (d, h, w) = 2, 10, 64, (8, 16, 16)
        itemsize = np.dtype(dtype).itemsize
        rng = np.random.default_rng(30)
        x = Parameter("x", rng.standard_normal((n, cin, d, h, w)).astype(dtype))
        wt = Parameter("w", rng.standard_normal((cout, cin, 3, 3, 3)).astype(dtype))
        b = Parameter("b", rng.standard_normal(cout).astype(dtype))
        direction = rng.standard_normal((n, cout, d, h, w))
        built = []
        im2col = ops._im2col

        def recording_im2col(xp):
            cols = im2col(xp)
            built.append(cols.shape)
            return cols

        monkeypatch.setattr(ops, "_im2col", recording_im2col)

        def run(chunk_bytes):
            monkeypatch.setattr(ops, "_CHUNK_BYTES", chunk_bytes)
            for p in (x, wt, b):
                p.grad = None
            built.clear()
            tape = Tape()
            out = ops.conv3d(x, wt, b, tape=tape)
            backward_along(tape, out, direction)
            return [out.data, wt.grad.copy(), b.grad.copy(), x.grad.copy()], list(built)

        whole, whole_built = run(2 ** 40)
        # 3 depth slices or 3 input channels per piece: 3 + 3 + 2 and 3 + 3 + 3 + 1
        pieces, pieces_built = run(3 * cin * 27 * h * w * itemsize)
        assert whole_built == [(cin * 27, d * h * w)] * (2 * n)
        slabs = [(cin * 27, k * h * w) for k in (3, 3, 2)]
        chunks = [(k * 27, d * h * w) for k in (3, 3, 3, 1)]
        assert pieces_built == slabs * n + chunks * n
        for got, want in zip(pieces, whole):
            np.testing.assert_array_equal(got, want)


class TestTapeMemory:
    def test_conv3d_tape_holds_no_im2col(self):
        # the column matrix of one sample, [Cin*27, D*H*W] in float32: ~12 MB
        cin, cout, extent = 8, 8, 24
        im2col_bytes = cin * 27 * extent ** 3 * 4
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((1, cin, extent, extent, extent)).astype(np.float32))
        w = Parameter("w", (0.1 * rng.standard_normal((cout, cin, 3, 3, 3))).astype(np.float32))
        b = Parameter("b", np.zeros(cout, dtype=np.float32))

        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tape = Tape()
            out = ops.conv3d(x, w, b, tape=tape)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held - out.data.nbytes < im2col_bytes / 10

        backward(tape, out)
        assert np.abs(w.grad).sum() > 0  # the weight gradient rebuilds the buffer

    def test_backward_keeps_gradients_only_on_inputs(self):
        config = ModelConfig(input_extent=48, width_scale=1 / 8, se_ratio=4,
                             classifier_dims=(128, 16))
        model = build_model(config, seed=0)
        rng = np.random.default_rng(21)
        x = Tensor(rng.random((5, 1, 48, 48, 48), dtype=np.float32))
        tape = Tape()
        result = model.apply(x, mode="train", tape=tape, rng=rng)
        loss = ops.cross_entropy(result.logits, np.array([0, 1, 0, 1, 1]), tape=tape)
        model.zero_grad()
        # taken before backward, which empties the tape
        outputs = [output for output, _, _ in tape._nodes]
        output_bytes = sum(output.data.nbytes for output in outputs)

        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            backward(tape, loss)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(output.grad is None for output in outputs)
        assert x.grad is None
        assert all(np.abs(p.grad).sum() > 0 for p in model.parameters())
        assert retained < output_bytes / 10

    def test_tape_holds_under_four_relu_outputs_and_is_spent_by_backward(self):
        config = ModelConfig(input_extent=48, width_scale=1 / 8, se_ratio=4)
        model = build_model(config, seed=0)
        rng = np.random.default_rng(22)
        x = Tensor(rng.random((5, 1, 48, 48, 48), dtype=np.float32))
        tape = Tape()
        result = model.apply(x, mode="train", tape=tape, rng=rng)
        relu_bytes = sum(output.data.nbytes for output, _, fn in tape._nodes
                         if fn.__qualname__.startswith("relu.") and output.data.ndim == 5)
        # conv input, BN's xhat, BN's output and the ReLU output per conv
        # unit; BN's output and the ReLU output reuse the buffers of the
        # conv output and the SE-gated map
        assert bytes_held(tape) < 4 * relu_bytes

        loss = ops.cross_entropy(result.logits, np.array([0, 1, 0, 1, 1]), tape=tape)
        backward(tape, loss)
        assert len(tape) == 0
        with pytest.raises(ValueError, match="spent"):
            backward(tape, loss)

    @pytest.mark.parametrize("op", ["relu", "batchnorm3d"])
    def test_output_into_input_buffer_changes_no_value_or_gradient(self, op):
        """``out=x.data``, as ``Model.apply`` passes it, reuses the buffer bit for bit."""
        rng = np.random.default_rng(23)
        data = rng.standard_normal((2, 3, 4, 4, 4)).astype(np.float32)
        gamma_data, beta_data = rng.standard_normal((2, 3)).astype(np.float32)
        direction = rng.standard_normal(data.shape).astype(np.float32)

        def run(into_input):
            x = Parameter("x", data.copy())
            gamma, beta = Parameter("gamma", gamma_data), Parameter("beta", beta_data)
            buffer = x.data
            tape = Tape()
            out = buffer if into_input else None
            if op == "relu":
                y = ops.relu(x, tape=tape, out=out)
            else:
                y = ops.batchnorm3d(x, gamma, beta, "train",
                                    ops.BNState(np.zeros(3), np.ones(3)), tape=tape, out=out)
            assert (y.data is buffer) == into_input
            values = y.data.copy()
            backward_along(tape, y, direction)
            return values, x.grad, gamma.grad, beta.grad

        for fresh, reused in zip(run(False), run(True)):
            np.testing.assert_array_equal(reused, fresh)

    @pytest.mark.parametrize("op", ["batchnorm3d-eval", "batchnorm3d-train", "channel_scale"])
    def test_untaped_output_into_input_buffer_matches_taped_bytes(self, op):
        """Untaped BN and ``channel_scale`` into ``x.data``, as ``Model.run``
        passes them, give the fresh-buffer and the taped bytes (and BN the
        same running statistics)."""
        rng = np.random.default_rng(24)
        data = rng.standard_normal((2, 3, 4, 4, 4)).astype(np.float32)
        gamma, beta = (Tensor(v) for v in rng.standard_normal((2, 3)).astype(np.float32))
        gate = Tensor(rng.random((2, 3)).astype(np.float32))
        stats = rng.standard_normal(3).astype(np.float32), rng.uniform(0.5, 2.0, 3).astype(np.float32)

        def run(into_input, tape=None):
            x = Tensor(data.copy())
            out = x.data if into_input else None
            state = ops.BNState(*(a.copy() for a in stats))
            if op == "channel_scale":
                y = ops.channel_scale(x, gate, tape=tape, out=out)
            else:
                y = ops.batchnorm3d(x, gamma, beta, op.split("-")[1], state, tape=tape, out=out)
            assert (y.data is x.data) == into_input
            return y.data.tobytes(), state.mean.tobytes(), state.var.tobytes()

        assert run(True) == run(False) == run(False, Tape())

    def test_taped_channel_scale_leaves_input_for_gate_gradient(self):
        rng = np.random.default_rng(25)
        data = rng.standard_normal((2, 3, 4, 4, 4)).astype(np.float32)
        x, gate = Tensor(data.copy()), Parameter("gate", rng.random((2, 3)).astype(np.float32))
        direction = rng.standard_normal(data.shape).astype(np.float32)
        tape = Tape()
        y = ops.channel_scale(x, gate, tape=tape)
        assert y.data is not x.data and x.data.tobytes() == data.tobytes()
        backward_along(tape, y, direction)
        np.testing.assert_array_equal(
            gate.grad, (direction * data).sum(axis=(2, 3, 4), dtype=np.float64).astype(np.float32))
