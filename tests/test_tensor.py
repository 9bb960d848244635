import concurrent.futures
import math
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import zicobc.tensor as tensor_module
from helpers import ColumnKeepingTape, parameter_tensors, seeded_fill, tensor_digest
from zicobc.network import Genome, StageGene, compile_genome, init_weights
from zicobc.proxy import make_batches
from zicobc.tensor import (
    ShapeMismatchError,
    Tape,
    TapeError,
    Tensor,
    TensorError,
    WorkerPool,
)

FD_STEP = 1e-5
FD_RTOL = 1e-6


def finite_diff_grad(build_loss, param: Tensor) -> np.ndarray:
    """Central-difference gradient of build_loss w.r.t. one parameter tensor.

    build_loss takes a replacement tensor for `param` and returns the loss
    as a float, using forward evaluation only.
    """
    base = param.data.copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += FD_STEP
        hi = build_loss(Tensor(bumped.reshape(base.shape)))
        bumped[i] -= 2 * FD_STEP
        lo = build_loss(Tensor(bumped.reshape(base.shape)))
        gflat[i] = (hi - lo) / (2 * FD_STEP)
    return grad


def assert_close_to_fd(ad: np.ndarray, fd: np.ndarray) -> None:
    denom = np.maximum(np.abs(fd), 1.0)
    rel = np.abs(ad - fd) / denom
    assert rel.max() < FD_RTOL, f"max relative error {rel.max():.3e}"


def probe_to_scalar(tape: Tape, out: Tensor, probe: np.ndarray) -> Tensor:
    """Contract an op output with a fixed probe so the loss stays on-tape.

    4-d outputs use a full-extent convolution (one output element equal to
    sum(out * probe)); 2-d single-row outputs use a dense layer.
    """
    if out.data.ndim == 4:
        n, c, h, w = out.shape
        assert n == 1
        return tape.conv2d(out, Tensor(probe.reshape(1, c, h, w)))
    assert out.data.ndim == 2 and out.shape[0] == 1
    return tape.dense(out, Tensor(probe.reshape(1, -1)))


class TestTensor:
    def test_shape_data_invariant(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.size == 6

    def test_rejects_zero_extent(self):
        with pytest.raises(TensorError):
            Tensor(np.zeros((2, 0, 3)))

    def test_immutable(self):
        t = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            t.data[0] = 2.0


class TestForwardOps:
    def test_relu_definition(self):
        tape = Tape()
        out = tape.relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_identity_convolution(self):
        tape = Tape()
        x = Tensor(np.full((1, 1, 1, 1), 3.0))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = tape.conv2d(x, w, stride=1, padding=0)
        assert out.item() == 3.0

    def test_cross_entropy_uniform_two_classes(self):
        tape = Tape()
        loss = tape.cross_entropy_loss(Tensor([[0.0, 0.0]]), [0])
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_conv_output_extent_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            h = int(rng.integers(3, 12))
            w = int(rng.integers(3, 12))
            k = int(rng.choice([1, 3, 5]))
            s = int(rng.choice([1, 2]))
            p = int(rng.integers(0, 3))
            if h + 2 * p < k or w + 2 * p < k:
                continue
            tape = Tape()
            x = Tensor(rng.normal(size=(1, 2, h, w)))
            wt = Tensor(rng.normal(size=(3, 2, k, k)))
            out = tape.conv2d(x, wt, stride=s, padding=p)
            assert out.shape[2] == (h + 2 * p - k) // s + 1
            assert out.shape[3] == (w + 2 * p - k) // s + 1

    def test_grouped_conv_matches_per_group_slices(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)))
        w = Tensor(rng.normal(size=(6, 2, 3, 3)))
        out = Tape().conv2d(x, w, stride=1, padding=1, groups=2)
        for g in range(2):
            xg = Tensor(x.data[:, 2 * g:2 * g + 2])
            wg = Tensor(w.data[3 * g:3 * g + 3])
            ref = Tape().conv2d(xg, wg, stride=1, padding=1)
            np.testing.assert_allclose(out.data[:, 3 * g:3 * g + 3], ref.data,
                                       rtol=0, atol=1e-13)

    def test_global_avg_pool(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        out = Tape().global_avg_pool(x)
        np.testing.assert_allclose(out.data, [[1.5, 5.5]])

    def test_shape_errors_name_op(self):
        tape = Tape()
        with pytest.raises(ShapeMismatchError, match="conv2d"):
            tape.conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 2, 3, 3))))
        with pytest.raises(ShapeMismatchError, match="residual_add"):
            tape.residual_add(Tensor(np.ones((1, 2))), Tensor(np.ones((2, 1))))
        with pytest.raises(ShapeMismatchError, match="cross_entropy_loss"):
            tape.cross_entropy_loss(Tensor(np.ones((2, 3))), [0, 3])
        with pytest.raises(ShapeMismatchError, match="dense"):
            tape.dense(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


class TestBackward:
    def test_linear_gradient(self):
        tape = Tape()
        x = Tensor([[2.0]])
        w = Tensor([[0.37]])
        y = tape.dense(x, w)
        tape.backward(y)
        assert tape.grad(w).item() == 2.0

    def test_unreachable_parameter_gets_zero(self):
        tape = Tape()
        x = Tensor([[1.0, 2.0]])
        w_used = Tensor(np.ones((1, 2)))
        w_unused = Tensor(np.ones((1, 2)))
        y = tape.dense(x, w_used)
        tape.dense(x, w_unused)  # recorded but not on the loss path
        tape.backward(y)
        assert tape.grad(w_unused).data.tolist() == [[0.0, 0.0]]

    def test_residual_routes_gradient_unchanged(self):
        tape = Tape()
        x = Tensor([[1.0, 2.0]])
        w = Tensor(np.array([[3.0, 4.0]]))
        b = tape.dense(x, w)          # (1, 1)
        s = tape.residual_add(b, b)   # gradient reaches w twice, unchanged
        tape.backward(s)
        np.testing.assert_allclose(tape.grad(w).data, [[2.0, 4.0]])

    def test_loss_must_be_scalar(self):
        tape = Tape()
        y = tape.relu(Tensor([1.0, 2.0]))
        with pytest.raises(TapeError, match="scalar"):
            tape.backward(y)

    def test_empty_tape(self):
        with pytest.raises(TapeError, match="empty"):
            Tape().backward(Tensor([1.0]))

    def test_foreign_loss(self):
        tape = Tape()
        tape.relu(Tensor([1.0]))
        with pytest.raises(TapeError, match="not produced"):
            tape.backward(Tensor([1.0]))

    def test_other_tapes_loss(self):
        other = Tape()
        loss = other.relu(Tensor([1.0]))
        tape = Tape()
        tape.relu(Tensor([1.0]))
        with pytest.raises(TapeError, match="not produced"):
            tape.backward(loss)

    def test_op_output_cannot_be_a_parameter(self):
        tape = Tape()
        y = tape.dense(Tensor([[2.0]]), Tensor([[0.37]]))
        with pytest.raises(TapeError, match="cannot be a parameter"):
            tape.dense(Tensor([[1.0]]), y)

    def test_leaf_also_a_parameter_gets_every_use(self):
        tape = Tape()
        a = Tensor([[2.0]])
        b = Tensor([[3.0]])
        y = tape.dense(a, b)   # a read as an input first: y = a * b
        z = tape.dense(y, a)   # then as a parameter: z = a^2 * b
        tape.backward(z)
        assert tape.grad(a).item() == 12.0  # 2ab: both uses reach a

    def test_second_backward_raises(self):
        tape = Tape()
        w = Tensor([[0.37]])
        y = tape.dense(Tensor([[2.0]]), w)
        tape.backward(y)
        with pytest.raises(TapeError, match="whose backward already ran"):
            tape.backward(y)
        assert tape.grad(w).item() == 2.0


class TestTapeMemory:
    def test_conv_keeps_less_than_its_columns(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 8, 16, 16)))
        w = Tensor(rng.normal(size=(8, 8, 3, 3)))
        columns_bytes = 2 * (8 * 3 * 3) * (16 * 16) * 8  # 294,912
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = tape.conv2d(x, w, padding=1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (2, 8, 16, 16)
        assert kept < columns_bytes, f"forward kept {kept} bytes"

    def test_backward_frees_intermediate_activations(self):
        # a record keys its adjoint by node, so the conv output that only a
        # ReLU reads, and the ReLU output a padded conv reads, die in forward
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        w2 = Tensor(rng.normal(size=(3, 1, 3, 3)))
        wd = Tensor(rng.normal(size=(4, 3)))
        tape = Tape()

        def forward():
            h = tape.conv2d(x, w, padding=1)
            r = tape.relu(h)
            hidden = [weakref.ref(h.data), weakref.ref(r.data)]
            h = tape.conv2d(r, w2, padding=1, groups=3)
            h = tape.global_avg_pool(h)
            return hidden, tape.cross_entropy_loss(tape.dense(h, wd), [0, 3])

        hidden, loss = forward()
        assert [ref() for ref in hidden] == [None, None]
        tape.backward(loss)
        assert [ref() for ref in hidden] == [None, None]
        assert tape.grad(w).shape == w.shape

    @staticmethod
    def _count_by_sample(monkeypatch) -> list:
        """The shapes of the outs of every later `_by_sample` call, one tuple
        per call; an out that is None is recorded as None."""
        calls = []
        by_sample = tensor_module._by_sample

        def counting(pool, kernel, *outs):
            calls.append(tuple(None if out is None else out.shape for out in outs))
            return by_sample(pool, kernel, *outs)

        monkeypatch.setattr(tensor_module, "_by_sample", counting)
        return calls

    # (n, groups, c_out * k * k, c_in) products at stride 1, where the
    # output gradient's columns are gathered; (n, groups, c_out, c_in * k * k)
    # at stride 2, where the input's are
    @pytest.mark.parametrize("stride,products", [(1, (2, 1, 27, 2)), (2, (2, 1, 3, 18))],
                             ids=["stride_1", "stride_2"])
    def test_leaf_input_gradient_is_never_computed(self, monkeypatch, stride, products):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        wd = Tensor(rng.normal(size=(4, 3)))
        tape = Tape()
        h = tape.global_avg_pool(tape.conv2d(x, w, stride=stride, padding=1))
        loss = tape.cross_entropy_loss(tape.dense(h, wd), [0, 3])
        calls = self._count_by_sample(monkeypatch)
        tape.backward(loss)
        # the weight gradient's products only
        assert calls == [(products, None)]

    @pytest.mark.parametrize("stride,shapes", [
        (1, ((2, 4, 27, 1), (2, 4, 5, 5))),  # products, then the input gradient
        (2, ((2, 4, 3, 9), (2, 4, 7, 7))),  # products, then the padded input gradient
    ], ids=["stride_1", "stride_2"])
    def test_conv_backward_is_one_by_sample_call(self, monkeypatch, stride, shapes):
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        w1 = Tensor(rng.normal(size=(4, 2, 1, 1)))
        w2 = Tensor(rng.normal(size=(12, 1, 3, 3)))
        wd = Tensor(rng.normal(size=(4, 12)))
        tape = Tape()
        h = tape.conv2d(tape.relu(tape.conv2d(x, w1)), w2, stride=stride,
                        padding=1, groups=4)
        loss = tape.cross_entropy_loss(tape.dense(tape.global_avg_pool(h), wd), [0, 3])
        calls = self._count_by_sample(monkeypatch)
        tape.backward(loss)
        # the grouped conv's one call gives both gradients, the ReLU's
        # backward is one call, and the 1x1 conv reads the data batch, so
        # its one call gives the products only
        assert calls == [shapes, ((2, 4, 5, 5),), ((2, 1, 4, 2), None)]


def _genome(family, conv_mode, stride, kernel, rng):
    """A two-stage genome whose second stage has the given mode, stride, kernel.

    resnet_like group stages get 64 channels (depthwise) and 96 channels
    (3 per group) in random order.
    """
    depthwise = conv_mode == "depthwise"
    channels = rng.choice((16, 24, 32), 2) if depthwise else rng.permutation([64, 96])
    stages = tuple(
        StageGene(repeats=int(rng.integers(1, 3)), channels=int(c),
                  kernel=kernel, conv_mode=conv_mode, stride=s)
        for c, s in zip(channels, (1, stride)))
    return Genome(family=family, stages=stages,
                  stem_channels=int(rng.choice([8, 16])), num_classes=4,
                  input_resolution=(8, 8),
                  expansion=int(rng.choice([1, 2])) if depthwise else 4)


class TestColumnFreeConv:
    """`Tape` matches a tape that keeps its im2col columns.

    Stride-1 gradients come from one gather of the output gradient, a
    different summation order, so they agree to 1e-12 relative; stride-2
    convs run the same arithmetic and give the same bytes.
    """

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("family,conv_mode", [("effnet_like", "depthwise"),
                                                  ("resnet_like", "group")])
    def test_gradients_match_column_keeping_tape(self, family, conv_mode,
                                                 stride, kernel):
        rng = np.random.default_rng([stride, kernel, len(family)])
        graph = init_weights(compile_genome(_genome(family, conv_mode, stride,
                                                    kernel, rng)), seed=5)
        assert any(layer.groups == layer.in_channels == layer.out_shape[0] > 1
                   for layer in graph.layers), "no depthwise conv in the genome"
        x, labels = make_batches(graph, 2, 2, seed=9)[0]
        grads = []
        for tape in (ColumnKeepingTape(), Tape()):
            loss = tape.cross_entropy_loss(graph.forward(tape, x), labels)
            tape.backward(loss)
            grads.append([loss.data] + [tape.grad(t).data for t in parameter_tensors(graph)])
        assert grads[0][0].tobytes() == grads[1][0].tobytes()  # forward is unchanged
        for kept, gathered in zip(*grads):
            assert np.abs(gathered - kept).max() <= 1e-12 * np.abs(kept).max()

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("groups", [1, 4, 12], ids=["regular", "grouped", "depthwise"])
    def test_stride_two_conv_gives_column_keeping_bytes(self, groups, kernel):
        rng = np.random.default_rng([groups, kernel])
        x = Tensor(rng.normal(size=(3, 12, 9, 9)))
        w1 = Tensor(rng.normal(size=(12, 12, 1, 1)))
        w2 = Tensor(rng.normal(size=(12, 12 // groups, kernel, kernel)))
        wd = Tensor(rng.normal(size=(4, 12)))
        grads = []
        for tape in (ColumnKeepingTape(), Tape()):
            # the 1x1 conv's weight gradient reads the strided conv's input gradient
            h = tape.relu(tape.conv2d(x, w1))
            h = tape.conv2d(h, w2, stride=2, padding=kernel // 2, groups=groups)
            loss = tape.cross_entropy_loss(
                tape.dense(tape.global_avg_pool(tape.relu(h)), wd), [0, 1, 3])
            tape.backward(loss)
            grads.append([loss.data.tobytes()] + [tape.grad(t).data.tobytes()
                                                  for t in (w1, w2, wd)])
        assert grads[0] == grads[1]


def _pooled_grads(groups, stride, kernel, batch, pool):
    """Loss and parameter-gradient bytes of a two-conv net on Tape(pool).

    Both convs pad in their forward kernels; the second is followed by a
    residual add and ReLUs, and at stride 2 its input gradient is the one
    that accumulates into a result it must zero first.
    """
    rng = np.random.default_rng([groups, stride, kernel, batch])
    x = Tensor(rng.normal(size=(batch, 3, 8, 8)))
    w1 = Tensor(rng.normal(size=(12, 3, 3, 3)))
    w2 = Tensor(rng.normal(size=(12, 12 // groups, kernel, kernel)))
    wd = Tensor(rng.normal(size=(4, 12)))
    labels = rng.integers(0, 4, size=batch)
    tape = Tape(pool)
    h = tape.relu(tape.conv2d(x, w1, padding=1))
    h = tape.conv2d(h, w2, stride=stride, padding=kernel // 2, groups=groups)
    h = tape.relu(tape.residual_add(h, tape.relu(h)))
    logits = tape.dense(tape.global_avg_pool(h), wd)
    loss = tape.cross_entropy_loss(logits, labels)
    tape.backward(loss)
    return [loss.data.tobytes()] + [tape.grad(w).data.tobytes() for w in (w1, w2, wd)]


class TestWorkerPool:
    """A tape that splits its array work by sample gives the same bytes."""

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("groups", [1, 4, 12], ids=["regular", "grouped", "depthwise"])
    def test_pooled_tape_matches_unpooled(self, groups, stride, kernel):
        with WorkerPool(2) as two, WorkerPool(8) as eight:
            for batch in (1, 3, 8):  # 3 splits unevenly; 8 workers can outnumber samples
                unpooled = _pooled_grads(groups, stride, kernel, batch, None)
                for pool in (two, eight):
                    assert _pooled_grads(groups, stride, kernel, batch, pool) == unpooled
            # a result is allocated uninitialised, pool or no pool; freed
            # NaNs of the padded shapes make one that a kernel leaves partly
            # unwritten likely to show as a mismatch
            pad = kernel // 2
            for pool in (None, two):
                for shape in ((8, 3, 10, 10), (8, 12, 8 + 2 * pad, 8 + 2 * pad)):
                    np.full(shape, np.nan)
                assert _pooled_grads(groups, stride, kernel, 8, pool) == unpooled

    def test_calling_thread_runs_the_first_range(self):
        ranges = {}
        with WorkerPool(3) as pool:  # two threads and the caller
            tensor_module._split(pool, 7, lambda lo, hi: ranges.update(
                {(lo, hi): threading.get_ident()}))
        assert sorted(ranges) == [(0, 2), (2, 4), (4, 7)]
        assert ranges[0, 2] == threading.get_ident()

    def test_caller_waits_for_the_other_ranges_when_its_own_raises(self):
        done = []

        def run(lo, hi):
            if lo == 0:
                raise ValueError("the caller's range")
            time.sleep(0.05)
            done.append((lo, hi))

        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="the caller's range"):
                tensor_module._split(pool, 2, run)
            assert done == [(1, 2)]


class TestFiniteDifferenceOracle:
    """Every op kind checked against central finite differences."""

    def test_conv2d(self):
        rng = np.random.default_rng(11)
        for trial in range(18):
            depthwise = trial >= 12  # one channel per group
            groups = int(rng.choice([2, 3] if depthwise else [1, 2]))
            c_in = c_out = groups if depthwise else 2 * groups
            k = int(rng.choice([1, 3]))
            s = int(rng.choice([1, 2]))
            x = Tensor(rng.normal(size=(1, c_in, 4, 4)))
            w = Tensor(rng.normal(size=(c_out, c_in // groups, k, k)))
            ho = (4 + 2 * (k // 2) - k) // s + 1
            probe = rng.normal(size=(1, c_out, ho, ho))

            def run(weight):
                tape = Tape()
                out = tape.conv2d(x, weight, stride=s, padding=k // 2, groups=groups)
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run(w)
            tape.backward(loss)
            fd = finite_diff_grad(lambda t: run(t)[1].item(), w)
            assert_close_to_fd(tape.grad(w).data, fd)

        # k=5 at stride 1, then padding > k - 1, which takes the column
        # path; a 1x1 conv in front makes the input gradient reach w0
        for k, p, groups, c_in in [(5, 2, 1, 2), (5, 2, 2, 4), (5, 2, 3, 3),
                                   (1, 1, 1, 2), (1, 1, 3, 3), (3, 3, 2, 4)]:
            x = Tensor(rng.normal(size=(1, c_in, 4, 4)))
            w0 = Tensor(rng.normal(size=(c_in, c_in, 1, 1)))
            w = Tensor(rng.normal(size=(c_in, c_in // groups, k, k)))
            ho = 4 + 2 * p - k + 1
            probe = rng.normal(size=(1, c_in, ho, ho))

            def run(first, weight):
                tape = Tape()
                h = tape.conv2d(x, first)
                out = tape.conv2d(h, weight, padding=p, groups=groups)
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run(w0, w)
            tape.backward(loss)
            assert_close_to_fd(tape.grad(w0).data,
                               finite_diff_grad(lambda t: run(t, w)[1].item(), w0))
            assert_close_to_fd(tape.grad(w).data,
                               finite_diff_grad(lambda t: run(w0, t)[1].item(), w))

    def test_dense(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = Tensor(rng.normal(size=(1, 4)))
            w = Tensor(rng.normal(size=(3, 4)))
            b = Tensor(rng.normal(size=(3,)))
            probe = rng.normal(size=(1, 3))

            def run(weight, bias):
                tape = Tape()
                out = tape.dense(x, weight, bias)
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run(w, b)
            tape.backward(loss)
            fd_w = finite_diff_grad(lambda t: run(t, b)[1].item(), w)
            fd_b = finite_diff_grad(lambda t: run(w, t)[1].item(), b)
            assert_close_to_fd(tape.grad(w).data, fd_w)
            assert_close_to_fd(tape.grad(b).data, fd_b)

    def test_relu(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 20:
            x = Tensor(rng.normal(size=(1, 2, 3, 3)))
            w = Tensor(rng.normal(size=(2, 2, 3, 3)))
            pre = Tape().conv2d(x, w, padding=1)
            if np.abs(pre.data).min() < 1e-2:  # keep clear of the kink
                continue
            done += 1
            probe = rng.normal(size=pre.shape)

            def run(weight):
                tape = Tape()
                h = tape.conv2d(x, weight, padding=1)
                out = tape.relu(h)
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run(w)
            tape.backward(loss)
            fd = finite_diff_grad(lambda t: run(t)[1].item(), w)
            assert_close_to_fd(tape.grad(w).data, fd)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = Tensor(rng.normal(size=(1, 3, 3, 3)))
            w = Tensor(rng.normal(size=(3, 3, 1, 1)))
            probe = rng.normal(size=(1, 3))

            def run(weight):
                tape = Tape()
                y = tape.conv2d(x, weight)
                out = tape.global_avg_pool(y)
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run(w)
            tape.backward(loss)
            fd = finite_diff_grad(lambda t: run(t)[1].item(), w)
            assert_close_to_fd(tape.grad(w).data, fd)

    def test_residual_add(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = Tensor(rng.normal(size=(1, 3)))
            w1 = Tensor(rng.normal(size=(3, 3)))
            w2 = Tensor(rng.normal(size=(3, 3)))
            probe = rng.normal(size=(1, 3))

            def run(wa, wb):
                tape = Tape()
                a = tape.dense(x, wa)
                b = tape.dense(x, wb)
                out = tape.residual_add(a, b)
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run(w1, w2)
            tape.backward(loss)
            fd1 = finite_diff_grad(lambda t: run(t, w2)[1].item(), w1)
            fd2 = finite_diff_grad(lambda t: run(w1, t)[1].item(), w2)
            assert_close_to_fd(tape.grad(w1).data, fd1)
            assert_close_to_fd(tape.grad(w2).data, fd2)

    def test_cross_entropy_loss(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            x = Tensor(rng.normal(size=(4, 3)))
            w = Tensor(rng.normal(size=(5, 3)))
            labels = rng.integers(0, 5, size=4)

            def run(weight):
                tape = Tape()
                logits = tape.dense(x, weight)
                return tape, tape.cross_entropy_loss(logits, labels)

            tape, loss = run(w)
            tape.backward(loss)
            fd = finite_diff_grad(lambda t: run(t)[1].item(), w)
            assert_close_to_fd(tape.grad(w).data, fd)

    def test_two_conv_network(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = Tensor(rng.normal(size=(2, 2, 4, 4)))
            w1 = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5)
            w2 = Tensor(rng.normal(size=(2, 3, 3, 3)) * 0.5)
            wd = Tensor(rng.normal(size=(3, 2)))
            labels = rng.integers(0, 3, size=2)

            def run(a, b, d):
                tape = Tape()
                h = tape.conv2d(x, a, stride=1, padding=1)
                h = tape.conv2d(h, b, stride=2, padding=1, groups=1)
                h = tape.global_avg_pool(h)
                logits = tape.dense(h, d)
                return tape, tape.cross_entropy_loss(logits, labels)

            tape, loss = run(w1, w2, wd)
            tape.backward(loss)
            for param, rebuild in [
                (w1, lambda t: run(t, w2, wd)[1].item()),
                (w2, lambda t: run(w1, t, wd)[1].item()),
                (wd, lambda t: run(w1, w2, t)[1].item()),
            ]:
                assert_close_to_fd(tape.grad(param).data, finite_diff_grad(rebuild, param))


    @pytest.mark.parametrize("stride,k", [(1, 3), (2, 3), (1, 5), (2, 5)])
    def test_regular_then_depthwise_conv(self, stride, k):
        # the depthwise conv's input gradient is what reaches w1
        rng = np.random.default_rng(18 + 10 * stride + k)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)))
        w1 = Tensor(rng.normal(size=(3, 2, 3, 3)))
        w2 = Tensor(rng.normal(size=(3, 1, k, k)))
        ho = (6 + 2 * (k // 2) - k) // stride + 1
        probe = rng.normal(size=(1, 3, ho, ho))

        def run(a, b):
            tape = Tape()
            h = tape.conv2d(x, a, padding=1)
            out = tape.conv2d(h, b, stride=stride, padding=k // 2, groups=3)
            return tape, probe_to_scalar(tape, out, probe)

        tape, loss = run(w1, w2)
        tape.backward(loss)
        assert_close_to_fd(tape.grad(w1).data,
                           finite_diff_grad(lambda t: run(t, w2)[1].item(), w1))
        assert_close_to_fd(tape.grad(w2).data,
                           finite_diff_grad(lambda t: run(w1, t)[1].item(), w2))


class TestSeededFill:
    """The program's three seeded draws: Kaiming-normal weights in
    `init_weights`, standard-Gaussian inputs and uniform labels in
    `make_batches`."""

    def test_gaussian_determinism(self):
        graph = compile_genome(Genome("resnet_like", (StageGene(1, 8, 3, "regular", 1),),
                                      8, 4, (4, 4)))
        a, b = (make_batches(graph, 2, 3, seed=42) for _ in range(2))
        assert [x.data.tobytes() for x, _ in a] == [x.data.tobytes() for x, _ in b]
        assert a[0][0].data.tobytes() != a[1][0].data.tobytes()

    def test_kaiming_sample_std(self):
        genome = Genome("resnet_like", (StageGene(2, 128, 5, "regular", 1),), 16, 10,
                        (4, 4))
        graph = init_weights(compile_genome(genome), seed=7)
        # every weight over its layer's std sqrt(2 / fan_in): about 1.3M draws
        unit = np.concatenate([
            layer.weight.data.ravel() / math.sqrt(2.0 / math.prod(layer.weight.shape[1:]))
            for layer in graph.layers])
        assert unit.size > 1_000_000
        assert abs(unit.std() - 1.0) < 0.01
        assert not graph.layers[-1].bias.data.any()

    def test_uniform_int_frequencies(self):
        graph = compile_genome(Genome("resnet_like", (StageGene(1, 8, 3, "regular", 1),),
                                      8, 10, (1, 1)))
        labels = np.concatenate([y for _, y in make_batches(graph, 100, 1000, seed=9)])
        assert labels.dtype == np.int64
        counts = np.bincount(labels, minlength=10)
        assert counts.size == 10
        assert np.all(np.abs(counts - 10_000) < 500)


def _forward_backward_digest(seed: int) -> str:
    x = seeded_fill((2, 2, 6, 6), "gaussian", seed)
    w1 = seeded_fill((4, 2, 3, 3), "kaiming_normal", seed + 1, fan_in=18)
    wd = seeded_fill((3, 4), "kaiming_normal", seed + 2, fan_in=4)
    labels = seeded_fill((2,), "uniform_int", seed + 3, lo=0, hi=3).data.astype(int)
    tape = Tape()
    h = tape.conv2d(x, w1, stride=2, padding=1)
    h = tape.relu(h)
    h = tape.global_avg_pool(h)
    logits = tape.dense(h, wd)
    loss = tape.cross_entropy_loss(logits, labels)
    tape.backward(loss)
    return tensor_digest([loss, tape.grad(w1), tape.grad(wd)])


class TestDeterminism:
    def test_bit_identical_across_runs(self):
        assert _forward_backward_digest(5) == _forward_backward_digest(5)

    def test_bit_identical_across_threads(self):
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            digests = list(pool.map(_forward_backward_digest, [5] * 16))
        assert len(set(digests)) == 1
