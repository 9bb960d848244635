import concurrent.futures
import math

import numpy as np
import pytest

from helpers import tensor_digest
from zicobc.tensor import (
    ShapeMismatchError,
    Tape,
    TapeError,
    Tensor,
    TensorError,
    seeded_fill,
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


class TestFiniteDifferenceOracle:
    """Every op kind checked against central finite differences."""

    def test_conv2d(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            groups = int(rng.choice([1, 2]))
            c_in, c_out = 2 * groups, 2 * groups
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


class TestSeededFill:
    def test_gaussian_determinism(self):
        a = seeded_fill((4, 4), "gaussian", 42, mean=0.0, std=1.0)
        b = seeded_fill((4, 4), "gaussian", 42, mean=0.0, std=1.0)
        assert a.data.tobytes() == b.data.tobytes()

    def test_kaiming_sample_std(self):
        fan_in = 50
        t = seeded_fill((1_000_000,), "kaiming_normal", 7, fan_in=fan_in)
        expected = math.sqrt(2.0 / fan_in)
        assert abs(t.data.std() - expected) / expected < 0.01

    def test_uniform_int_frequencies(self):
        t = seeded_fill((100_000,), "uniform_int", 9, lo=0, hi=10)
        counts = np.bincount(t.data.astype(int), minlength=10)
        assert counts.size == 10
        assert np.all(np.abs(counts - 10_000) < 500)

    def test_invalid_params(self):
        with pytest.raises(TensorError):
            seeded_fill((2,), "gaussian", 0, std=0.0)
        with pytest.raises(TensorError):
            seeded_fill((2,), "uniform_int", 0, lo=5, hi=5)
        with pytest.raises(TensorError):
            seeded_fill((2,), "nope", 0)


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
