"""Dense float64 tensors with reverse-mode differentiation.

Implements exactly the op set the searchable network families need:
grouped 2-D convolution, ReLU, global average pooling, dense layers,
residual addition, and cross-entropy loss. Ops execute eagerly on numpy
arrays; a Tape records each primitive so gradients of a scalar loss with
respect to every parameter can be replayed in reverse execution order.

Everything is float64 and deterministic: identical inputs and seeds give
bit-identical results, independent of how many evaluations run in
parallel on other tapes.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


class TensorError(ValueError):
    """Invalid tensor construction or fill parameters."""


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform; message names the op and dims."""


class TapeError(RuntimeError):
    """Backward pass invoked on an unusable tape or loss."""


class Tensor:
    """Immutable dense array of float64 values.

    Activations use (N, C, H, W) layout; conv weights use
    (C_out, C_in / groups, K_h, K_w). The underlying buffer is row-major
    and write-protected, so a tensor can be shared freely across threads.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if any(extent < 1 for extent in arr.shape):
            raise TensorError(f"non-positive extent in shape {arr.shape}")
        arr.setflags(write=False)
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape})"


def zeros(shape: Sequence[int]) -> Tensor:
    return Tensor(np.zeros(tuple(shape), dtype=np.float64))


def seeded_fill(shape: Sequence[int], distribution: str, seed: int, **params) -> Tensor:
    """Deterministically fill a tensor from a named distribution.

    Supported distributions:
      * ``gaussian``       -- params ``mean`` (default 0.0) and ``std`` (> 0)
      * ``kaiming_normal`` -- param ``fan_in`` (> 0); std = sqrt(2 / fan_in)
      * ``uniform_int``    -- params ``lo`` and ``hi``; integers in [lo, hi)

    Identical (shape, distribution, params, seed) produce bit-identical
    tensors.
    """
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in shape)
    if distribution == "gaussian":
        mean = float(params.pop("mean", 0.0))
        std = float(params.pop("std", 1.0))
        if std <= 0.0:
            raise TensorError(f"gaussian std must be > 0, got {std}")
        _reject_extras("gaussian", params)
        values = rng.normal(loc=mean, scale=std, size=shape)
    elif distribution == "kaiming_normal":
        fan_in = int(params.pop("fan_in"))
        if fan_in <= 0:
            raise TensorError(f"kaiming_normal fan_in must be > 0, got {fan_in}")
        _reject_extras("kaiming_normal", params)
        values = rng.normal(loc=0.0, scale=math.sqrt(2.0 / fan_in), size=shape)
    elif distribution == "uniform_int":
        lo = int(params.pop("lo"))
        hi = int(params.pop("hi"))
        if hi <= lo:
            raise TensorError(f"uniform_int needs lo < hi, got [{lo}, {hi})")
        _reject_extras("uniform_int", params)
        values = rng.integers(lo, hi, size=shape).astype(np.float64)
    else:
        raise TensorError(f"unknown distribution {distribution!r}")
    return Tensor(values)


def _reject_extras(distribution: str, params: dict) -> None:
    if params:
        raise TensorError(f"unexpected {distribution} parameters: {sorted(params)}")


class _Record:
    """One executed primitive: output node plus per-input adjoint rules."""

    __slots__ = ("op", "output", "pulls")

    def __init__(self, op: str, output: Tensor,
                 pulls: list[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]]) -> None:
        self.op = op
        self.output = output
        self.pulls = pulls


class Tape:
    """Records primitive ops and replays them backward for gradients.

    A tape is single-owner: one forward evaluation followed by one
    backward call. Parameters are the tensors passed through the param
    arguments of ops (conv/dense weights and biases); after backward every
    parameter has a gradient slot, zero when the parameter does not reach
    the loss.
    """

    def __init__(self) -> None:
        self._records: list[_Record] = []
        self._params: dict[int, Tensor] = {}
        self._outputs: set[int] = set()
        self._grads: dict[int, np.ndarray] = {}

    # -- op entry points ---------------------------------------------------

    def conv2d(self, x: Tensor, weight: Tensor, stride: int = 1,
               padding: int = 0, groups: int = 1) -> Tensor:
        if x.data.ndim != 4:
            raise ShapeMismatchError(f"conv2d: input must be 4-d, got {x.shape}")
        if weight.data.ndim != 4:
            raise ShapeMismatchError(f"conv2d: weight must be 4-d, got {weight.shape}")
        n, c_in, h, w = x.shape
        c_out, c_in_g, kh, kw = weight.shape
        if stride < 1 or padding < 0 or groups < 1:
            raise ShapeMismatchError(
                f"conv2d: invalid stride/padding/groups ({stride}, {padding}, {groups})")
        if c_in % groups != 0 or c_out % groups != 0:
            raise ShapeMismatchError(
                f"conv2d: channels ({c_in} in, {c_out} out) not divisible by groups {groups}")
        if c_in_g != c_in // groups:
            raise ShapeMismatchError(
                f"conv2d: weight expects {c_in_g} channels/group, input has {c_in // groups}")
        h_out = (h + 2 * padding - kh) // stride + 1
        w_out = (w + 2 * padding - kw) // stride + 1
        if h_out < 1 or w_out < 1:
            raise ShapeMismatchError(
                f"conv2d: kernel {kh}x{kw} stride {stride} on {h}x{w} input "
                f"gives non-positive output extent")

        xp = x.data
        if padding:
            xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        cols = _im2col(xp, kh, kw, stride, h_out, w_out)  # (n, c_in*kh*kw, L)
        L = h_out * w_out
        ckk = c_in_g * kh * kw
        cols_g = cols.reshape(n, groups, ckk, L)
        w_g = weight.data.reshape(groups, c_out // groups, ckk)
        out = np.matmul(w_g[None], cols_g)  # (n, groups, c_out/g, L)
        out = out.reshape(n, c_out, h_out, w_out)
        result = Tensor(out)

        x_padded_shape = xp.shape

        def pull_weight(go: np.ndarray) -> np.ndarray:
            go_g = go.reshape(n, groups, c_out // groups, L)
            gw = np.matmul(go_g, cols_g.transpose(0, 1, 3, 2)).sum(axis=0)
            return gw.reshape(weight.shape)

        def pull_x(go: np.ndarray) -> np.ndarray:
            go_g = go.reshape(n, groups, c_out // groups, L)
            gcols = np.matmul(w_g.transpose(0, 2, 1)[None], go_g)
            gcols = gcols.reshape(n, c_in * kh * kw, L)
            gxp = _col2im(gcols, x_padded_shape, kh, kw, stride, h_out, w_out)
            if padding:
                gxp = gxp[:, :, padding:padding + h, padding:padding + w]
            return gxp

        self._record("conv2d", result, [(x, pull_x)], [(weight, pull_weight)])
        return result

    def relu(self, x: Tensor) -> Tensor:
        out = Tensor(np.maximum(x.data, 0.0))
        mask = x.data > 0.0

        def pull(go: np.ndarray) -> np.ndarray:
            return go * mask

        self._record("relu", out, [(x, pull)], [])
        return out

    def global_avg_pool(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4:
            raise ShapeMismatchError(f"global_avg_pool: input must be 4-d, got {x.shape}")
        n, c, h, w = x.shape
        out = Tensor(x.data.mean(axis=(2, 3)))

        def pull(go: np.ndarray) -> np.ndarray:
            return np.broadcast_to(go[:, :, None, None] / (h * w), (n, c, h, w)).copy()

        self._record("global_avg_pool", out, [(x, pull)], [])
        return out

    def dense(self, x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
        if x.data.ndim != 2 or weight.data.ndim != 2:
            raise ShapeMismatchError(
                f"dense: need 2-d input and weight, got {x.shape} and {weight.shape}")
        n, f_in = x.shape
        f_out, f_w = weight.shape
        if f_w != f_in:
            raise ShapeMismatchError(
                f"dense: input features {f_in} != weight features {f_w}")
        out_data = x.data @ weight.data.T
        if bias is not None:
            if bias.shape != (f_out,):
                raise ShapeMismatchError(
                    f"dense: bias shape {bias.shape} != ({f_out},)")
            out_data = out_data + bias.data
        out = Tensor(out_data)

        def pull_x(go: np.ndarray) -> np.ndarray:
            return go @ weight.data

        def pull_w(go: np.ndarray) -> np.ndarray:
            return go.T @ x.data

        params = [(weight, pull_w)]
        if bias is not None:
            params.append((bias, lambda go: go.sum(axis=0)))
        self._record("dense", out, [(x, pull_x)], params)
        return out

    def residual_add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeMismatchError(
                f"residual_add: operand shapes {a.shape} and {b.shape} differ")
        out = Tensor(a.data + b.data)
        identity = lambda go: go
        self._record("residual_add", out, [(a, identity), (b, identity)], [])
        return out

    def cross_entropy_loss(self, logits: Tensor, labels) -> Tensor:
        if logits.data.ndim != 2:
            raise ShapeMismatchError(
                f"cross_entropy_loss: logits must be 2-d, got {logits.shape}")
        n, k = logits.shape
        lab = np.asarray(labels)
        if lab.shape != (n,):
            raise ShapeMismatchError(
                f"cross_entropy_loss: labels shape {lab.shape} != ({n},)")
        lab = lab.astype(np.int64)
        if lab.min() < 0 or lab.max() >= k:
            raise ShapeMismatchError(
                f"cross_entropy_loss: labels outside [0, {k})")
        z = logits.data
        zmax = z.max(axis=1, keepdims=True)
        shifted = z - zmax
        lse = np.log(np.exp(shifted).sum(axis=1)) + zmax[:, 0]
        picked = z[np.arange(n), lab]
        loss = Tensor(np.mean(lse - picked))

        def pull(go: np.ndarray) -> np.ndarray:
            softmax = np.exp(shifted)
            softmax /= softmax.sum(axis=1, keepdims=True)
            softmax[np.arange(n), lab] -= 1.0
            return softmax * (float(go.reshape(-1)[0]) / n)

        self._record("cross_entropy_loss", loss, [(logits, pull)], [])
        return loss

    # -- reverse pass -------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Populate every parameter gradient slot with d(loss)/d(param)."""
        if not self._records:
            raise TapeError("backward on an empty tape")
        if loss.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        if id(loss) not in self._outputs:
            raise TapeError("loss was not produced by ops on this tape")

        adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for record in reversed(self._records):
            go = adjoint.pop(id(record.output), None)
            if go is None:
                continue
            for tensor, pull in record.pulls:
                g = pull(go)
                slot = adjoint.get(id(tensor))
                if slot is None:
                    adjoint[id(tensor)] = g
                else:
                    adjoint[id(tensor)] = slot + g

        self._grads = {}
        for tid, param in self._params.items():
            g = adjoint.get(tid)
            self._grads[tid] = g if g is not None else np.zeros_like(param.data)

    def grad(self, param: Tensor) -> Tensor:
        if id(param) not in self._params:
            raise TapeError("tensor is not a parameter on this tape")
        if id(param) not in self._grads:
            raise TapeError("grad() called before backward()")
        return Tensor(self._grads[id(param)])

    # -- internals -----------------------------------------------------------

    def _record(self, op: str, output: Tensor,
                inputs: list[tuple[Tensor, Callable]],
                params: list[tuple[Tensor, Callable]]) -> None:
        for tensor, _ in params:
            self._params.setdefault(id(tensor), tensor)
        self._records.append(_Record(op, output, inputs + params))
        self._outputs.add(id(output))


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int,
            h_out: int, w_out: int) -> np.ndarray:
    """Extract conv patches from a padded (n, c, h, w) array as (n, c*kh*kw, L)."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, h_out, w_out),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    return patches.reshape(n, c * kh * kw, h_out * w_out)


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int,
            stride: int, h_out: int, w_out: int) -> np.ndarray:
    """Scatter-add (n, c*kh*kw, L) columns back onto the padded input grid."""
    n, c = x_shape[:2]
    out = np.zeros(x_shape, dtype=np.float64)
    cols = cols.reshape(n, c, kh, kw, h_out, w_out)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += \
                cols[:, :, i, j]
    return out
