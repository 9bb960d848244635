"""Dense float64 tensors with reverse-mode differentiation.

Implements exactly the op set the searchable network families need:
grouped 2-D convolution, ReLU, global average pooling, dense layers,
residual addition, and cross-entropy loss. Ops execute eagerly on numpy
arrays; a Tape records each primitive so gradients of a scalar loss with
respect to every parameter can be replayed in reverse execution order.

Everything is float64 and deterministic: identical inputs give
bit-identical results, independent of how many evaluations run in
parallel on other tapes and of how many workers a tape's own pool has.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable

import numpy as np


class TensorError(ValueError):
    """Invalid tensor construction or element access."""


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform; message names the op and dims."""


class TapeError(RuntimeError):
    """Backward pass invoked on an unusable tape or loss."""


class Tensor:
    """Immutable dense array of float64 values.

    Activations use (N, C, H, W) layout; conv weights use
    (C_out, C_in / groups, K_h, K_w). The underlying buffer is row-major
    and write-protected, so a tensor can be shared freely across threads.
    A tensor a tape op produced carries that op's node; a leaf has none.
    """

    __slots__ = ("data", "node")

    def __init__(self, data) -> None:
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if any(extent < 1 for extent in arr.shape):
            raise TensorError(f"non-positive extent in shape {arr.shape}")
        arr.setflags(write=False)
        self.data = arr
        self.node: _Node | None = None

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


class WorkerPool(ThreadPoolExecutor):
    """A pool that splits work `workers` ways, `workers` >= 2.

    It holds workers - 1 threads: the thread that splits work over the
    pool is the last worker, and runs a share of every split itself.
    """

    def __init__(self, workers: int) -> None:
        super().__init__(max_workers=workers - 1)
        self.workers = workers


class _Node:
    """The adjoint key of one tensor a tape op produced.

    `owner` is its tape's token, not the tape itself, so a tensor that
    outlives its tape keeps none of the tape's records alive.
    """

    __slots__ = ("owner",)

    def __init__(self, owner: object) -> None:
        self.owner = owner


class Tape:
    """Records primitive ops and replays them backward for gradients.

    A tape is single-owner: one forward evaluation followed by one
    backward call. Parameters are the tensors passed through the param
    arguments of ops (conv/dense weights and biases); after backward every
    parameter has a gradient slot, zero when the parameter does not reach
    the loss. A tensor an op on this tape produced cannot also be one of
    its parameters.

    Each op leaves one record: its output's node, the keys of its inputs
    and parameters (parameters last), and one adjoint rule. The rule maps
    the output gradient and a list saying which of those gradients are
    wanted to one gradient per key. A record keys its adjoint by its
    output's node, not by the output tensor, and keeps only what its rule
    reads: a conv's padded input, a ReLU's mask, a dense layer's input,
    and the parameters. So an activation is freed as soon as no later op
    and no caller holds it; a conv output that only a ReLU reads dies
    during forward. A conv keeps its padded input, not its im2col columns.

    A conv's rule is one per-sample kernel that gives the weight products
    and, when wanted, the input gradient. At stride 1 with padding < k
    both come from one gather of the zero-padded output gradient
    (`_gathered_rule`): no col2im, and no second gather of the input. Any
    other conv (stride 2, or padding >= k) rebuilds the input's columns
    for the weight products, and its input gradient is a GEMM plus
    col2im, or for a depthwise conv its taps added directly, which is
    faster there.

    Backward wants a gradient only for a parameter or the output of an op
    on this tape, and skips a record that wants none: the input gradient
    of a leaf, such as the data batch the stem conv reads, is never
    computed. Backward consumes the tape, freeing each record once its
    rule has run, so a second backward raises TapeError.

    Each op allocates its results uninitialised and fills them through
    one helper, `_by_sample`. Without a pool that is one kernel call over
    the whole batch. Given a pool, the batch splits into contiguous sample
    ranges, one per worker, and the calling thread runs the first range
    itself. Each range calls the kernel one sample at a time: a conv's two
    kernels (the forward with its padding, then the gradients), ReLU (both
    passes) and residual_add alike, each call writing disjoint slices of
    the results. Pooling, the dense head, the loss, the sum of a conv's
    weight products and the adjoint accumulation stay whole-batch on the
    calling thread, and so does every Tape method: only the array work
    inside a call moves. Per-sample products are the same GEMMs and sums
    as whole-batch ones, so both give the same bytes.
    """

    def __init__(self, pool: WorkerPool | None = None) -> None:
        self._pool = pool
        self._token = object()  # the owner of this tape's nodes
        # one (output node, input keys, adjoint rule) per executed
        # primitive; a key is the input's node when this tape produced it,
        # else the input tensor itself
        self._records: list[tuple[_Node, list[_Node | Tensor], Callable]] = []
        self._params: dict[int, Tensor] = {}
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

        pool = self._pool  # the closures below must not hold the tape
        L = h_out * w_out
        ckk = c_in_g * kh * kw
        c_out_g = c_out // groups

        def columns(xp: np.ndarray) -> np.ndarray:
            # rebuilt for the weight gradient rather than kept on the tape:
            # same values, same GEMM, same bytes
            return _im2col(xp, kh, kw, stride, h_out, w_out).reshape(
                len(xp), groups, ckk, L)

        w_g = weight.data.reshape(groups, c_out_g, ckk)

        def forward(lo: int, hi: int, out: np.ndarray, xp: np.ndarray) -> None:
            _pad(x.data[lo:hi], padding, padding, out=xp)  # unpadded, xp is x.data
            np.matmul(w_g[None], columns(xp), out=out)

        out = np.empty((n, groups, c_out_g, L))
        xp = np.empty((n, c_in, h + 2 * padding, w + 2 * padding)) if padding else x.data
        _by_sample(pool, forward, out, xp)
        result = Tensor(out.reshape(n, c_out, h_out, w_out))

        if stride == 1 and padding < min(kh, kw):  # every compiled stride-1 conv
            self._record(result, [x], [weight],
                         _gathered_rule(pool, xp, weight.data, groups, padding, (h, w)))
            return result

        def rule(go: np.ndarray, wanted: list[bool]) -> list[np.ndarray | None]:
            def kernel(lo: int, hi: int, products: np.ndarray,
                       gxp: np.ndarray | None) -> None:
                go_g = go[lo:hi].reshape(hi - lo, groups, c_out_g, L)
                np.matmul(go_g, columns(xp[lo:hi]).transpose(0, 1, 3, 2), out=products)
                if gxp is None:
                    return
                # the one kernel that accumulates into its out, so the one
                # that zeroes it
                gxp.fill(0.0)
                if groups == c_in == c_out:
                    # depthwise: the GEMM's inner dimension is 1, so each
                    # column entry is one exact product; adding the taps in
                    # col2im's (i, j) order gives the same bytes in less time
                    taps = weight.data[:, 0]
                    for i in range(kh):
                        for j in range(kw):
                            gxp[:, :, i:i + stride * h_out:stride,
                                j:j + stride * w_out:stride] += \
                                taps[:, i, j, None, None] * go[lo:hi]
                else:
                    gcols = np.matmul(w_g.transpose(0, 2, 1)[None], go_g)
                    _col2im(gcols.reshape(hi - lo, c_in * kh * kw, L), gxp,
                            kh, kw, stride, h_out, w_out)

            products = np.empty((n, groups, c_out_g, ckk))
            gxp = np.empty(xp.shape) if wanted[0] else None
            _by_sample(pool, kernel, products, gxp)
            gx = None if gxp is None else gxp[:, :, padding:padding + h, padding:padding + w]
            return [gx, products.sum(axis=0).reshape(weight.shape)]

        self._record(result, [x], [weight], rule)
        return result

    def relu(self, x: Tensor) -> Tensor:
        pool = self._pool  # the rule below must not hold the tape
        data, mask = np.empty(x.shape), np.empty(x.shape, bool)

        def forward(lo: int, hi: int, out: np.ndarray, mask: np.ndarray) -> None:
            np.maximum(x.data[lo:hi], 0.0, out=out)
            np.greater(x.data[lo:hi], 0.0, out=mask)

        _by_sample(pool, forward, data, mask)
        out = Tensor(data)

        def rule(go: np.ndarray, wanted: list[bool]) -> list[np.ndarray]:
            gx = np.empty(go.shape)
            _by_sample(pool, lambda lo, hi, g: np.multiply(go[lo:hi], mask[lo:hi], out=g), gx)
            return [gx]

        self._record(out, [x], [], rule)
        return out

    def global_avg_pool(self, x: Tensor) -> Tensor:
        if x.data.ndim != 4:
            raise ShapeMismatchError(f"global_avg_pool: input must be 4-d, got {x.shape}")
        n, c, h, w = x.shape
        out = Tensor(x.data.mean(axis=(2, 3)))

        def rule(go: np.ndarray, wanted: list[bool]) -> list[np.ndarray]:
            return [np.broadcast_to(go[:, :, None, None] / (h * w), (n, c, h, w)).copy()]

        self._record(out, [x], [], rule)
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

        def rule(go: np.ndarray, wanted: list[bool]) -> list[np.ndarray | None]:
            grads = [go @ weight.data if wanted[0] else None, go.T @ x.data]
            return grads if bias is None else grads + [go.sum(axis=0)]

        self._record(out, [x], [weight] if bias is None else [weight, bias], rule)
        return out

    def residual_add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeMismatchError(
                f"residual_add: operand shapes {a.shape} and {b.shape} differ")
        data = np.empty(a.shape)
        _by_sample(self._pool,
                   lambda lo, hi, out: np.add(a.data[lo:hi], b.data[lo:hi], out=out), data)
        out = Tensor(data)
        self._record(out, [a, b], [], lambda go, wanted: [go, go])
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

        def rule(go: np.ndarray, wanted: list[bool]) -> list[np.ndarray]:
            softmax = np.exp(shifted)
            softmax /= softmax.sum(axis=1, keepdims=True)
            softmax[np.arange(n), lab] -= 1.0
            return [softmax * (float(go.reshape(-1)[0]) / n)]

        self._record(loss, [logits], [], rule)
        return loss

    # -- reverse pass -------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Populate every parameter gradient slot with d(loss)/d(param)."""
        if not self._records:
            raise TapeError("backward on an empty tape, or one whose backward "
                            "already ran")
        if loss.size != 1:
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        if not self._owns(loss):
            raise TapeError("loss was not produced by ops on this tape")

        # Op outputs are keyed by node and parameters by id(): the tape
        # holds every parameter, so no live parameter shares its id.
        adjoint: dict[_Node | int, np.ndarray] = {loss.node: np.ones_like(loss.data)}
        while self._records:
            node, keys, rule = self._records.pop()
            go = adjoint.pop(node, None)
            if go is None:
                continue
            # a leaf's key is None: nothing reads its gradient
            keys = [key if isinstance(key, _Node) else
                    id(key) if id(key) in self._params else None for key in keys]
            wanted = [key is not None for key in keys]
            if not any(wanted):
                continue
            for key, g in zip(keys, rule(go, wanted)):
                if key is not None:
                    slot = adjoint.get(key)
                    adjoint[key] = g if slot is None else slot + g

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

    def _owns(self, tensor: Tensor) -> bool:
        return tensor.node is not None and tensor.node.owner is self._token

    def _record(self, output: Tensor, inputs: list[Tensor], params: list[Tensor],
                rule: Callable) -> None:
        for tensor in params:
            if self._owns(tensor):
                raise TapeError("a tensor produced by an op on this tape "
                                "cannot be a parameter of it")
            self._params.setdefault(id(tensor), tensor)
        output.node = _Node(self._token)
        keys = [t.node if self._owns(t) else t for t in inputs + params]
        self._records.append((output.node, keys, rule))


def _split(pool: WorkerPool | None, n: int, run: Callable[[int, int], object]) -> None:
    """Call `run(lo, hi)` over contiguous sample ranges that cover [0, n).

    Without a pool it is one call over [0, n). With one, the batch splits
    into min(pool.workers, n) ranges: the pool's threads take all but the
    first, and the calling thread runs the first and then waits for the
    rest. It waits for them also when its own range raises, so no worker
    still writes into a result once this returns or raises.
    """
    if pool is None:
        run(0, n)
        return
    runs = min(pool.workers, n)
    bounds = [n * r // runs for r in range(runs + 1)]
    futures = [pool.submit(run, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        run(bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _by_sample(pool: WorkerPool | None, kernel: Callable, *outs: np.ndarray | None) -> None:
    """Fill the (n, ...) arrays `outs` by `kernel(lo, hi, *outs[lo:hi])`.

    Each call gets the [lo, hi) slice of every out (an out that is None
    stays None) and must write those slices whole: results are allocated
    uninitialised. Without a pool it is one call over the whole batch.
    With one, the ranges of `_split` call the kernel one sample at a time,
    so temporaries stay one sample in size.
    """
    n = len(outs[0])
    step = n if pool is None else 1

    def run(lo: int, hi: int) -> None:
        for s in range(lo, hi, step):
            kernel(s, s + step, *[out if out is None else out[s:s + step] for out in outs])

    _split(pool, n, run)


def _gathered_rule(pool: WorkerPool | None, xp: np.ndarray, weight: np.ndarray,
                   groups: int, padding: int, extent: tuple[int, int]) -> Callable:
    """The adjoint rule of a stride-1 conv with padding < k.

    Both gradients come from one gather: G, the im2col columns of the
    output gradient padded by k - 1 - padding, one column per pixel of
    the unpadded (h, w) input. G times the input's interior is the weight
    gradient with its taps flipped; the flipped kernel, transposed per
    group, times G is the input gradient. The rule allocates the weight
    products and, when it is wanted, the input gradient, and one kernel
    fills both through `_by_sample`.
    """
    n, c_in = xp.shape[:2]
    c_out, c_in_g, kh, kw = weight.shape
    h, w = extent
    c_out_g = c_out // groups
    rows = c_out_g * kh * kw

    def grad_columns(go: np.ndarray, lo: int, hi: int) -> np.ndarray:
        gop = _pad(go[lo:hi], kh - 1 - padding, kw - 1 - padding)
        return _im2col(gop, kh, kw, 1, h, w).reshape(hi - lo, groups, rows, h * w)

    def rule(go: np.ndarray, wanted: list[bool]) -> list[np.ndarray | None]:
        w_t = weight.reshape(groups, c_out_g, c_in_g, kh, kw)[..., ::-1, ::-1].transpose(
            0, 2, 1, 3, 4).reshape(groups, c_in_g, rows)

        def kernel(lo: int, hi: int, products: np.ndarray, gx: np.ndarray | None) -> None:
            cols = grad_columns(go, lo, hi)
            # reshaping the strided interior copies it contiguous: a
            # temporary the size of the call's samples, alive next to the
            # input gradient, which is allocated before the first call
            interior = xp[lo:hi, :, padding:padding + h, padding:padding + w]
            np.matmul(cols, interior.reshape(hi - lo, groups, c_in_g, h * w).transpose(
                0, 1, 3, 2), out=products)
            if gx is not None:
                np.matmul(w_t[None], cols, out=gx.reshape(hi - lo, groups, c_in_g, h * w))

        products = np.empty((n, groups, rows, c_in_g))
        gx = np.empty((n, c_in, h, w)) if wanted[0] else None
        _by_sample(pool, kernel, products, gx)
        flipped = products.sum(axis=0).reshape(groups, c_out_g, kh, kw, c_in_g)
        return [gx, flipped.transpose(0, 1, 4, 2, 3)[..., ::-1, ::-1].reshape(weight.shape)]

    return rule


def _pad(a: np.ndarray, ph: int, pw: int, out: np.ndarray | None = None) -> np.ndarray:
    """`a` (n, c, h, w) zero-padded by ph rows and pw columns on each side.

    The bytes of np.pad's constant mode, without its per-call overhead,
    written into `out` when it is given and else into a new array.
    """
    if not (ph or pw):
        return a
    n, c, h, w = a.shape
    if out is None:
        out = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    else:
        out.fill(0.0)
    out[:, :, ph:ph + h, pw:pw + w] = a
    return out


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


def _col2im(cols: np.ndarray, out: np.ndarray, kh: int, kw: int,
            stride: int, h_out: int, w_out: int) -> np.ndarray:
    """Scatter-add (n, c*kh*kw, L) columns onto the padded (n, c, h, w) `out`."""
    n, c = out.shape[:2]
    cols = cols.reshape(n, c, kh, kw, h_out, w_out)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += \
                cols[:, :, i, j]
    return out
