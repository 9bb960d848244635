"""Gradient-statistics scoring of architectures at initialization.

A candidate network is scored without any training: several input batches
are pushed through forward and backward passes (weights are never
updated), per-parameter gradient means and variances across batches are
collected, and each layer contributes the log of its summed
mean-to-standard-deviation gradient ratios. The bias-corrected variant
subtracts beta times a depth-width penalty built from each layer's output
feature map, log(H * W / sqrt(C)).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .network import Genome, LayerGraph, check_ints, compile_genome, init_weights
from .tensor import Tape, Tensor, WorkerPool

GRAD_EPS = 1e-12
STAT_MODES = ("abs", "signed")


class ProxyError(ValueError):
    """Invalid scoring request (bad beta, batches, or stats/graph mismatch)."""


@dataclass
class LayerStats:
    """One layer's per-parameter gradient statistics across batches.

    `mean_abs_grad` is the score's numerator: the mean of |g| in stat mode
    `abs`, the mean of g in `signed`. One pass yields both; the mode picks.
    """

    mean_abs_grad: np.ndarray
    var_grad: np.ndarray  # unbiased variance of g across batches, per parameter


@dataclass
class GradientStats:
    layers: list[LayerStats]


@dataclass
class ProxyScore:
    """`score` prints its `asdict`, keys in field order."""

    zico: float
    penalty: float
    beta: float
    zico_bc: float
    per_layer: list[dict]


@dataclass(frozen=True)
class ScoreSettings:
    """Resolved proxy-evaluation configuration shared by all front-ends.

    Checked when built, so an instance that exists is valid.
    """

    beta: float = 1.0
    batches: int = 8
    batch_size: int = 8
    seed: int = 0
    stat_mode: str = "abs"
    resolution: tuple[int, int] | None = None  # overrides the genome's when set

    def __post_init__(self) -> None:
        numbers = [("batches", self.batches), ("batch_size", self.batch_size),
                   ("seed", self.seed)]
        if self.resolution is not None:
            if not isinstance(self.resolution, tuple) or len(self.resolution) != 2:
                raise ProxyError(f"resolution: need a tuple of 2 extents (HxW), "
                                 f"got {self.resolution!r}")
            numbers += [(f"resolution[{i}]", v) for i, v in enumerate(self.resolution)]
        check_ints(numbers, ProxyError)
        if not 0 <= self.beta < math.inf:
            raise ProxyError(f"beta must be finite and >= 0, got {self.beta}")
        if self.batches < 2:
            raise ProxyError(f"need at least 2 batches, got {self.batches}")
        if self.batch_size < 1:
            raise ProxyError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.stat_mode not in STAT_MODES:
            raise ProxyError(f"stat_mode must be one of {STAT_MODES}, "
                             f"got {self.stat_mode!r}")
        if self.resolution is not None and min(self.resolution) < 1:
            h, w = self.resolution
            raise ProxyError(f"resolution extents must be positive, got {h}x{w}")


def make_batches(graph: LayerGraph, count: int, batch_size: int,
                 seed: int) -> list[tuple[Tensor, np.ndarray]]:
    """Seeded standard-Gaussian inputs with uniform random labels.

    Scoring happens at initialization, where input statistics rather than
    dataset content drive the gradient signal, so synthetic batches keep
    the pipeline self-contained and reproducible.
    """
    c, h, w = graph.input_shape
    batches = []
    for b in range(count):
        x = Tensor(np.random.default_rng(_batch_seed(seed, b, 0)).normal(
            0.0, 1.0, (batch_size, c, h, w)))
        labels = np.random.default_rng(_batch_seed(seed, b, 1)).integers(
            0, graph.num_classes, size=batch_size)
        batches.append((x, labels))
    return batches


def _batch_seed(seed: int, batch: int, stream: int) -> int:
    return (seed * 0x1F1F1F1F + batch * 2 + stream + 1) & 0xFFFFFFFFFFFFFFFF


class GradientAccumulator:
    """Streaming per-parameter mean and unbiased variance across batches.

    One Welford recurrence (running means and the M2 sum), started at
    zero, keeps per layer the mean of |g|, the mean of g and M2, so
    statistics stay accurate even when gradients barely vary between
    batches; nothing proportional to the batch count is ever stored.
    Both stat modes' numerators come from the same pass; `mode` only
    picks the one `finalize` reports.
    """

    def __init__(self, mode: str = "abs") -> None:
        if mode not in STAT_MODES:
            raise ProxyError(f"unknown stat mode {mode!r}")
        self.mode = mode
        self.count = 0
        self._mean_abs: list[np.ndarray] = []
        self._mean: list[np.ndarray] = []
        self._m2: list[np.ndarray] = []

    def update(self, layer_grads: list[np.ndarray]) -> None:
        """Fold in one batch's flat gradient vector per layer."""
        grads = [np.asarray(g, dtype=np.float64).reshape(-1) for g in layer_grads]
        if not self._m2:  # zero state, shaped by the batch that first arrives
            self._mean_abs, self._mean, self._m2 = (
                [np.zeros_like(g) for g in grads] for _ in range(3))
        if len(grads) != len(self._m2):
            raise ProxyError(
                f"batch supplies {len(grads)} layers, expected {len(self._m2)}")
        self.count += 1
        for g, mean_abs, mean, m2 in zip(grads, self._mean_abs, self._mean, self._m2):
            mean_abs += (np.abs(g) - mean_abs) / self.count
            delta = g - mean
            mean += delta / self.count
            m2 += delta * (g - mean)

    def finalize(self) -> GradientStats:
        if self.count < 2:
            raise ProxyError(
                f"need at least 2 batches for an unbiased variance, got {self.count}")
        numerators = self._mean_abs if self.mode == "abs" else self._mean
        return GradientStats(layers=[
            LayerStats(mean_abs_grad=num, var_grad=m2 / (self.count - 1))
            for num, m2 in zip(numerators, self._m2)])


def gather_gradient_stats(graph: LayerGraph, batches, mode: str = "abs",
                          pool: WorkerPool | None = None) -> GradientStats:
    """Per-parameter gradient mean and variance across B batches.

    Runs one forward and one backward pass per batch; weights are
    read-only tensors and are bit-identical before and after. Variance is
    the unbiased (B - 1 denominator) estimator over signed gradients.
    `mode` selects whether the numerator mean is taken over absolute
    gradient values (default) or signed ones. Every batch's tape splits
    its array work by sample over `pool` when one is given.
    """
    batches = list(batches)
    if len(batches) < 2:
        raise ProxyError(
            f"need at least 2 batches for an unbiased variance, got {len(batches)}")
    if not graph.layers:
        raise ProxyError("cannot gather statistics for an empty graph")

    c, h, w = graph.input_shape
    acc = GradientAccumulator(mode=mode)
    for b, (x, labels) in enumerate(batches):
        if x.shape[1:] != (c, h, w):
            raise ProxyError(
                f"batch {b}: input shape {x.shape} does not match graph input "
                f"({c}, {h}, {w})")
        labels = np.asarray(labels)
        if labels.shape != (x.shape[0],):
            raise ProxyError(f"batch {b}: labels shape {labels.shape} does not "
                             f"match batch size {x.shape[0]}")
        tape = Tape(pool)
        logits = graph.forward(tape, x)
        loss = tape.cross_entropy_loss(logits, labels)
        tape.backward(loss)
        acc.update(_layer_gradients(graph, tape))
    return acc.finalize()


def _layer_gradients(graph: LayerGraph, tape: Tape) -> list[np.ndarray]:
    """One flat gradient vector per parameterized layer (weight then bias)."""
    grads = []
    for layer in graph.layers:
        g = tape.grad(layer.weight).data.reshape(-1)
        if layer.bias is not None:
            g = np.concatenate([g, tape.grad(layer.bias).data.reshape(-1)])
        grads.append(g)
    return grads


def _layer_terms(stats: GradientStats) -> list[float]:
    """Per layer, log(sum of per-parameter mean/std gradient ratios).

    A small epsilon keeps dead parameters (zero variance) finite, and a
    layer whose inner sum is not above epsilon contributes log(epsilon),
    so degenerate candidates rank last instead of raising.
    """
    terms = []
    for layer in stats.layers:
        ratios = layer.mean_abs_grad / (np.sqrt(layer.var_grad) + GRAD_EPS)
        inner = float(np.sum(ratios))
        terms.append(math.log(inner) if inner > GRAD_EPS else math.log(GRAD_EPS))
    return terms


def _penalty_terms(graph: LayerGraph) -> list[float]:
    terms = []
    for layer in graph.layers:
        c, h, w = layer.out_shape
        terms.append(math.log(h * w / math.sqrt(c)))
    return terms


def zico_bc_score(stats: GradientStats, graph: LayerGraph, beta: float) -> ProxyScore:
    """Combine the gradient score with the depth-width penalty.

    The combined value is computed exactly as zico - beta * penalty, so
    beta = 0 reproduces the uncorrected score bit-for-bit.
    """
    if not 0 <= beta < math.inf:
        raise ProxyError(f"beta must be finite and >= 0, got {beta}")
    if len(stats.layers) != len(graph.layers):
        raise ProxyError(
            f"stats cover {len(stats.layers)} layers but graph has "
            f"{len(graph.layers)}")
    score_terms = _layer_terms(stats)
    penalty_terms = _penalty_terms(graph)
    zico = math.fsum(score_terms)
    penalty = math.fsum(penalty_terms)
    return ProxyScore(
        zico=zico,
        penalty=penalty,
        beta=beta,
        zico_bc=zico - beta * penalty,
        per_layer=[
            {"layer": layer.index, "score_term": s, "penalty_term": p}
            for layer, s, p in zip(graph.layers, score_terms, penalty_terms)
        ],
    )


def score_genome(genome: Genome, settings: ScoreSettings,
                 threads: int = 1) -> ProxyScore:
    """Compile, initialize, gather gradient statistics, and score one genome.

    Gradients are gathered with BLAS at one thread. With threads > 1, one
    pool serves all B batches, and each tape splits its array work by
    sample `threads` ways over it, the calling thread taking one share.
    The score is the same bytes at any thread count.
    """
    if settings.resolution is not None:
        genome = replace(genome, input_resolution=settings.resolution)
    graph = init_weights(compile_genome(genome), settings.seed)
    batches = make_batches(graph, settings.batches, settings.batch_size,
                           seed=settings.seed)
    with (_one_blas_thread(),
          WorkerPool(threads) if threads > 1 else contextlib.nullcontext() as pool):
        stats = gather_gradient_stats(graph, batches, mode=settings.stat_mode,
                                      pool=pool)
    return zico_bc_score(stats, graph, settings.beta)


def parallel_map(fn: Callable, items, threads: int) -> list:
    """`[fn(item) for item in items]`, on up to `threads` worker threads.

    Results keep item order. The workers run BLAS at one thread. One
    thread or one item runs inline and leaves BLAS's thread count alone.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with _one_blas_thread(), ThreadPoolExecutor(threads) as pool:
        return list(pool.map(fn, items))


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """numpy's bundled OpenBLAS at one thread, for the life of the context.

    OpenBLAS picks its kernels by its thread count, and some GEMM shapes
    give other bytes at two threads than at one, so scoring pins it even
    without a pool. In a pool the workers share the cores instead of each
    starting BLAS threads of its own. The previous count is restored on
    exit, also on an exception. The count is process-wide, so run one
    pool at a time; a pool opened inside another's workers finds BLAS at
    one thread already and leaves it alone.
    """
    get, set_ = _openblas()
    saved = get()
    if saved != 1:
        set_(1)
    try:
        yield
    finally:
        if saved != 1:
            set_(saved)


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs now; None under another BLAS."""
    return _openblas()[0]()


def blas_core() -> str | None:
    """The kernel core numpy's bundled OpenBLAS runs, such as SkylakeX.

    OpenBLAS picks it from the CPU at load time, or from
    OPENBLAS_CORETYPE. None under another BLAS.
    """
    corename = getattr(_openblas_library(), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.restype, corename.argtypes = ctypes.c_char_p, []
    return corename().decode()


@functools.cache
def _openblas_library() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS; None under another BLAS.

    numpy wheels ship OpenBLAS in `numpy.libs` with `scipy_openblas`
    ILP64 symbols; loading it again returns the copy numpy already uses.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_get_num_threads64_
            lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        return lib
    return None


@functools.cache
def _openblas() -> tuple[Callable[[], int | None], Callable[[int], None]]:
    """Get and set the bundled OpenBLAS thread count; no-ops under another BLAS."""
    lib = _openblas_library()
    if lib is None:
        return (lambda: None), (lambda count: None)
    get = lib.scipy_openblas_get_num_threads64_
    set_ = lib.scipy_openblas_set_num_threads64_
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_
