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

import ctypes
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .network import Genome, LayerGraph, compile_genome, init_weights
from .tensor import Tape, Tensor, seeded_fill

GRAD_EPS = 1e-12
STAT_MODES = ("abs", "signed")


class ProxyError(ValueError):
    """Invalid scoring request (bad beta, batches, or stats/graph mismatch)."""


@dataclass
class LayerStats:
    mean_abs_grad: np.ndarray  # per parameter; signed means under mode="signed"
    var_grad: np.ndarray       # unbiased variance across batches, per parameter


@dataclass
class GradientStats:
    layers: list[LayerStats]
    batch_count: int
    mode: str = "abs"


@dataclass
class ProxyScore:
    zico: float
    penalty: float
    beta: float
    zico_bc: float
    per_layer_terms: list[tuple[int, float, float]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "zico": self.zico,
            "penalty": self.penalty,
            "beta": self.beta,
            "zico_bc": self.zico_bc,
            "per_layer": [
                {"layer": i, "score_term": s, "penalty_term": p}
                for i, s, p in self.per_layer_terms
            ],
        }


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
        if not 0 <= self.beta < math.inf:
            raise ProxyError(f"beta must be finite and >= 0, got {self.beta}")
        if self.batches < 2:
            raise ProxyError(f"need at least 2 batches, got {self.batches}")
        if self.batch_size < 1:
            raise ProxyError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.stat_mode not in STAT_MODES:
            raise ProxyError(f"stat_mode must be one of {STAT_MODES}, "
                             f"got {self.stat_mode!r}")


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
        x = seeded_fill((batch_size, c, h, w), "gaussian", _batch_seed(seed, b, 0))
        labels = seeded_fill((batch_size,), "uniform_int", _batch_seed(seed, b, 1),
                             lo=0, hi=graph.num_classes).data.astype(np.int64)
        batches.append((x, labels))
    return batches


def _batch_seed(seed: int, batch: int, stream: int) -> int:
    return (seed * 0x1F1F1F1F + batch * 2 + stream + 1) & 0xFFFFFFFFFFFFFFFF


class GradientAccumulator:
    """Streaming per-parameter mean and unbiased variance across batches.

    Means use running (Welford) updates and variances the M2 recurrence,
    so statistics stay accurate even when gradients barely vary between
    batches; nothing proportional to the batch count is ever stored.
    """

    def __init__(self, mode: str = "abs") -> None:
        if mode not in STAT_MODES:
            raise ProxyError(f"unknown stat mode {mode!r}")
        self.mode = mode
        self.count = 0
        self._mean_num: list[np.ndarray] = []
        self._mean_sgn: list[np.ndarray] = []
        self._m2: list[np.ndarray] = []

    def update(self, layer_grads: list[np.ndarray]) -> None:
        """Fold in one batch's flat gradient vector per layer."""
        self.count += 1
        if self.count == 1:
            for g in layer_grads:
                g = np.asarray(g, dtype=np.float64).reshape(-1)
                self._mean_num.append(np.abs(g) if self.mode == "abs" else g.copy())
                self._mean_sgn.append(g.copy())
                self._m2.append(np.zeros_like(g))
            return
        if len(layer_grads) != len(self._mean_sgn):
            raise ProxyError(
                f"batch supplies {len(layer_grads)} layers, expected "
                f"{len(self._mean_sgn)}")
        for li, g in enumerate(layer_grads):
            g = np.asarray(g, dtype=np.float64).reshape(-1)
            gn = np.abs(g) if self.mode == "abs" else g
            self._mean_num[li] += (gn - self._mean_num[li]) / self.count
            delta = g - self._mean_sgn[li]
            self._mean_sgn[li] += delta / self.count
            self._m2[li] += delta * (g - self._mean_sgn[li])

    def finalize(self) -> GradientStats:
        if self.count < 2:
            raise ProxyError(
                f"need at least 2 batches for an unbiased variance, got {self.count}")
        layers = [
            LayerStats(mean_abs_grad=self._mean_num[li],
                       var_grad=self._m2[li] / (self.count - 1))
            for li in range(len(self._mean_sgn))
        ]
        return GradientStats(layers=layers, batch_count=self.count, mode=self.mode)


def gather_gradient_stats(graph: LayerGraph, batches, mode: str = "abs") -> GradientStats:
    """Per-parameter gradient mean and variance across B batches.

    Runs one forward and one backward pass per batch; weights are
    read-only tensors and are bit-identical before and after. Variance is
    the unbiased (B - 1 denominator) estimator over signed gradients.
    `mode` selects whether the numerator mean is taken over absolute
    gradient values (default) or signed ones.
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
        tape = Tape()
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


def zico_score(stats: GradientStats) -> float:
    """Sum over layers of log(sum of per-parameter mean/std gradient ratios).

    A small epsilon keeps dead parameters (zero variance) finite, and a
    layer whose inner sum is not above epsilon contributes log(epsilon),
    so degenerate candidates rank last instead of raising.
    """
    if not stats.layers:
        raise ProxyError("cannot score an empty graph")
    return math.fsum(_layer_terms(stats))


def _layer_terms(stats: GradientStats) -> list[float]:
    terms = []
    for layer in stats.layers:
        ratios = layer.mean_abs_grad / (np.sqrt(layer.var_grad) + GRAD_EPS)
        inner = float(np.sum(ratios))
        terms.append(math.log(inner) if inner > GRAD_EPS else math.log(GRAD_EPS))
    return terms


def depth_width_penalty(graph: LayerGraph) -> float:
    """Sum over parameterized layers of log(H * W / sqrt(C)) of their outputs."""
    return math.fsum(_penalty_terms(graph))


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
        per_layer_terms=[
            (layer.index, s, p)
            for layer, s, p in zip(graph.layers, score_terms, penalty_terms)
        ],
    )


def score_genome(genome: Genome, settings: ScoreSettings) -> ProxyScore:
    """Compile, initialize, gather gradient statistics, and score one genome."""
    if settings.resolution is not None:
        genome = replace(genome, input_resolution=settings.resolution)
    graph = init_weights(compile_genome(genome), settings.seed)
    batches = make_batches(graph, settings.batches, settings.batch_size,
                           seed=settings.seed)
    stats = gather_gradient_stats(graph, batches, mode=settings.stat_mode)
    return zico_bc_score(stats, graph, settings.beta)


def parallel_map(fn: Callable, items, threads: int) -> list:
    """`[fn(item) for item in items]`, on up to `threads` worker threads.

    Results keep item order. While the pool is up, numpy's bundled
    OpenBLAS runs single-threaded, so the workers share the cores instead
    of each starting BLAS threads of its own; the previous count is
    restored when the pool exits, also when fn raised. One thread or one
    item runs inline and keeps BLAS's own threading. The BLAS count is
    process-wide, so run one pool at a time.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    get, set_ = _openblas()
    saved = get()
    set_(1)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    finally:
        set_(saved)


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs now; None under another BLAS."""
    return _openblas()[0]()


@functools.cache
def _openblas() -> tuple[Callable[[], int | None], Callable[[int], None]]:
    """Get and set the bundled OpenBLAS thread count; no-ops under another BLAS.

    numpy wheels ship OpenBLAS in `numpy.libs` with `scipy_openblas`
    ILP64 symbols; loading it again returns the copy numpy already uses.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return (lambda: None), (lambda count: None)
