"""Shared test utilities: random genome generation and brute-force oracles."""

from __future__ import annotations

import contextlib
import hashlib
from typing import Iterable

import numpy as np

from zicobc.network import Genome, LayerGraph, StageGene
from zicobc.proxy import _openblas
from zicobc.tensor import Tensor


def random_genome(rng: np.random.Generator, family: str | None = None,
                  max_stages: int = 2, max_repeats: int = 2,
                  channel_choices=(8, 16, 32), resolution: int = 8,
                  num_classes: int = 4) -> Genome:
    """Small random genome suitable for fast compile + score cycles."""
    family = family or str(rng.choice(["effnet_like", "resnet_like"]))
    n_stages = int(rng.integers(1, max_stages + 1))
    stages = []
    strides_left = 1 if resolution % 2 else 2  # at most one stride-2 stage
    for i in range(n_stages):
        channels = int(rng.choice(channel_choices))
        conv_mode = "regular"
        if channels % 32 == 0 and rng.random() < 0.3:
            conv_mode = "group"
        stride = 1
        if i > 0 and strides_left > 1 and rng.random() < 0.5:
            stride = 2
            strides_left = 1
        stages.append(StageGene(
            repeats=int(rng.integers(1, max_repeats + 1)),
            channels=channels,
            kernel=int(rng.choice([3, 5])),
            conv_mode=conv_mode,
            stride=stride,
        ))
    return Genome(
        family=family,
        stages=tuple(stages),
        stem_channels=int(rng.choice([8, 16])),
        num_classes=num_classes,
        input_resolution=(resolution, resolution),
        expansion=int(rng.choice([1, 2])) if family == "effnet_like" else 4,
    )


def parameter_tensors(graph: LayerGraph) -> list[Tensor]:
    """Every weight and bias tensor of a weighted graph, in layer order."""
    return [t for layer in graph.layers for t in (layer.weight, layer.bias)
            if t is not None]


def tensor_digest(tensors: Iterable[Tensor]) -> str:
    """SHA-256 over the raw bytes and shapes of a tensor sequence."""
    h = hashlib.sha256()
    for t in tensors:
        h.update(repr(t.shape).encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def parameter_hash(graph: LayerGraph) -> str:
    """Digest of every parameter tensor; unchanged across scoring runs."""
    return tensor_digest(parameter_tensors(graph))


def brute_force_param_count(graph: LayerGraph) -> int:
    total = 0
    for t in parameter_tensors(graph):
        n = 1
        for extent in t.shape:
            n *= extent
        total += n
    return total


def brute_force_mac_count(graph: LayerGraph) -> int:
    """Count multiplies one output element and one kernel tap at a time."""
    total = 0
    for layer in graph.layers:
        c_out, h_out, w_out = layer.out_shape
        if layer.kind == "conv":
            taps_per_element = 0
            for _ci in range(layer.in_channels // layer.groups):
                for _kh in range(layer.kernel):
                    for _kw in range(layer.kernel):
                        taps_per_element += 1
            for _co in range(c_out):
                for _ho in range(h_out):
                    for _wo in range(w_out):
                        total += taps_per_element
        else:
            for _fo in range(c_out):
                for _fi in range(layer.in_channels):
                    total += 1
    return total


@contextlib.contextmanager
def blas_threads_set_to(count: int):
    """Run the block with numpy's bundled OpenBLAS at `count` threads.

    A known count outside the pool keeps the pin tests meaningful when
    the suite itself runs with OPENBLAS_NUM_THREADS=1.
    """
    get, set_ = _openblas()
    saved = get()
    set_(count)
    try:
        yield
    finally:
        set_(saved)
