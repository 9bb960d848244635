"""Shared test utilities: random genome generation, brute-force oracles, the
two parts of the score and the parameter count taken alone, and writers of
the file formats the program reads."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
from typing import Iterable

import numpy as np

from zicobc.latency import CSV_FIELDS, LatencyTable
from zicobc.network import Genome, LayerGraph, StageGene, _param_shapes, genome_to_json
from zicobc.proxy import GradientStats, _layer_terms, _openblas, _penalty_terms
from zicobc.tensor import Tape, Tensor, _col2im, _im2col


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


def seeded_fill(shape, distribution: str, seed: int, **params) -> Tensor:
    """A tensor drawn from its own seeded stream: ``gaussian`` (standard
    normal), ``kaiming_normal`` (param ``fan_in``; std sqrt(2 / fan_in)) or
    ``uniform_int`` (params ``lo`` and ``hi``; integers in [lo, hi))."""
    rng = np.random.default_rng(seed)
    if distribution == "gaussian":
        values = rng.normal(0.0, 1.0, shape)
    elif distribution == "kaiming_normal":
        values = rng.normal(0.0, math.sqrt(2.0 / params["fan_in"]), shape)
    elif distribution == "uniform_int":
        values = rng.integers(params["lo"], params["hi"], size=shape)
    return Tensor(values)


def genome_to_dict(genome: Genome) -> dict:
    """The genome as the JSON object a genome file holds."""
    return json.loads(genome_to_json(genome))


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


def zico_score(stats: GradientStats) -> float:
    """The uncorrected score alone: `zico_bc_score(...).zico` without a graph."""
    return math.fsum(_layer_terms(stats))


def depth_width_penalty(graph: LayerGraph) -> float:
    """The penalty alone: `zico_bc_score(...).penalty` without statistics."""
    return math.fsum(_penalty_terms(graph))


def count_params(graph: LayerGraph) -> int:
    """Total element count over every parameter tensor of a plan or a graph."""
    return sum(math.prod(shape) for layer in graph.layers
               for shape in _param_shapes(layer))


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
    blas = _openblas()
    saved = blas.get()
    blas.set(count)
    try:
        yield
    finally:
        blas.set(saved)


class ColumnKeepingTape(Tape):
    """A tape whose conv records keep their im2col columns.

    This is `Tape.conv2d` as it was before convs kept only their padded
    input: the columns are built once and held for the weight gradient,
    and every input gradient is a GEMM followed by col2im. The
    byte-identity tests compare `Tape` against it.
    """

    def conv2d(self, x: Tensor, weight: Tensor, stride: int = 1,
               padding: int = 0, groups: int = 1) -> Tensor:
        n, c_in, h, w = x.shape
        c_out, c_in_g, kh, kw = weight.shape
        h_out = (h + 2 * padding - kh) // stride + 1
        w_out = (w + 2 * padding - kw) // stride + 1
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        L = h_out * w_out
        ckk = c_in_g * kh * kw
        cols_g = _im2col(xp, kh, kw, stride, h_out, w_out).reshape(n, groups, ckk, L)
        w_g = weight.data.reshape(groups, c_out // groups, ckk)
        result = Tensor(np.matmul(w_g[None], cols_g).reshape(n, c_out, h_out, w_out))

        def rule(go: np.ndarray, wanted: list[bool]) -> list[np.ndarray | None]:
            go_g = go.reshape(n, groups, c_out // groups, L)
            gw = np.matmul(go_g, cols_g.transpose(0, 1, 3, 2)).sum(axis=0).reshape(weight.shape)
            if not wanted[0]:
                return [None, gw]
            gcols = np.matmul(w_g.transpose(0, 2, 1)[None], go_g)
            gxp = _col2im(gcols.reshape(n, c_in * kh * kw, L), np.zeros(xp.shape),
                          kh, kw, stride, h_out, w_out)
            return [gxp[:, :, padding:padding + h, padding:padding + w], gw]

        self._record(result, [x], [weight], rule)
        return result


def save_records(records, path) -> None:
    """Write benchmark records as the JSON lines `load_records` reads."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({"id": rec.id,
                                 "genome": genome_to_dict(rec.genome),
                                 "test_accuracy": rec.test_accuracy},
                                sort_keys=True))
            fh.write("\n")


def save_table(table: LatencyTable, path) -> None:
    """Write a table in the same CSV dialect `load_table` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for key in sorted(table.entries):
            writer.writerow(list(key) + [repr(table.entries[key])])
