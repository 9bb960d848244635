"""Architecture genomes and their compilation to runnable layer graphs.

Two block families are supported. ``resnet_like`` stages stack residual
blocks of two same-kernel convolutions with an identity (or 1x1
projection) skip. ``effnet_like`` stages stack inverted-bottleneck blocks
(1x1 expand, k x k spatial conv that may be grouped, 1x1 project) with a
skip whenever the block keeps stride 1 and channel count. Compilation
builds a weightless plan with full shape bookkeeping; `init_weights`
draws the weights that make it runnable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .tensor import Tape, Tensor, seeded_fill, zeros

if TYPE_CHECKING:
    from .search import GenomeSpace

FAMILIES = ("effnet_like", "resnet_like")
CONV_MODES = ("regular", "group", "depthwise")
KERNEL_CHOICES = (3, 5)
EXPANSION_CHOICES = (1, 2, 4, 6)
RESNET_GROUP_COUNTS = (128, 64, 32)  # largest one dividing the channels wins
EFFNET_GROUP_COUNT = 32
INPUT_CHANNELS = 3
MAX_STAGES = 8
MAX_REPEATS = 12
CHANNEL_STEP = 8


class GenomeError(ValueError):
    """Genome violates a schema invariant; message names the field."""


class IncompatibleParentsError(ValueError):
    """Crossover parents differ in family or stage count."""


@dataclass(frozen=True)
class StageGene:
    repeats: int
    channels: int
    kernel: int
    conv_mode: str
    stride: int


@dataclass(frozen=True)
class Genome:
    family: str
    stages: tuple[StageGene, ...]
    stem_channels: int
    num_classes: int
    input_resolution: tuple[int, int]
    expansion: int = 4  # effnet_like bottleneck expansion; ignored by resnet_like


@dataclass(frozen=True)
class ParamLayer:
    """One parameterized layer (1-based index); a plan's have no weight or bias."""

    index: int
    kind: str  # "conv" | "dense"
    weight: Tensor | None
    bias: Tensor | None
    out_shape: tuple[int, int, int]  # (C, H, W); dense layers use (K, 1, 1)
    in_channels: int
    groups: int
    stride: int
    kernel: int


@dataclass
class LayerGraph:
    """Ordered parameterized layers plus the instruction list to run them."""

    layers: list[ParamLayer]
    program: list[tuple]
    input_shape: tuple[int, int, int]
    num_classes: int

    def forward(self, tape: Tape, x: Tensor) -> Tensor:
        """Run the compiled network on a batch, recording ops on the tape."""
        cur = x
        stack: list[Tensor] = []
        for ins in self.program:
            op = ins[0]
            if op == "conv":
                layer = self.layers[ins[1]]
                cur = tape.conv2d(cur, layer.weight, stride=layer.stride,
                                  padding=layer.kernel // 2, groups=layer.groups)
            elif op == "relu":
                cur = tape.relu(cur)
            elif op == "push":
                stack.append(cur)
            elif op == "pop_add":
                cur = tape.residual_add(cur, stack.pop())
            elif op == "pop_proj_add":
                layer = self.layers[ins[1]]
                skip = tape.conv2d(stack.pop(), layer.weight,
                                   stride=layer.stride, padding=0, groups=1)
                cur = tape.residual_add(cur, skip)
            elif op == "gap":
                cur = tape.global_avg_pool(cur)
            elif op == "dense":
                layer = self.layers[ins[1]]
                cur = tape.dense(cur, layer.weight, layer.bias)
            else:  # pragma: no cover - compile emits only the ops above
                raise RuntimeError(f"unknown instruction {op!r}")
        return cur


def resolve_groups(family: str, channels: int, conv_mode: str, expansion: int) -> int:
    """Number of groups of a stage's spatial convolution.

    resnet_like group mode picks the largest of 128/64/32 dividing the stage
    channels, so a stage at 32, 64 or 128 channels is depthwise (one channel
    per group); a block's first conv falls back to 1 group when the count
    does not divide its input channels. effnet_like group mode always uses
    32 groups on the expanded channels. Depthwise sets groups equal to the
    convolved channel count and is only defined for effnet_like.
    """
    if conv_mode == "regular":
        return 1
    if conv_mode == "depthwise":
        if family != "effnet_like":
            raise GenomeError("conv_mode: depthwise is only supported for effnet_like")
        return channels * expansion
    if family == "resnet_like":
        for g in RESNET_GROUP_COUNTS:
            if channels % g == 0:
                return g
        raise GenomeError(
            f"conv_mode: group requires channels divisible by 32, got {channels}")
    if channels % EFFNET_GROUP_COUNT != 0:
        raise GenomeError(
            f"conv_mode: group requires channels divisible by 32, got {channels}")
    return EFFNET_GROUP_COUNT


def mode_is_legal(family: str, channels: int, conv_mode: str) -> bool:
    """Whether `resolve_groups` accepts this stage; expansion is irrelevant."""
    try:
        resolve_groups(family, channels, conv_mode, expansion=1)
    except GenomeError:
        return False
    return True


def validate_genome(genome: Genome) -> None:
    if genome.family not in FAMILIES:
        raise GenomeError(f"family: unknown family {genome.family!r}")
    if not 1 <= len(genome.stages) <= MAX_STAGES:
        raise GenomeError(f"stages: need 1..{MAX_STAGES} stages, got {len(genome.stages)}")
    if genome.stem_channels < 1 or genome.stem_channels % CHANNEL_STEP != 0:
        raise GenomeError(
            f"stem_channels: must be a positive multiple of {CHANNEL_STEP}, "
            f"got {genome.stem_channels}")
    if genome.num_classes < 2:
        raise GenomeError(f"num_classes: need at least 2, got {genome.num_classes}")
    if genome.expansion not in EXPANSION_CHOICES:
        raise GenomeError(f"expansion: must be one of {EXPANSION_CHOICES}, "
                          f"got {genome.expansion}")
    h, w = genome.input_resolution
    if h < 1 or w < 1:
        raise GenomeError(f"input_resolution: extents must be positive, got {h}x{w}")
    stride_product = 1
    for i, gene in enumerate(genome.stages):
        _validate_gene(genome, i, gene)
        stride_product *= gene.stride
    if h % stride_product or w % stride_product:
        raise GenomeError(
            f"input_resolution: {h}x{w} not divisible by total stride {stride_product}")


def _validate_gene(genome: Genome, i: int, gene: StageGene) -> None:
    where = f"stages[{i}]"
    if not 1 <= gene.repeats <= MAX_REPEATS:
        raise GenomeError(f"{where}.repeats: need 1..{MAX_REPEATS}, got {gene.repeats}")
    if gene.channels < 1 or gene.channels % CHANNEL_STEP != 0:
        raise GenomeError(
            f"{where}.channels: must be a positive multiple of {CHANNEL_STEP}, "
            f"got {gene.channels}")
    if gene.kernel not in KERNEL_CHOICES:
        raise GenomeError(f"{where}.kernel: must be 3 or 5, got {gene.kernel}")
    if gene.stride not in (1, 2):
        raise GenomeError(f"{where}.stride: must be 1 or 2, got {gene.stride}")
    if gene.conv_mode not in CONV_MODES:
        raise GenomeError(f"{where}.conv_mode: unknown mode {gene.conv_mode!r}")
    try:
        resolve_groups(genome.family, gene.channels, gene.conv_mode, genome.expansion)
    except GenomeError as exc:
        raise GenomeError(f"{where}.{exc}") from None


# -- serialization -----------------------------------------------------------

def genome_to_dict(genome: Genome) -> dict:
    return {
        "family": genome.family,
        "stages": [
            {
                "repeats": s.repeats,
                "channels": s.channels,
                "kernel": s.kernel,
                "conv_mode": s.conv_mode,
                "stride": s.stride,
            }
            for s in genome.stages
        ],
        "stem_channels": genome.stem_channels,
        "num_classes": genome.num_classes,
        "input_resolution": list(genome.input_resolution),
        "expansion": genome.expansion,
    }


def genome_to_json(genome: Genome) -> str:
    """Canonical JSON form: sorted keys, compact separators, byte-stable."""
    return json.dumps(genome_to_dict(genome), sort_keys=True, separators=(",", ":"))


def genome_from_dict(data: dict) -> Genome:
    try:
        stages = tuple(
            StageGene(
                repeats=int(s["repeats"]),
                channels=int(s["channels"]),
                kernel=int(s["kernel"]),
                conv_mode=str(s["conv_mode"]),
                stride=int(s["stride"]),
            )
            for s in data["stages"]
        )
        genome = Genome(
            family=str(data["family"]),
            stages=stages,
            stem_channels=int(data["stem_channels"]),
            num_classes=int(data["num_classes"]),
            input_resolution=(int(data["input_resolution"][0]),
                              int(data["input_resolution"][1])),
            expansion=int(data.get("expansion", 4)),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise GenomeError(f"malformed genome object: missing or bad field {exc}") from None
    validate_genome(genome)
    return genome


def genome_from_json(text: str) -> Genome:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GenomeError(f"invalid genome JSON: {exc}") from None
    if not isinstance(data, dict):
        raise GenomeError("genome JSON must be an object")
    return genome_from_dict(data)


# -- compilation ---------------------------------------------------------------

def _mix(seed: int, *salts: int) -> int:
    """Derive an independent 64-bit stream seed; splitmix64-style."""
    z = seed & 0xFFFFFFFFFFFFFFFF
    for salt in salts:
        z = (z + 0x9E3779B97F4A7C15 + salt) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z = z ^ (z >> 31)
    return z


class _GraphBuilder:
    def __init__(self) -> None:
        self.layers: list[ParamLayer] = []
        self.program: list[tuple] = []

    def add_conv(self, c_in: int, c_out: int, kernel: int, stride: int, groups: int,
                 h_in: int, w_in: int, emit: bool = True) -> tuple[int, int, int]:
        pad = kernel // 2
        h_out = (h_in + 2 * pad - kernel) // stride + 1
        w_out = (w_in + 2 * pad - kernel) // stride + 1
        if h_out < 1 or w_out < 1:
            raise GenomeError(
                f"input_resolution: spatial extent underflows at layer {len(self.layers) + 1}")
        idx = len(self.layers)
        self.layers.append(ParamLayer(
            index=idx + 1, kind="conv", weight=None, bias=None,
            out_shape=(c_out, h_out, w_out), in_channels=c_in,
            groups=groups, stride=stride, kernel=kernel))
        if emit:
            self.program.append(("conv", idx))
        return idx, h_out, w_out

    def add_dense(self, f_in: int, f_out: int) -> None:
        idx = len(self.layers)
        self.layers.append(ParamLayer(
            index=idx + 1, kind="dense", weight=None, bias=None,
            out_shape=(f_out, 1, 1), in_channels=f_in, groups=1, stride=1, kernel=1))
        self.program.append(("dense", idx))


def compile_genome(genome: Genome) -> LayerGraph:
    """Compile a genome into a weightless layer plan with shape records.

    The plan holds every layer's shapes, groups and the instruction list;
    `init_weights` turns it into a runnable graph. Padding is always
    kernel // 2 so spatial extents are set by strides alone.
    """
    validate_genome(genome)
    h, w = genome.input_resolution
    b = _GraphBuilder()

    _, h, w = b.add_conv(INPUT_CHANNELS, genome.stem_channels, 3, 1, 1, h, w)
    b.program.append(("relu",))
    c_in = genome.stem_channels

    for gene in genome.stages:
        groups = resolve_groups(genome.family, gene.channels,
                                gene.conv_mode, genome.expansion)
        for block in range(gene.repeats):
            stride = gene.stride if block == 0 else 1
            if genome.family == "resnet_like":
                h, w = _emit_resnet_block(b, c_in, gene, stride, groups, h, w)
            else:
                h, w = _emit_effnet_block(b, c_in, gene, stride, groups,
                                          genome.expansion, h, w)
            c_in = gene.channels

    b.program.append(("gap",))
    b.add_dense(c_in, genome.num_classes)
    return LayerGraph(layers=b.layers, program=b.program,
                      input_shape=(INPUT_CHANNELS, *genome.input_resolution),
                      num_classes=genome.num_classes)


def init_weights(graph: LayerGraph, seed: int) -> LayerGraph:
    """The runnable graph of a plan: Kaiming-normal weights over fan-in.

    Each layer draws from its own stream, `_mix(seed, layer.index)`, so
    identical (plan, seed) give bit-identical weights. Dense layers carry
    a zero bias.
    """
    layers = []
    for layer in graph.layers:
        shapes = _param_shapes(layer)
        weight = seeded_fill(shapes[0], "kaiming_normal", _mix(seed, layer.index),
                             fan_in=math.prod(shapes[0][1:]))
        bias = zeros(shapes[1]) if len(shapes) > 1 else None
        layers.append(replace(layer, weight=weight, bias=bias))
    return replace(graph, layers=layers)


def _param_shapes(layer: ParamLayer) -> list[tuple[int, ...]]:
    """Weight shape, then bias shape for dense layers."""
    c_out = layer.out_shape[0]
    if layer.kind == "conv":
        return [(c_out, layer.in_channels // layer.groups, layer.kernel, layer.kernel)]
    return [(c_out, layer.in_channels), (c_out,)]


def _emit_resnet_block(b: _GraphBuilder, c_in: int, gene: StageGene, stride: int,
                       groups: int, h_in: int, w_in: int) -> tuple[int, int]:
    c = gene.channels
    first_groups = groups if c_in % groups == 0 else 1
    b.program.append(("push",))
    _, h, w = b.add_conv(c_in, c, gene.kernel, stride, first_groups, h_in, w_in)
    b.program.append(("relu",))
    b.add_conv(c, c, gene.kernel, 1, groups, h, w)
    if stride == 1 and c_in == c:
        b.program.append(("pop_add",))
    else:
        proj_idx, _, _ = b.add_conv(c_in, c, 1, stride, 1, h_in, w_in, emit=False)
        b.program.append(("pop_proj_add", proj_idx))
    b.program.append(("relu",))
    return h, w


def _emit_effnet_block(b: _GraphBuilder, c_in: int, gene: StageGene, stride: int,
                       groups: int, expansion: int, h: int, w: int) -> tuple[int, int]:
    c = gene.channels
    expanded = c * expansion
    skip = stride == 1 and c_in == c
    if skip:
        b.program.append(("push",))
    _, h0, w0 = b.add_conv(c_in, expanded, 1, 1, 1, h, w)
    b.program.append(("relu",))
    _, h, w = b.add_conv(expanded, expanded, gene.kernel, stride, groups, h0, w0)
    b.program.append(("relu",))
    b.add_conv(expanded, c, 1, 1, 1, h, w)
    if skip:
        b.program.append(("pop_add",))
    return h, w


# -- accounting ----------------------------------------------------------------

def count_params(graph: LayerGraph) -> int:
    """Total element count over every parameter tensor (weights and biases)."""
    return sum(math.prod(shape) for layer in graph.layers
               for shape in _param_shapes(layer))


def layer_macs(layer: ParamLayer) -> int:
    """Multiply-accumulates of one layer for one sample."""
    c, h, w = layer.out_shape
    if layer.kind == "conv":
        return h * w * c * (layer.in_channels // layer.groups) * layer.kernel ** 2
    return layer.in_channels * c


def count_macs(graph: LayerGraph) -> int:
    """Multiply-accumulates for one sample: conv taps plus dense products."""
    return sum(layer_macs(layer) for layer in graph.layers)


# -- variation -------------------------------------------------------------------

REPEATS_RATE = 0.3
CHANNELS_RATE = 0.3
KERNEL_RATE = 0.2
CONV_MODE_RATE = 0.2
EXPANSION_RATE = 0.2  # drawn only when the space declares several expansions


def _step(choices: tuple[int, ...], value: int, delta: int) -> int:
    """Move `delta` places along the sorted choices, clamped at the ends."""
    ordered = sorted(choices)
    return ordered[min(max(ordered.index(value) + delta, 0), len(ordered) - 1)]


def _another(choices: tuple, value, rng: np.random.Generator):
    """A different declared value, or `value` itself when there is none."""
    options = [c for c in choices if c != value]
    return options[rng.integers(0, len(options))] if options else value


def mutate(genome: Genome, space: GenomeSpace, seed: int) -> Genome:
    """Seeded point mutation within the declared choices of a search space.

    Repeats move one place and channels one or two places along their
    sorted declared lists, clamped at the ends; kernels, conv modes and the
    expansion jump to another declared value. A stage whose mode is illegal
    at its new channel count takes the first declared mode legal there.
    Strides are part of the space topology and never mutated. The genome
    must lie in the space.
    """
    rng = np.random.default_rng(_mix(seed, 0x6D75))
    stages = []
    expansion = genome.expansion
    if len(space.expansion_choices) > 1 and genome.family == "effnet_like" \
            and rng.random() < EXPANSION_RATE:
        expansion = _another(space.expansion_choices, expansion, rng)
    for gene in genome.stages:
        repeats = gene.repeats
        channels = gene.channels
        kernel = gene.kernel
        mode = gene.conv_mode
        if rng.random() < REPEATS_RATE:
            repeats = _step(space.repeat_choices, repeats, int(rng.choice([-1, 1])))
        if rng.random() < CHANNELS_RATE:
            channels = _step(space.channel_choices, channels,
                             int(rng.choice([-2, -1, 1, 2])))
        if rng.random() < KERNEL_RATE:
            kernel = _another(space.kernel_choices, kernel, rng)
        if rng.random() < CONV_MODE_RATE:
            mode = _another(space.conv_modes, mode, rng)
        if not mode_is_legal(genome.family, channels, mode):
            mode = next(m for m in space.conv_modes
                        if mode_is_legal(genome.family, channels, m))
        stages.append(StageGene(repeats, channels, kernel, mode, gene.stride))
    child = replace(genome, stages=tuple(stages), expansion=expansion)
    validate_genome(child)
    return child


def crossover(a: Genome, b: Genome, seed: int) -> Genome:
    """Uniform per-stage crossover of the searched knobs.

    Stage strides (the space topology) always come from parent `a` so the
    child keeps a consistent stride pattern; scalar fields are inherited
    per-field from a random parent.
    """
    if a.family != b.family or len(a.stages) != len(b.stages):
        raise IncompatibleParentsError(
            f"parents differ in family or stage count: "
            f"{a.family}/{len(a.stages)} vs {b.family}/{len(b.stages)}")
    rng = np.random.default_rng(_mix(seed, 0x786F))
    stages = []
    for ga, gb in zip(a.stages, b.stages):
        pick = gb if rng.random() < 0.5 else ga
        stages.append(StageGene(repeats=pick.repeats, channels=pick.channels,
                                kernel=pick.kernel, conv_mode=pick.conv_mode,
                                stride=ga.stride))
    child = Genome(
        family=a.family,
        stages=tuple(stages),
        stem_channels=(b if rng.random() < 0.5 else a).stem_channels,
        num_classes=a.num_classes,
        input_resolution=a.input_resolution,
        expansion=(b if rng.random() < 0.5 else a).expansion,
    )
    # per-stage genes are inherited whole from one valid parent, so no
    # repair is needed; validation guards against exotic parent mixes
    validate_genome(child)
    return child
