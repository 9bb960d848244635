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
from dataclasses import MISSING, asdict, dataclass, fields, replace

import numpy as np

from .tensor import Tape, Tensor

FAMILIES = ("effnet_like", "resnet_like")
CONV_MODES = ("regular", "group", "depthwise")
KERNEL_CHOICES = (3, 5)
EXPANSION_CHOICES = (1, 2, 4, 6)
RESNET_GROUP_COUNTS = (128, 64, 32)  # largest one dividing the channels wins
EFFNET_GROUP_COUNT = 32
INPUT_CHANNELS = 3
MAX_STAGES = 8
MAX_REPEATS = 12
MAX_EXTENT = 2 ** 16  # channels, classes and each input extent; keeps MACs in float range
CHANNEL_STEP = 8


def check_ints(numbers, error: type[ValueError]) -> None:
    """Raise `error` naming the first (field, value) pair whose value is not
    an int; a bool is not one. Genomes and all settings share this rule."""
    for field, value in numbers:
        if isinstance(value, bool) or not isinstance(value, int):
            raise error(f"{field}: must be an integer, got {value!r}")


class GenomeError(ValueError):
    """Genome violates a schema invariant; message names the field."""


@dataclass(frozen=True)
class StageGene:
    repeats: int
    channels: int
    kernel: int
    conv_mode: str
    stride: int


@dataclass(frozen=True)
class Genome:
    """An architecture; one that exists is valid.

    Construction, `dataclasses.replace` included, raises `GenomeError`
    naming the first bad field, so no caller re-checks a genome.
    """

    family: str
    stages: tuple[StageGene, ...]
    stem_channels: int
    num_classes: int
    input_resolution: tuple[int, int]
    expansion: int = 4  # effnet_like bottleneck expansion; always 4 for resnet_like

    def __post_init__(self) -> None:
        if len(self.input_resolution) != 2:
            raise GenomeError(f"input_resolution: need 2 extents (HxW), "
                              f"got {len(self.input_resolution)}")
        h, w = self.input_resolution
        numbers = [(f"stages[{i}].{name}", getattr(gene, name))
                   for i, gene in enumerate(self.stages)
                   for name in ("repeats", "kernel", "stride")]
        extents = [(f"stages[{i}].channels", gene.channels)
                   for i, gene in enumerate(self.stages)]
        extents += [("stem_channels", self.stem_channels), ("num_classes", self.num_classes),
                    ("input_resolution[0]", h), ("input_resolution[1]", w)]
        check_ints(numbers + extents + [("expansion", self.expansion)], GenomeError)
        for field, value in extents:
            if value > MAX_EXTENT:
                raise GenomeError(f"{field}: must be at most {MAX_EXTENT}, got {value}")
        if self.family not in FAMILIES:
            raise GenomeError(f"family: unknown family {self.family!r}")
        if not 1 <= len(self.stages) <= MAX_STAGES:
            raise GenomeError(f"stages: need 1..{MAX_STAGES} stages, got {len(self.stages)}")
        if self.stem_channels < 1 or self.stem_channels % CHANNEL_STEP != 0:
            raise GenomeError(
                f"stem_channels: must be a positive multiple of {CHANNEL_STEP}, "
                f"got {self.stem_channels}")
        if self.num_classes < 2:
            raise GenomeError(f"num_classes: need at least 2, got {self.num_classes}")
        if self.expansion not in EXPANSION_CHOICES:
            raise GenomeError(f"expansion: must be one of {EXPANSION_CHOICES}, "
                              f"got {self.expansion}")
        if self.family == "resnet_like" and self.expansion != 4:
            # nothing reads it, so another value would only split one
            # architecture into several canonical JSON forms
            raise GenomeError(f"expansion: resnet_like blocks have no expansion, "
                              f"so it must be 4, got {self.expansion}")
        if h < 1 or w < 1:
            raise GenomeError(f"input_resolution: extents must be positive, got {h}x{w}")
        stride_product = 1
        for i, gene in enumerate(self.stages):
            _validate_gene(self, i, gene)
            stride_product *= gene.stride
        if h % stride_product or w % stride_product:
            raise GenomeError(
                f"input_resolution: {h}x{w} not divisible by total stride {stride_product}")


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
        raise GenomeError(f"conv_mode: group requires channels divisible by one "
                          f"of {RESNET_GROUP_COUNTS}, got {channels}")
    if channels % EFFNET_GROUP_COUNT != 0:
        raise GenomeError(f"conv_mode: group requires channels divisible by "
                          f"{EFFNET_GROUP_COUNT}, got {channels}")
    return EFFNET_GROUP_COUNT


def mode_is_legal(family: str, channels: int, conv_mode: str) -> bool:
    """Whether `resolve_groups` accepts this stage; expansion is irrelevant."""
    try:
        resolve_groups(family, channels, conv_mode, expansion=1)
    except GenomeError:
        return False
    return True


def _validate_gene(genome: Genome, i: int, gene: StageGene) -> None:
    where = f"stages[{i}]"
    if not 1 <= gene.repeats <= MAX_REPEATS:
        raise GenomeError(f"{where}.repeats: need 1..{MAX_REPEATS}, got {gene.repeats}")
    if gene.channels < 1 or gene.channels % CHANNEL_STEP != 0:
        raise GenomeError(
            f"{where}.channels: must be a positive multiple of {CHANNEL_STEP}, "
            f"got {gene.channels}")
    if gene.kernel not in KERNEL_CHOICES:
        raise GenomeError(f"{where}.kernel: must be one of {KERNEL_CHOICES}, "
                          f"got {gene.kernel}")
    if gene.stride not in (1, 2):
        raise GenomeError(f"{where}.stride: must be 1 or 2, got {gene.stride}")
    if gene.conv_mode not in CONV_MODES:
        raise GenomeError(f"{where}.conv_mode: unknown mode {gene.conv_mode!r}")
    try:
        resolve_groups(genome.family, gene.channels, gene.conv_mode, genome.expansion)
    except GenomeError as exc:
        raise GenomeError(f"{where}.{exc}") from None


# -- serialization -----------------------------------------------------------

def genome_to_json(genome: Genome) -> str:
    """Canonical JSON form: sorted keys, compact separators, byte-stable."""
    return json.dumps(asdict(genome), sort_keys=True, separators=(",", ":"))


def read_text(path, error: type[ValueError]) -> str:
    """The text of an input file, read as UTF-8 with universal newlines;
    bytes that are not UTF-8 raise `error` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def parse_json(text: str, where: str, error: type[ValueError]):
    """`json.loads(text)`; text that does not decode, an integer of more than
    4300 digits or nesting too deep for the parser included, raises `error`
    naming `where`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON: {exc}") from None


def _json_object(value, path: str, schema: type) -> dict:
    """`value`, checked to be a JSON object with a key for every field of the
    dataclass `schema` that has no default, and no other key; `path` names
    it in errors."""
    if not isinstance(value, dict):
        raise GenomeError(f"{path or 'genome'}: must be a JSON object, "
                          f"got {json.dumps(value)}")
    prefix = f"{path}." if path else ""
    known = {f.name: f.default is MISSING for f in fields(schema)}
    for key in value:
        if key not in known:
            raise GenomeError(f"{prefix}{key}: unknown field")
    for key, required in known.items():
        if required and key not in value:
            raise GenomeError(f"{prefix}{key}: missing field")
    return value


def _json_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise GenomeError(f"{path}: must be a JSON array, got {json.dumps(value)}")
    return value


def genome_from_dict(data) -> Genome:
    """The genome a parsed JSON object describes; `expansion` may be left out.

    A missing, unknown or mistyped field raises GenomeError naming it.
    """
    _json_object(data, "", Genome)
    stages = tuple(StageGene(**_json_object(s, f"stages[{i}]", StageGene))
                   for i, s in enumerate(_json_array(data["stages"], "stages")))
    resolution = tuple(_json_array(data["input_resolution"], "input_resolution"))
    return Genome(**{**data, "stages": stages, "input_resolution": resolution})


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
        rng = np.random.default_rng(_mix(seed, layer.index))
        weight = Tensor(rng.normal(0.0, math.sqrt(2.0 / math.prod(shapes[0][1:])),
                                   shapes[0]))
        bias = Tensor(np.zeros(shapes[1])) if len(shapes) > 1 else None
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

def layer_macs(layer: ParamLayer) -> int:
    """Multiply-accumulates of one layer for one sample."""
    c, h, w = layer.out_shape
    if layer.kind == "conv":
        return h * w * c * (layer.in_channels // layer.groups) * layer.kernel ** 2
    return layer.in_channels * c


def count_macs(graph: LayerGraph) -> int:
    """Multiply-accumulates for one sample: conv taps plus dense products."""
    return sum(layer_macs(layer) for layer in graph.layers)
