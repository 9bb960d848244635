import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_mac_count,
    brute_force_param_count,
    count_params,
    depth_width_penalty,
    parameter_hash,
    random_genome,
    seeded_fill,
)
from zicobc.latency import LatencyTable, estimate
from zicobc.network import (
    CONV_MODES,
    MAX_EXTENT,
    Genome,
    GenomeError,
    StageGene,
    compile_genome,
    count_macs,
    genome_from_dict,
    genome_to_json,
    init_weights,
    mode_is_legal,
    resolve_groups,
)
from zicobc.search import (
    GenomeSpace,
    IncompatibleParentsError,
    genome_crossover,
    genome_mutate,
)
from zicobc.tensor import Tape


def single_stage_genome(family="resnet_like", repeats=1, channels=32, kernel=3,
                        conv_mode="regular", stride=1, resolution=8, **kw) -> Genome:
    return Genome(
        family=family,
        stages=(StageGene(repeats, channels, kernel, conv_mode, stride),),
        stem_channels=kw.get("stem_channels", 8),
        num_classes=kw.get("num_classes", 4),
        input_resolution=(resolution, resolution),
        expansion=kw.get("expansion", 4),
    )


# group and depthwise stages, which random_genome never or rarely draws
GROUPED_GENOMES = [
    single_stage_genome(family="effnet_like", conv_mode="depthwise"),
    single_stage_genome(family="effnet_like", conv_mode="group"),
    single_stage_genome(conv_mode="group", channels=96, stride=2),
]


# (stage-0 fields, genome fields) that make single_stage_genome() invalid,
# and the field the error names
INVALID_FIELDS = [
    ({"repeats": 1.9}, {}, "stages[0].repeats"),
    ({"stride": True}, {}, "stages[0].stride"),
    ({"channels": "64"}, {}, "stages[0].channels"),
    ({}, {"input_resolution": (8, 8, 7)}, "input_resolution"),
    ({}, {"expansion": 3}, "expansion"),
    ({}, {"expansion": 2}, "expansion"),  # legal for effnet_like only
    ({"stride": 2}, {"input_resolution": (7, 7)}, "input_resolution"),
    ({"channels": MAX_EXTENT + 8}, {}, "stages[0].channels: must be at most 65536"),
    ({"channels": 8 * 10 ** 200}, {}, "stages[0].channels: must be at most"),
    ({}, {"stem_channels": MAX_EXTENT + 8}, "stem_channels: must be at most"),
    ({}, {"num_classes": MAX_EXTENT + 1}, "num_classes: must be at most"),
    ({}, {"input_resolution": (MAX_EXTENT + 2, 8)}, "input_resolution[0]: must be at most"),
    ({}, {"input_resolution": (8, 10 ** 400)}, "input_resolution[1]: must be at most"),
    ({"conv_mode": "foo"}, {}, "stages[0].conv_mode: unknown mode 'foo'"),
    # a list would compare unequal to the tuple genome and not hash
    ({}, {"input_resolution": [8, 8]}, "input_resolution: need a tuple of 2 extents"),
    ({}, {"stages": [StageGene(1, 32, 3, "regular", 1)]}, "stages: must be a tuple, got list"),
]


class TestValidation:
    def test_valid_genome_passes(self):
        single_stage_genome()

    def test_group_mode_requires_divisible_channels(self):
        with pytest.raises(GenomeError, match="group"):
            single_stage_genome(channels=24, conv_mode="group")

    def test_resolution_stride_divisibility(self):
        with pytest.raises(GenomeError, match="divisible"):
            Genome(
                family="resnet_like",
                stages=(StageGene(1, 16, 3, "regular", 2),
                        StageGene(1, 16, 3, "regular", 2)),
                stem_channels=8, num_classes=4, input_resolution=(6, 6))

    @pytest.mark.parametrize("family", ["resnet_like", "effnet_like"])
    def test_unknown_mode_is_never_legal(self, family):
        assert not mode_is_legal(family, 64, "foo")
        with pytest.raises(GenomeError, match="^conv_mode: unknown mode 'foo'$"):
            resolve_groups(family, 32, "foo", 4)

    def test_depthwise_only_for_effnet(self):
        with pytest.raises(GenomeError, match="depthwise"):
            single_stage_genome(conv_mode="depthwise")
        single_stage_genome(family="effnet_like", conv_mode="depthwise")

    def test_field_errors_name_field(self):
        with pytest.raises(GenomeError, match="repeats"):
            single_stage_genome(repeats=0)
        with pytest.raises(GenomeError, match="kernel"):
            single_stage_genome(kernel=7)
        with pytest.raises(GenomeError, match="channels"):
            single_stage_genome(channels=12)

    def test_every_extent_may_reach_the_bound(self):
        # built and priced, never scored: numpy would need terabytes
        g = single_stage_genome(channels=MAX_EXTENT, stem_channels=MAX_EXTENT,
                                num_classes=MAX_EXTENT, resolution=MAX_EXTENT)
        total = estimate(compile_genome(g), LatencyTable(fallback_us_per_mac=0.001)).total_us
        assert 0 < total < float("inf")

    @pytest.mark.parametrize("gene_fields,fields,named", INVALID_FIELDS)
    def test_build_or_replace_to_bad_field_raises_naming_it(self, gene_fields, fields,
                                                           named):
        valid = single_stage_genome()
        stages = (dataclasses.replace(valid.stages[0], **gene_fields),)
        with pytest.raises(GenomeError, match="^" + re.escape(named)):
            Genome(**{**vars(valid), "stages": stages, **fields})
        with pytest.raises(GenomeError, match="^" + re.escape(named)):
            dataclasses.replace(valid, **{"stages": stages, **fields})


class _ShapeRecordingTape(Tape):
    """Records the output shape of every conv and dense op in execution order."""

    def __init__(self) -> None:
        super().__init__()
        self.layer_shapes: list[tuple[int, ...]] = []

    def conv2d(self, *args, **kwargs):
        out = super().conv2d(*args, **kwargs)
        self.layer_shapes.append(out.shape)
        return out

    def dense(self, *args, **kwargs):
        out = super().dense(*args, **kwargs)
        self.layer_shapes.append(out.shape)
        return out


class TestCompile:
    def test_stride1_preserves_spatial_dims(self):
        graph = compile_genome(single_stage_genome())
        block_layers = [l for l in graph.layers if l.kind == "conv" and l.index > 1]
        assert block_layers
        for layer in block_layers:
            assert layer.out_shape == (32, 8, 8)

    def test_stride2_halves_spatial_dims(self):
        g = Genome(
            family="resnet_like",
            stages=(StageGene(1, 16, 3, "regular", 1),
                    StageGene(2, 16, 3, "regular", 2)),
            stem_channels=8, num_classes=4, input_resolution=(8, 8))
        graph = compile_genome(g)
        # stem + stage1 block at 8x8; stage2 first conv output must be 4x4
        stage2_first = next(l for l in graph.layers
                            if l.kind == "conv" and l.stride == 2)
        assert stage2_first.out_shape[1:] == (4, 4)

    def test_compile_is_deterministic(self):
        g = random_genome(np.random.default_rng(0))
        d1 = parameter_hash(init_weights(compile_genome(g), 7))
        d2 = parameter_hash(init_weights(compile_genome(g), 7))
        assert d1 == d2
        d3 = parameter_hash(init_weights(compile_genome(g), 8))
        assert d1 != d3

    def test_shape_inference_agrees_with_forward(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            genome = random_genome(rng)
            graph = init_weights(compile_genome(genome), 3)
            x = seeded_fill((2, 3, *genome.input_resolution), "gaussian", 1)
            tape = _ShapeRecordingTape()
            out = graph.forward(tape, x)
            assert out.shape == (2, genome.num_classes)
            trace = dict(enumerate(tape.layer_shapes))
            assert len(trace) == len(graph.layers)
            for i, layer in enumerate(graph.layers):
                c, h, w = layer.out_shape
                expected = (2, c, h, w) if layer.kind == "conv" else (2, c)
                assert trace[i] == expected, f"layer {i + 1} ({layer.kind})"

    def test_depth_monotonic_in_repeats(self):
        for family, per_block in [("resnet_like", 2), ("effnet_like", 3)]:
            for repeats in (1, 2, 3):
                g1 = single_stage_genome(family=family, repeats=repeats)
                g2 = single_stage_genome(family=family, repeats=repeats + 1)
                d1 = len(compile_genome(g1).layers)
                d2 = len(compile_genome(g2).layers)
                assert d2 - d1 == per_block

    # group mode sets a group count: resnet_like takes the largest of 128/64/32
    # dividing the stage channels (depthwise at 32, 64, 128), and a block's
    # first conv drops to 1 group when that count does not divide its input;
    # effnet_like always uses 32 groups on the expanded channels
    @pytest.mark.parametrize(
        "family,channels,block_in,expansion,groups,per_group", [
            ("resnet_like", 64, 64, 4, (64, 64), 1),
            ("resnet_like", 96, 96, 4, (32, 32), 3),
            ("resnet_like", 128, 128, 4, (128, 128), 1),
            ("resnet_like", 32, 32, 4, (32, 32), 1),
            ("resnet_like", 64, 16, 4, (1, 64, 1), 1),  # from the 16-channel stem
            ("resnet_like", 96, 16, 4, (1, 32, 1), 3),
            ("resnet_like", 128, 64, 4, (1, 128, 1), 1),
            ("resnet_like", 64, 128, 4, (64, 64, 1), 1),
            ("effnet_like", 32, 16, 4, (1, 32, 1), 4),
            ("effnet_like", 64, 64, 1, (1, 32, 1), 2),
            ("effnet_like", 96, 16, 2, (1, 32, 1), 6),
        ])
    def test_group_counts(self, family, channels, block_in, expansion, groups,
                          per_group):
        genome = single_stage_genome(family=family, channels=channels,
                                     conv_mode="group", stem_channels=block_in,
                                     expansion=expansion)
        # between the stem and the classifier: one block, plus any projection
        block = compile_genome(genome).layers[1:-1]
        assert tuple(layer.groups for layer in block) == groups
        spatial = block[1]  # resnet_like second conv, effnet_like k x k conv
        assert spatial.in_channels // spatial.groups == per_group

    def test_effnet_expansion_changes_width(self):
        g1 = single_stage_genome(family="effnet_like", expansion=1)
        g4 = single_stage_genome(family="effnet_like", expansion=4)
        p1 = count_params(compile_genome(g1))
        p4 = count_params(compile_genome(g4))
        assert p4 > p1


class TestCounting:
    def test_param_count_matches_element_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            graph = init_weights(compile_genome(random_genome(rng)), 1)
            assert count_params(graph) == brute_force_param_count(graph)

    def test_plan_param_count_matches_weighted_tensors(self):
        rng = np.random.default_rng(33)
        genomes = [random_genome(rng) for _ in range(6)] + GROUPED_GENOMES
        for seed, genome in enumerate(genomes):
            plan = compile_genome(genome)
            assert count_params(plan) == \
                brute_force_param_count(init_weights(plan, seed))

    def test_accounting_same_on_plan_and_weighted_graph(self):
        rng = np.random.default_rng(34)
        genomes = [random_genome(rng) for _ in range(6)] + GROUPED_GENOMES
        table = LatencyTable(fallback_us_per_mac=0.25)
        for seed, genome in enumerate(genomes):
            plan = compile_genome(genome)
            graph = init_weights(plan, seed)
            assert all(l.weight is None and l.bias is None for l in plan.layers)
            assert estimate(plan, table) == estimate(graph, table)
            assert count_macs(plan) == count_macs(graph)
            assert count_params(plan) == count_params(graph)
            assert depth_width_penalty(plan) == depth_width_penalty(graph)

    def test_mac_formula_instantiation(self):
        # 3x3 conv, 16 -> 16 channels, groups 1, 8x8 output: 8*8*16*16*9
        g = single_stage_genome(channels=16, stem_channels=16)
        graph = compile_genome(g)
        block = [l for l in graph.layers if l.kind == "conv" and l.index > 1]
        for layer in block:
            assert layer.out_shape == (16, 8, 8)
        per_layer = 8 * 8 * 16 * 16 * 9
        stem = 8 * 8 * 16 * 3 * 9
        dense = 16 * 4
        assert count_macs(graph) == stem + 2 * per_layer + dense

    def test_mac_count_matches_tap_enumeration(self):
        rng = np.random.default_rng(32)
        for _ in range(6):
            genome = random_genome(rng, resolution=4, channel_choices=(8, 16))
            graph = compile_genome(genome)
            assert count_macs(graph) == brute_force_mac_count(graph)

    def test_params_strictly_increase_with_channels(self):
        for family in ("resnet_like", "effnet_like"):
            counts = [
                count_params(compile_genome(
                    single_stage_genome(family=family, channels=c)))
                for c in (16, 24, 32, 40)
            ]
            assert all(a < b for a, b in zip(counts, counts[1:]))


class TestSerialization:
    def test_round_trip_is_byte_stable(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_genome(rng)
            text = genome_to_json(g)
            again = genome_to_json(genome_from_dict(json.loads(text)))
            assert text == again
            assert genome_from_dict(json.loads(text)) == g

    def test_malformed_json_raises(self):
        with pytest.raises(GenomeError, match="field"):
            genome_from_dict({"family": "resnet_like"})

    def test_only_schema_keys_and_expansion_may_be_left_out(self):
        g = random_genome(np.random.default_rng(42), family="resnet_like")
        data = json.loads(genome_to_json(g))
        del data["expansion"]
        assert genome_from_dict(data) == g
        with pytest.raises(GenomeError, match=r"^expanson: unknown field$"):
            genome_from_dict({**data, "expanson": 2})
        data["stages"][-1]["strde"] = 1
        with pytest.raises(GenomeError, match=re.escape(
                f"stages[{len(g.stages) - 1}].strde: unknown field")):
            genome_from_dict(data)


def space_around(g: Genome, **choices) -> GenomeSpace:
    """A search space with g's family and topology; choices default to every
    repeat count, every multiple of 8 up to 512 channels, both kernels,
    regular and group modes and every expansion (only 4 for resnet_like)."""
    expansions = (1, 2, 4, 6) if g.family == "effnet_like" else (4,)
    choices = {"channel_choices": tuple(range(8, 513, 8)),
               "repeat_choices": tuple(range(1, 13)),
               "kernel_choices": (3, 5), "conv_modes": ("regular", "group"),
               "expansion_choices": expansions, **choices}
    return GenomeSpace(family=g.family, strides=tuple(s.stride for s in g.stages),
                       stem_channels=g.stem_channels, num_classes=g.num_classes,
                       input_resolution=g.input_resolution, **choices)


class TestVariation:
    def test_one_choice_per_knob_is_identity(self):
        space = GenomeSpace(family="effnet_like", strides=(1, 2),
                            channel_choices=(32,), repeat_choices=(2,),
                            kernel_choices=(5,), conv_modes=("group",),
                            expansion_choices=(2,), input_resolution=(8, 8))
        g = space.sample(np.random.default_rng(51))
        for seed in range(50):
            assert genome_mutate(g, space, seed=seed) == g

    # (family, declared modes, mode a group stage takes at 40 channels)
    MODE_REPAIR_CASES = [
        ("resnet_like", ("group", "regular"), "regular"),
        ("resnet_like", ("regular", "group"), "regular"),
        ("effnet_like", ("group", "depthwise"), "depthwise"),
        ("effnet_like", ("group", "regular"), "regular"),
    ]

    @pytest.mark.parametrize("family,modes,repaired", MODE_REPAIR_CASES)
    def test_mode_repair_keeps_channels(self, family, modes, repaired):
        g = single_stage_genome(family=family, channels=32, conv_mode="group")
        space = space_around(g, channel_choices=(32, 40), repeat_choices=(1,),
                             kernel_choices=(3,), conv_modes=modes,
                             expansion_choices=(4,))
        moved = [c for c in (genome_mutate(g, space, seed=s) for s in range(100))
                 if c.stages[0].channels == 40]
        assert moved  # some seeds step to 40, where group is illegal
        assert {c.stages[0].conv_mode for c in moved} == {repaired}

    def test_self_crossover_is_identity(self):
        rng = np.random.default_rng(52)
        for seed in range(10):
            g = random_genome(rng)
            assert genome_crossover(g, g, seed=seed) == g

    def test_incompatible_parents(self):
        a = single_stage_genome()
        b = single_stage_genome(family="effnet_like")
        with pytest.raises(IncompatibleParentsError):
            genome_crossover(a, b, 0)
        c = Genome(family="resnet_like",
                   stages=a.stages + a.stages,
                   stem_channels=8, num_classes=4, input_resolution=(8, 8))
        with pytest.raises(IncompatibleParentsError):
            genome_crossover(a, c, 0)

    def test_mutation_children_always_valid(self):
        rng = np.random.default_rng(53)
        g = random_genome(rng)
        space = space_around(g, channel_choices=tuple(range(8, 129, 8)))
        for seed in range(2000):
            g2 = genome_mutate(g, space, seed=seed)  # raises GenomeError on violation
            assert genome_from_dict(json.loads(genome_to_json(g2))) == g2
            if seed % 97 == 0:
                g = g2  # walk the space a little

    @given(st.integers(min_value=0, max_value=10**9), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_mutation_validity_property(self, seed, genome_pick):
        g = random_genome(np.random.default_rng(genome_pick))
        # depthwise is declarable only where it is legal: effnet_like
        modes = CONV_MODES if g.family == "effnet_like" else ("regular", "group")
        space = space_around(g, conv_modes=modes)
        child = genome_mutate(g, space, seed=seed)  # raises GenomeError on violation
        assert genome_from_dict(json.loads(genome_to_json(child))) == child
        assert child.family == g.family
        assert len(child.stages) == len(g.stages)
        assert tuple(s.stride for s in child.stages) == \
            tuple(s.stride for s in g.stages)

    def test_mutation_is_deterministic(self):
        g = random_genome(np.random.default_rng(55))
        space = space_around(g)
        assert genome_mutate(g, space, seed=9) == genome_mutate(g, space, seed=9)
