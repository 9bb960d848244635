import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import blas_threads_set_to
from zicobc.network import CONV_MODES, EXPANSION_CHOICES, FAMILIES, genome_from_dict
from zicobc.proxy import blas_threads
from zicobc.search import (
    EvaluationFailure,
    GenomeSpace,
    Individual,
    ObjectiveError,
    ParetoArchive,
    SearchConfig,
    SearchConfigError,
    crowding_distance,
    dominates,
    non_dominated_sort,
    run_search,
)


def make_ind(objectives, key=None) -> Individual:
    key = key or json.dumps(list(objectives))
    return Individual(genome=None, key=key, objectives=tuple(objectives),
                      score=-objectives[0], latency_us=objectives[-1])


def brute_force_fronts(individuals):
    """O(n^2 * fronts) peeling of non-dominated sets."""
    remaining = list(range(len(individuals)))
    fronts = []
    while remaining:
        nd = [i for i in remaining
              if not any(dominates(individuals[j].objectives,
                                   individuals[i].objectives)
                         for j in remaining if j != i)]
        fronts.append(sorted(nd))
        remaining = [i for i in remaining if i not in nd]
    return fronts


def random_population(rng, n_obj):
    """Up to 24 members with tied values, -0.0 and repeated keys."""
    n = int(rng.integers(1, 25))
    values = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=(n, n_obj))
    drawn = rng.random((n, n_obj)) < 0.3
    values[drawn] = rng.normal(size=int(drawn.sum()))
    keys = rng.integers(0, n // 2 + 1, size=n)
    return [make_ind(tuple(row), key=str(k)) for row, k in zip(values.tolist(), keys)]


def straight_line_crowding(front):
    """The standard crowding formula, each objective walked in (value, key) order."""
    n = len(front)
    expected = [0.0] * n
    for m in range(len(front[0].objectives)):
        values = [ind.objectives[m] for ind in front]
        order = sorted(range(n), key=lambda i: (values[i], front[i].key))
        expected[order[0]] = expected[order[-1]] = math.inf
        span = values[order[-1]] - values[order[0]]
        if span == 0:
            continue
        for pos in range(1, n - 1):
            i = order[pos]
            if expected[i] == math.inf:
                continue
            expected[i] += (values[order[pos + 1]] - values[order[pos - 1]]) / span
    return expected


class ToySpace:
    """Integer genome x in [0, 31]; used with objectives (x^2, (x-16)^2)."""

    def sample(self, rng):
        return int(rng.integers(0, 32))

    def mutate(self, g, rng):
        step = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        return int(min(31, max(0, g + step)))

    def crossover(self, a, b, rng):
        return int(a) if rng.random() < 0.5 else int(b)

    def serialize(self, g):
        return str(int(g))


def toy_proxy(x):
    return -float(x * x)  # maximized score => minimizes x^2


def toy_latency(x):
    return float((x - 16) ** 2)


class TestNonDominatedSort:
    def test_single_individual(self):
        ind = make_ind((1.0, 2.0))
        fronts = non_dominated_sort([ind])
        assert fronts == [[ind]]
        assert ind.rank == 0

    def test_strict_dominance_two_fronts(self):
        a = make_ind((1.0, 1.0))
        b = make_ind((2.0, 2.0))
        fronts = non_dominated_sort([a, b])
        assert fronts == [[a], [b]]
        assert (a.rank, b.rank) == (0, 1)

    def test_matches_brute_force_on_random_populations(self):
        rng = np.random.default_rng(101)
        populations = [[make_ind(tuple(rng.integers(0, 10, size=2).astype(float)),
                                 key=str(i)) for i in range(64)]
                       for _ in range(40)]
        populations += [random_population(rng, n_obj)
                        for n_obj in (1, 2, 3) for _ in range(100)]
        for pop in populations:
            fronts = non_dominated_sort(pop)
            index_of = {id(ind): i for i, ind in enumerate(pop)}
            expected = brute_force_fronts(pop)
            # members keep population order within their front
            assert [[index_of[id(ind)] for ind in front] for front in fronts] == expected
            ranks = {i: rank for rank, front in enumerate(expected) for i in front}
            assert [ind.rank for ind in pop] == [ranks[i] for i in range(len(pop))]
            assert all(type(ind.rank) is int for ind in pop)

    def test_nan_objective_rejected(self):
        with pytest.raises(ObjectiveError, match="NaN"):
            non_dominated_sort([make_ind((float("nan"), 1.0))])


class TestCrowdingDistance:
    def test_small_fronts_all_infinite(self):
        for size in (1, 2):
            front = [make_ind((float(i), float(-i)), key=str(i)) for i in range(size)]
            crowding_distance(front)
            assert all(ind.crowding == math.inf for ind in front)

    def test_three_collinear_points(self):
        front = [make_ind((0.0, 0.0)), make_ind((1.0, 1.0)), make_ind((2.0, 2.0))]
        crowding_distance(front)
        assert front[0].crowding == math.inf
        assert front[2].crowding == math.inf
        assert front[1].crowding == pytest.approx(2.0)

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(102)
        fronts = [[make_ind(tuple(row), key=str(i))
                   for i, row in enumerate(rng.normal(size=(12, 2)).tolist())]
                  for _ in range(20)]
        fronts += [random_population(rng, n_obj) for n_obj in (1, 2, 3) for _ in range(100)]
        for front in fronts:
            crowding_distance(front)
            assert [ind.crowding.hex() for ind in front] == \
                [x.hex() for x in straight_line_crowding(front)]


class TestParetoArchive:
    def test_no_member_dominates_another(self):
        rng = np.random.default_rng(103)
        archive = ParetoArchive()
        for i in range(500):
            archive.add(make_ind(tuple(rng.integers(0, 20, size=2).astype(float)),
                                 key=str(i)))
        members = archive.members()
        for a in members:
            for b in members:
                if a is not b:
                    assert not dominates(a.objectives, b.objectives)

    def test_deduplicates_by_key(self):
        archive = ParetoArchive()
        archive.add(make_ind((1.0, 1.0), key="g"))
        archive.add(make_ind((1.0, 1.0), key="g"))
        assert len(archive) == 1

    def test_infeasible_never_enters(self):
        archive = ParetoArchive()
        bad = make_ind((0.0, 0.0), key="bad")
        bad.feasible = False
        archive.add(bad)
        assert len(archive) == 0


class TestRunSearch:
    def test_no_variation_keeps_initial_population(self):
        config = SearchConfig(population=8, generations=1, mutation_rate=0.0,
                              crossover_rate=0.0, seed=3)
        archive, log = run_search(ToySpace(), config, toy_proxy, toy_latency)
        gen0 = {json.dumps(r["genome"]) for r in log if r["generation"] == 0}
        gen1 = {json.dumps(r["genome"]) for r in log if r["generation"] == 1}
        assert gen0 == gen1

    def test_toy_problem_converges_to_full_pareto_set(self):
        expected = {str(x) for x in range(17)}
        for seed in range(3):
            config = SearchConfig(population=16, generations=50, mutation_rate=0.9,
                                  crossover_rate=0.5, seed=seed)
            archive, _ = run_search(ToySpace(), config, toy_proxy, toy_latency)
            assert {ind.key for ind in archive.members()} == expected

    def test_archive_matches_exhaustive_enumeration(self):
        # brute-force the 32-genome objective space
        points = [(toy_proxy(x), toy_latency(x)) for x in range(32)]
        objs = [(-s, l) for s, l in points]
        pareto = {str(x) for x in range(32)
                  if not any(dominates(objs[y], objs[x]) for y in range(32) if y != x)}
        config = SearchConfig(population=16, generations=50, seed=11)
        archive, _ = run_search(ToySpace(), config, toy_proxy, toy_latency)
        assert {ind.key for ind in archive.members()} == pareto

    def test_deterministic_across_thread_counts(self):
        config = SearchConfig(population=12, generations=8, seed=7)
        outputs = []
        for threads in (1, 8):
            archive, log = run_search(ToySpace(), config, toy_proxy, toy_latency,
                                      threads=threads)
            outputs.append(json.dumps({"archive": archive.to_json_list(),
                                       "log": log}))
        assert outputs[0] == outputs[1]

    def test_latency_ceiling_infeasible_last(self):
        config = SearchConfig(population=8, generations=5, seed=5,
                              latency_ceiling_us=100.0)
        archive, log = run_search(ToySpace(), config, toy_proxy, toy_latency)
        assert all(ind.latency_us <= 100.0 for ind in archive.members())
        for row in log:
            if row["latency_us"] > 100.0:
                assert row["rank"] == math.inf

    def test_evaluator_failure_carries_genome(self):
        def bad_proxy(x):
            if x >= 0:
                raise RuntimeError("boom")
            return 0.0

        config = SearchConfig(population=4, generations=1, seed=0)
        with pytest.raises(EvaluationFailure) as err:
            run_search(ToySpace(), config, bad_proxy, toy_latency)
        assert err.value.genome_json  # offending genome serialized in the error

    def test_unpriceable_genome_is_never_scored(self):
        calls = []

        def counting_proxy(x):
            calls.append(x)
            return toy_proxy(x)

        def unpriceable(x):
            raise ValueError("no table entry")

        config = SearchConfig(population=4, generations=1, seed=0)
        with pytest.raises(EvaluationFailure, match="no table entry"):
            run_search(ToySpace(), config, counting_proxy, unpriceable)
        assert calls == []

    @pytest.mark.parametrize("objective", ["proxy", "latency"])
    def test_infinite_objective_fails_naming_genome(self, objective):
        def infinite(x):
            return math.inf

        fns = {"proxy": toy_proxy, "latency": toy_latency, objective: infinite}
        config = SearchConfig(population=4, generations=1, seed=0)
        with pytest.raises(EvaluationFailure, match="non-finite objective") as err:
            run_search(ToySpace(), config, fns["proxy"], fns["latency"])
        assert err.value.genome_json

    @pytest.mark.skipif(blas_threads() is None,
                        reason="numpy's BLAS is not the bundled OpenBLAS")
    def test_evaluator_failure_restores_blas_threads(self):
        seen = []

        def bad_proxy(x):
            seen.append(blas_threads())
            if x >= 16:
                raise RuntimeError("boom")
            return 0.0

        config = SearchConfig(population=8, generations=1, seed=0)
        with blas_threads_set_to(2):
            with pytest.raises(EvaluationFailure):
                run_search(ToySpace(), config, bad_proxy, toy_latency, threads=2)
            assert blas_threads() == 2
        assert seen and set(seen) == {1}  # every candidate ran in the pinned pool

    def test_archive_sound_after_run(self):
        config = SearchConfig(population=8, generations=10, seed=13)
        archive, _ = run_search(ToySpace(), config, toy_proxy, toy_latency)
        members = archive.members()
        assert members
        for a in members:
            for b in members:
                if a is not b:
                    assert not dominates(a.objectives, b.objectives)

    def test_elitism_keeps_best_rank0(self):
        # the most crowded rank-0 member of any generation survives selection
        config = SearchConfig(population=8, generations=6, seed=9)
        _, log = run_search(ToySpace(), config, toy_proxy, toy_latency)
        by_gen = {}
        for row in log:
            by_gen.setdefault(row["generation"], []).append(row)
        for gen in range(1, 7):
            survivors = {json.dumps(r["genome"]) for r in by_gen[gen]}
            best_prev = [json.dumps(r["genome"]) for r in by_gen[gen - 1]
                         if r["rank"] == 0 and r["crowding"] == math.inf]
            # extreme (infinite-crowding) rank-0 points are never all evicted
            assert any(k in survivors for k in best_prev)


class TestSearchConfig:
    def test_bounds(self):
        with pytest.raises(SearchConfigError, match="population"):
            SearchConfig(population=5)
        with pytest.raises(SearchConfigError, match="population"):
            SearchConfig(population=2)
        with pytest.raises(SearchConfigError, match="generations"):
            SearchConfig(generations=0)
        with pytest.raises(SearchConfigError, match="mutation_rate"):
            SearchConfig(mutation_rate=1.5)
        SearchConfig()

    @pytest.mark.parametrize("field,value", [
        ("population", 7), ("generations", 0), ("mutation_rate", -0.1),
        ("crossover_rate", 1.5), ("latency_ceiling_us", 0.0),
        ("latency_ceiling_us", math.nan),
    ])
    def test_replace_to_bad_field_raises_naming_it(self, field, value):
        valid = SearchConfig(population=8, generations=2, latency_ceiling_us=500.0)
        with pytest.raises(SearchConfigError, match=field):
            dataclasses.replace(valid, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("population", 16.0), ("generations", 2.5), ("generations", True),
        ("seed", 1.5), ("seed", "3"),
    ])
    def test_non_integer_field_raises_naming_it(self, field, value):
        # an int, not a bool: the rule genome numbers follow
        with pytest.raises(SearchConfigError, match=f"^{field}: must be an integer"):
            SearchConfig(**{"population": 8, "generations": 2, field: value})


class TestGenomeSpace:
    def test_samples_are_valid_genomes(self):
        space = GenomeSpace(family="effnet_like", strides=(1, 2),
                            channel_choices=(16, 32, 64), repeat_choices=(1, 2, 3),
                            expansion_choices=(1, 2, 4),
                            input_resolution=(8, 8), num_classes=4)
        rng = np.random.default_rng(104)
        for _ in range(50):
            # each is a Genome, which raises GenomeError if built invalid
            g = space.sample(rng)
            g2 = space.mutate(g, rng)
            g3 = space.crossover(g, g2, rng)
            for genome in (g, g2, g3):
                assert genome_from_dict(json.loads(space.serialize(genome))) == genome

    def test_space_validation(self):
        with pytest.raises(SearchConfigError, match="divisible"):
            GenomeSpace(family="resnet_like", strides=(2, 2),
                        channel_choices=(16,), repeat_choices=(1,),
                        input_resolution=(6, 6))
        with pytest.raises(SearchConfigError, match="multiple"):
            GenomeSpace(family="resnet_like", strides=(1,),
                        channel_choices=(12,), repeat_choices=(1,))
        with pytest.raises(SearchConfigError, match="conv mode"):
            # group-only modes but no channel choice divisible by 32
            GenomeSpace(family="resnet_like", strides=(1,),
                        channel_choices=(16, 24), repeat_choices=(1,),
                        conv_modes=("group",))
        with pytest.raises(SearchConfigError, match="conv_modes: group"):
            # group is declared but legal at no declared channel count
            GenomeSpace(family="resnet_like", strides=(1,),
                        channel_choices=(16, 24), repeat_choices=(1,),
                        conv_modes=("regular", "group"))
        with pytest.raises(SearchConfigError, match="conv_modes: depthwise"):
            GenomeSpace(family="resnet_like", strides=(1,),
                        channel_choices=(32, 64), repeat_choices=(1,),
                        conv_modes=("regular", "depthwise"))
        with pytest.raises(SearchConfigError, match="repeat"):
            GenomeSpace(family="resnet_like", strides=(1,),
                        channel_choices=(16,), repeat_choices=(0, 1))
        with pytest.raises(SearchConfigError, match="kernel"):
            GenomeSpace(family="resnet_like", strides=(1,),
                        channel_choices=(16,), repeat_choices=(1,),
                        kernel_choices=(7,))
        with pytest.raises(SearchConfigError, match="expansion_choices"):
            GenomeSpace(family="resnet_like", strides=(1,),
                        channel_choices=(16,), repeat_choices=(1,),
                        expansion_choices=(2, 4))

    @pytest.mark.parametrize("field,values,named", [
        ("channel_choices", (16, 32, 16), "channel_choices: 16 is listed twice"),
        ("repeat_choices", (1, 2, 2), "repeat_choices: 2 is listed twice"),
        ("kernel_choices", (3, 3), "kernel_choices: 3 is listed twice"),
        ("expansion_choices", (2, 4, 2), "expansion_choices: 2 is listed twice"),
        ("conv_modes", ("regular", "group", "regular"),
         "conv_modes: 'regular' is listed twice"),
        ("conv_modes", ("regular", "foo"), "conv_modes: unknown mode 'foo'"),
    ])
    def test_bad_choice_list_raises_naming_field(self, field, values, named):
        with pytest.raises(SearchConfigError, match=f"^{re.escape(named)}$"):
            GenomeSpace(**{"family": "effnet_like", "strides": (1,),
                           "channel_choices": (16, 32), "repeat_choices": (1, 2),
                           field: values})

    @given(family=st.sampled_from(FAMILIES),
           channels=st.lists(st.sampled_from(range(8, 161, 8)), min_size=1,
                             max_size=4, unique=True),
           repeats=st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True),
           kernels=st.lists(st.sampled_from((3, 5)), min_size=1, unique=True),
           modes=st.lists(st.sampled_from(CONV_MODES), min_size=1, unique=True),
           expansions=st.lists(st.sampled_from(EXPANSION_CHOICES), min_size=1,
                               max_size=3, unique=True),
           seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_search_stays_in_declared_space(self, family, channels, repeats,
                                            kernels, modes, expansions, seed):
        try:
            space = GenomeSpace(family=family, strides=(1, 2, 1),
                                channel_choices=tuple(channels),
                                repeat_choices=tuple(repeats),
                                kernel_choices=tuple(kernels),
                                conv_modes=tuple(modes),
                                # resnet_like declares only expansion 4
                                expansion_choices=tuple(expansions)
                                if family == "effnet_like" else (4,),
                                input_resolution=(8, 8), num_classes=4)
        except SearchConfigError:
            assume(False)  # some channel count has no legal declared mode
        config = SearchConfig(population=8, generations=4, seed=seed)
        archive, log = run_search(
            space, config,
            proxy_fn=lambda g: float(sum(s.repeats * s.kernel for s in g.stages)),
            latency_fn=lambda g: float(sum(s.channels for s in g.stages)))
        genomes = [r["genome"] for r in log] + \
            [e["genome"] for e in archive.to_json_list()]
        for genome in genomes:
            if family == "effnet_like":
                assert genome["expansion"] in expansions
            for stage in genome["stages"]:
                assert stage["channels"] in channels
                assert stage["repeats"] in repeats
                assert stage["kernel"] in kernels
                assert stage["conv_mode"] in modes
