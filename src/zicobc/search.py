"""Latency-aware multi-objective evolutionary search over genome spaces.

The optimizer is the classic elitist scheme: fast non-dominated sorting
into Pareto fronts, crowding distances for diversity, binary-tournament
parent selection, and environmental selection from the union of parents
and offspring. Objectives are (negated proxy score, estimated latency),
both minimized. Candidates over the optional latency ceiling are ranked
behind every feasible individual instead of being penalized.

Determinism contract: identical configuration and seeds produce identical
archives and logs at any evaluator thread count. All randomness flows
through one sequentially-consumed generator, evaluations are pure and
memoized by genome serialization, and populations are canonicalized by a
stable genome key before selection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .network import (
    CONV_MODES,
    KERNEL_CHOICES,
    Genome,
    GenomeError,
    StageGene,
    _mix,
    check_ints,
    genome_to_json,
    mode_is_legal,
)
from .proxy import ProxyScore, parallel_map


class SearchConfigError(ValueError):
    """Configuration violates a stated bound."""


class ObjectiveError(RuntimeError):
    """An evaluator produced a NaN or otherwise unusable objective."""


class IncompatibleParentsError(ValueError):
    """Crossover parents differ in family or stage count."""


class EvaluationFailure(RuntimeError):
    """An evaluator raised; carries the offending genome's serialization."""

    def __init__(self, genome_json: str, cause: BaseException) -> None:
        super().__init__(f"evaluator failed on genome {genome_json}: {cause}")
        self.genome_json = genome_json


@dataclass(frozen=True)
class SearchConfig:
    """Evolution settings; checked when built, so an instance that exists is valid."""

    population: int = 64
    generations: int = 100
    mutation_rate: float = 0.9
    crossover_rate: float = 0.5
    seed: int = 0
    latency_ceiling_us: float | None = None

    def __post_init__(self) -> None:
        check_ints([("population", self.population), ("generations", self.generations),
                    ("seed", self.seed)], SearchConfigError)
        if self.population < 4 or self.population % 2:
            raise SearchConfigError(
                f"population must be even and >= 4, got {self.population}")
        if self.generations < 1:
            raise SearchConfigError(f"generations must be >= 1, got {self.generations}")
        for name, rate in (("mutation_rate", self.mutation_rate),
                           ("crossover_rate", self.crossover_rate)):
            if not 0.0 <= rate <= 1.0:
                raise SearchConfigError(f"{name} must be in [0, 1], got {rate}")
        ceiling = self.latency_ceiling_us
        if ceiling is not None and not 0 < ceiling < math.inf:
            raise SearchConfigError(
                f"latency_ceiling_us must be finite and positive, got {ceiling}")


@dataclass
class Individual:
    genome: object
    key: str
    objectives: tuple[float, ...]
    score: float
    latency_us: float
    zico: float | None = None
    penalty: float | None = None
    zico_bc: float | None = None
    rank: float = math.inf
    crowding: float = 0.0
    feasible: bool = True

    def log_row(self, generation: int) -> dict:
        return {
            "generation": generation,
            "genome": json.loads(self.key),
            "zico": self.zico,
            "penalty": self.penalty,
            "zico_bc": self.zico_bc,
            "latency_us": self.latency_us,
            "rank": self.rank,
            "crowding": self.crowding,
        }


def dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """Minimization dominance: no worse anywhere, strictly better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def non_dominated_sort(population: list[Individual]) -> list[list[Individual]]:
    """Deb's fast non-dominated sort; assigns ranks, returns the fronts."""
    for ind in population:
        if any(math.isnan(v) for v in ind.objectives):
            raise ObjectiveError(f"NaN objective for genome {ind.key}")
    n = len(population)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    for i in range(n):
        oi = population[i].objectives
        for j in range(i + 1, n):
            oj = population[j].objectives
            if dominates(oi, oj):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(oj, oi):
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: list[list[Individual]] = []
    current = [i for i in range(n) if domination_count[i] == 0]
    rank = 0
    while current:
        front = []
        for i in current:
            population[i].rank = rank
            front.append(population[i])
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        fronts.append(front)
        current = sorted(nxt)
        rank += 1
    return fronts


def crowding_distance(front: list[Individual]) -> None:
    """Per-objective normalized neighbor gaps; boundary members get +inf."""
    if not front:
        return
    for ind in front:
        ind.crowding = 0.0
    n_obj = len(front[0].objectives)
    for m in range(n_obj):
        ordered = sorted(front, key=lambda ind: (ind.objectives[m], ind.key))
        ordered[0].crowding = math.inf
        ordered[-1].crowding = math.inf
        span = ordered[-1].objectives[m] - ordered[0].objectives[m]
        if span == 0:
            continue
        for i in range(1, len(ordered) - 1):
            if ordered[i].crowding == math.inf:
                continue
            gap = ordered[i + 1].objectives[m] - ordered[i - 1].objectives[m]
            ordered[i].crowding += gap / span


class ParetoArchive:
    """Every non-dominated feasible candidate seen so far, deduplicated."""

    def __init__(self) -> None:
        self._members: dict[str, Individual] = {}

    def add(self, ind: Individual) -> None:
        if not ind.feasible or ind.key in self._members:
            return
        members = self._members
        for other in members.values():
            if dominates(other.objectives, ind.objectives):
                return
        doomed = [k for k, other in members.items()
                  if dominates(ind.objectives, other.objectives)]
        for k in doomed:
            del members[k]
        members[ind.key] = ind

    def members(self) -> list[Individual]:
        return [self._members[k] for k in sorted(self._members)]

    def __len__(self) -> int:
        return len(self._members)

    def to_json_list(self) -> list[dict]:
        return [
            {
                "genome": json.loads(ind.key),
                "zico": ind.zico,
                "penalty": ind.penalty,
                "zico_bc": ind.zico_bc,
                "score": ind.score,
                "latency_us": ind.latency_us,
            }
            for ind in self.members()
        ]


class _Evaluator:
    """Memoized, optionally threaded evaluation of genomes to Individuals."""

    def __init__(self, space, config: SearchConfig, proxy_fn, latency_fn,
                 threads: int) -> None:
        self.space = space
        self.config = config
        self.proxy_fn = proxy_fn
        self.latency_fn = latency_fn
        self.threads = threads
        self._cache: dict[str, tuple] = {}

    def _evaluate_key(self, key: str, genome) -> tuple:
        try:  # latency first: a genome it cannot price is never scored
            latency = float(self.latency_fn(genome))
            proxy = self.proxy_fn(genome)
        except Exception as exc:
            raise EvaluationFailure(key, exc) from exc
        if isinstance(proxy, ProxyScore):
            score = proxy.zico_bc
            detail = (proxy.zico, proxy.penalty, proxy.zico_bc)
        else:
            score = float(proxy)
            detail = (None, None, None)
        if not (math.isfinite(score) and math.isfinite(latency)):
            raise EvaluationFailure(key, ValueError("non-finite objective"))
        return score, latency, detail

    def __call__(self, genomes: list) -> list[Individual]:
        keyed = [(self.space.serialize(g), g) for g in genomes]
        missing = {}  # each key not yet evaluated -> its first genome
        for key, genome in keyed:
            if key not in self._cache:
                missing.setdefault(key, genome)
        results = parallel_map(lambda kg: self._evaluate_key(*kg), missing.items(),
                               self.threads)
        self._cache.update(zip(missing, results))
        out = []
        ceiling = self.config.latency_ceiling_us
        for key, genome in keyed:
            score, latency, detail = self._cache[key]
            out.append(Individual(
                genome=genome, key=key, objectives=(-score, latency),
                score=score, latency_us=latency,
                zico=detail[0], penalty=detail[1], zico_bc=detail[2],
                feasible=ceiling is None or latency <= ceiling,
            ))
        return out


def _rank_population(population: list[Individual]) -> list[list[Individual]]:
    """Canonical rank/crowding assignment; returns the fronts of feasible members.

    Infeasible members sit behind every front: rank inf, crowding 0.
    """
    feasible = [ind for ind in population if ind.feasible]
    for ind in population:
        if not ind.feasible:
            ind.rank = math.inf
            ind.crowding = 0.0
    fronts = non_dominated_sort(feasible)
    for front in fronts:
        crowding_distance(front)
    return fronts


def _environmental_selection(combined: list[Individual],
                             size: int) -> list[Individual]:
    """Elitist truncation of parents + offspring to the population size.

    The pool is deduplicated by genome key (scores are deterministic, so
    copies carry no information); with no variation at all the selection
    therefore returns exactly the evaluated initial population.
    """
    unique: dict[str, Individual] = {}
    for ind in combined:
        unique.setdefault(ind.key, ind)
    combined = [unique[k] for k in sorted(unique)]
    selected: list[Individual] = []
    for front in _rank_population(combined):
        if len(selected) + len(front) <= size:
            selected.extend(sorted(front, key=lambda ind: ind.key))
        else:
            room = size - len(selected)
            ordered = sorted(front, key=lambda ind: (-ind.crowding, ind.key))
            selected.extend(ordered[:room])
            break
    if len(selected) < size:
        # infeasible-last: fill by smallest ceiling violation
        backfill = sorted((ind for ind in combined if not ind.feasible),
                          key=lambda ind: (ind.latency_us, ind.key))
        selected.extend(backfill[:size - len(selected)])
    return selected


def _fitness(ind: Individual) -> tuple[float, float]:
    """Tournament key, smaller wins; any feasible member beats any infeasible one."""
    if ind.feasible:
        return ind.rank, -ind.crowding
    return math.inf, ind.latency_us


def _tournament(population: list[Individual], rng: np.random.Generator) -> Individual:
    i = int(rng.integers(0, len(population)))
    j = int(rng.integers(0, len(population)))
    a, b = population[i], population[j]
    return b if _fitness(b) < _fitness(a) else a


def run_search(space, config: SearchConfig, proxy_fn: Callable,
               latency_fn: Callable, threads: int = 1,
               progress: Callable[[str], None] | None = None,
               ) -> tuple[ParetoArchive, list[dict]]:
    """Evolve a population and collect the global Pareto archive.

    `space` supplies sample/mutate/crossover over genomes plus a
    serialize() producing stable JSON text (the dedup and ordering key).
    proxy_fn maps a genome to a ProxyScore or plain float (maximized);
    latency_fn maps a genome to microseconds (minimized). Returns the
    archive and one log row per individual per generation.
    """
    rng = np.random.default_rng(_mix(config.seed, 0x5345))
    evaluate = _Evaluator(space, config, proxy_fn, latency_fn, threads)
    archive = ParetoArchive()
    log: list[dict] = []

    population = evaluate([space.sample(rng) for _ in range(config.population)])
    for ind in sorted(population, key=lambda ind: ind.key):
        archive.add(ind)
    _rank_population(sorted(population, key=lambda ind: ind.key))
    log.extend(ind.log_row(0) for ind in population)
    if progress:
        progress(f"generation 0: archive={len(archive)}")

    for gen in range(1, config.generations + 1):
        offspring_genomes = []
        for _ in range(config.population // 2):
            p1 = _tournament(population, rng)
            p2 = _tournament(population, rng)
            if rng.random() < config.crossover_rate:
                c1 = space.crossover(p1.genome, p2.genome, rng)
                c2 = space.crossover(p2.genome, p1.genome, rng)
            else:
                c1, c2 = p1.genome, p2.genome
            if rng.random() < config.mutation_rate:
                c1 = space.mutate(c1, rng)
            if rng.random() < config.mutation_rate:
                c2 = space.mutate(c2, rng)
            offspring_genomes.extend((c1, c2))
        offspring = evaluate(offspring_genomes)
        for ind in sorted(offspring, key=lambda ind: ind.key):
            archive.add(ind)
        population = _environmental_selection(population + offspring,
                                              config.population)
        log.extend(ind.log_row(gen) for ind in population)
        if progress:
            progress(f"generation {gen}: archive={len(archive)}")
    return archive, log


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


def genome_mutate(genome: Genome, space: GenomeSpace, seed: int) -> Genome:
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
    if len(space.expansion_choices) > 1 and rng.random() < EXPANSION_RATE:
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
            mode = space.legal_modes(channels)[0]
        stages.append(StageGene(repeats, channels, kernel, mode, gene.stride))
    return replace(genome, stages=tuple(stages), expansion=expansion)


def genome_crossover(a: Genome, b: Genome, seed: int) -> Genome:
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
    # genes are inherited whole from one valid parent, so no repair is needed
    return Genome(
        family=a.family,
        stages=tuple(stages),
        stem_channels=(b if rng.random() < 0.5 else a).stem_channels,
        num_classes=a.num_classes,
        input_resolution=a.input_resolution,
        expansion=(b if rng.random() < 0.5 else a).expansion,
    )


# -- genome space adapter ---------------------------------------------------------


@dataclass(frozen=True)
class GenomeSpace:
    """Micro-architecture search space with a fixed per-stage stride pattern.

    The choice lists are the only legal values: sampling, mutation and
    crossover never produce a stage value that is not declared here.
    """

    family: str
    strides: tuple[int, ...]
    channel_choices: tuple[int, ...]
    repeat_choices: tuple[int, ...]
    kernel_choices: tuple[int, ...] = KERNEL_CHOICES
    conv_modes: tuple[str, ...] = ("regular", "group")
    expansion_choices: tuple[int, ...] = (4,)
    stem_channels: int = 16
    num_classes: int = 10
    input_resolution: tuple[int, int] = (32, 32)

    def __post_init__(self) -> None:
        for name in ("channel_choices", "repeat_choices", "kernel_choices",
                     "expansion_choices"):
            if not getattr(self, name):
                raise SearchConfigError(f"{name}: empty list")
        if self.family == "resnet_like" and tuple(self.expansion_choices) != (4,):
            raise SearchConfigError(
                f"expansion_choices: resnet_like blocks have no expansion, so only "
                f"(4,) may be declared, got {tuple(self.expansion_choices)}")
        bad_modes = [m for m in self.conv_modes if m not in CONV_MODES]
        if not self.conv_modes or bad_modes:
            raise SearchConfigError(f"unknown conv modes {bad_modes or '(empty)'}")
        for c in self.channel_choices:
            if not self.legal_modes(c):
                raise SearchConfigError(
                    f"no legal conv mode for {c} channels with modes "
                    f"{self.conv_modes} in family {self.family}")
        # a Genome checks each stage value on its own, so varying one knob
        # at a time covers every genome `sample` can draw
        first = (self.repeat_choices[0], self.channel_choices[0],
                 self.kernel_choices[0], self.expansion_choices[0])
        witnesses = [first]
        for knob, choices in enumerate((self.repeat_choices, self.channel_choices,
                                        self.kernel_choices, self.expansion_choices)):
            witnesses.extend(first[:knob] + (c,) + first[knob + 1:] for c in choices)
        for repeats, channels, kernel, expansion in witnesses:
            stages = tuple(StageGene(repeats, channels, kernel,
                                     self.legal_modes(channels)[0], s)
                           for s in self.strides)
            try:
                self._genome(stages, expansion)
            except GenomeError as exc:
                raise SearchConfigError(f"search space: {exc}") from None
        unused = [m for m in self.conv_modes
                  if not any(mode_is_legal(self.family, c, m)
                             for c in self.channel_choices)]
        if unused:
            raise SearchConfigError(
                f"conv_modes: {', '.join(unused)} is legal at none of the "
                f"declared channels {self.channel_choices} in family {self.family}")

    def legal_modes(self, channels: int) -> list[str]:
        """The declared conv modes legal at `channels`, in declared order."""
        return [m for m in self.conv_modes if mode_is_legal(self.family, channels, m)]

    def _genome(self, stages: tuple[StageGene, ...], expansion: int) -> Genome:
        return Genome(
            family=self.family,
            stages=stages,
            stem_channels=self.stem_channels,
            num_classes=self.num_classes,
            input_resolution=self.input_resolution,
            expansion=expansion,
        )

    def _gene(self, rng: np.random.Generator, stride: int) -> StageGene:
        channels = int(rng.choice(self.channel_choices))
        modes = self.legal_modes(channels)
        return StageGene(
            repeats=int(rng.choice(self.repeat_choices)),
            channels=channels,
            kernel=int(rng.choice(self.kernel_choices)),
            conv_mode=str(rng.choice(modes)),
            stride=stride,
        )

    def sample(self, rng: np.random.Generator) -> Genome:
        expansion = int(rng.choice(self.expansion_choices)) \
            if self.family == "effnet_like" else 4
        return self._genome(tuple(self._gene(rng, s) for s in self.strides),
                            expansion)

    def mutate(self, genome: Genome, rng: np.random.Generator) -> Genome:
        return genome_mutate(genome, self, seed=int(rng.integers(0, 2**63)))

    def crossover(self, a: Genome, b: Genome, rng: np.random.Generator) -> Genome:
        return genome_crossover(a, b, seed=int(rng.integers(0, 2**63)))

    def serialize(self, genome: Genome) -> str:
        return genome_to_json(genome)
