"""The four workloads: seeded inputs, CLI invocations and expected outputs.

Every input file is generated from the benchmark's --seed. The parts of a
workload that set how much work it does (genome shapes, search space,
record count) are fixed, so that every seed does the same work and runs
can be compared across seeds. The seed chooses the rest: the program's
own --seed (weights and input batches) from PROGRAM_SEEDS, and for
`correlate` each record's class count, accuracy and id.
Reference outputs for every choice were recorded by record.py; see
README.md for why each workload exists.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Program seeds the benchmark seed chooses from; references exist for each.
PROGRAM_SEEDS = (7, 3, 11, 19, 23, 31, 42, 57)
BATCHES = 8
BATCH_SIZE = 8


def genome(family, channels, repeats, mode, *, kernel=3, strides=(1, 2, 2),
           resolution=32, stem=16, classes=10, expansion=4) -> dict:
    return {
        "family": family,
        "stages": [{"repeats": repeats, "channels": c, "kernel": kernel,
                    "conv_mode": mode, "stride": s}
                   for c, s in zip(channels, strides)],
        "stem_channels": stem,
        "num_classes": classes,
        "input_resolution": [resolution, resolution],
        "expansion": expansion,
    }


# The ROADMAP bench set's conditions: strides 1,2,2, stem 16, 32x32, k=3.
SCORE_GENOMES = {
    "score_regular": {
        "resnet_like-32.64.96x2-regular":
            genome("resnet_like", (32, 64, 96), 2, "regular"),
        "effnet_like-16.24.32x1-regular":
            genome("effnet_like", (16, 24, 32), 1, "regular"),
    },
    "score_grouped": {
        "resnet_like-64.96.128x1-group":
            genome("resnet_like", (64, 96, 128), 1, "group"),
        "effnet_like-32.64.96x1-depthwise":
            genome("effnet_like", (32, 64, 96), 1, "depthwise"),
    },
}

# A space of 2^3 genomes: one conv mode per stage. In every recorded case
# generation 0 samples all of them, so every seed scores the same genomes
# in one parallel batch and later generations hit the memo cache.
SEARCH_SPACE_SIZE = 8
SEARCH_ARGS = ["--family", "resnet_like", "--strides", "1,2,2",
               "--channels", "64", "--repeats", "1", "--kernels", "3",
               "--conv-modes", "regular,group", "--population", "16",
               "--generations", "3", "--resolution", "16x16",
               "--fallback-us-per-mac", "0.001"]

CORRELATE_RECORDS = 24
CLASS_CHOICES = (2, 4, 7, 10)  # the head's cost is negligible at any of them


@dataclass
class Invocation:
    label: str
    argv: list[str]
    log: Path | None = None  # extra output file the invocation writes


@dataclass
class Plan:
    """One pass of a workload and what its outputs must be."""

    invocations: list[Invocation]
    candidates: int  # distinct genomes scored per pass
    macs: int        # sum of count_macs * batches * batch_size per pass
    compiles_per_candidate: float  # at the commit the references come from
    expected: dict = field(default_factory=dict)  # label -> expected outputs


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


# -- score_regular / score_grouped -------------------------------------------


def score_plan(name: str, seed: int, work: Path, reference: dict,
               program_seed: int | None = None) -> Plan:
    if program_seed is None:
        program_seed = random.Random(seed).choice(PROGRAM_SEEDS)
    labels = list(SCORE_GENOMES[name])
    invocations = []
    for label in labels:
        path = _write_json(work / f"{label}.json", SCORE_GENOMES[name][label])
        invocations.append(Invocation(label, ["score", str(path),
                                              "--seed", str(program_seed)]))
    outputs = reference.get("outputs", {}).get(str(program_seed), {})
    return Plan(invocations=invocations, candidates=len(labels),
                macs=sum(reference.get("macs", {}).get(l, 0) for l in labels),
                compiles_per_candidate=1.0,
                expected={l: {"stdout": outputs.get(l)} for l in labels})


# -- search ---------------------------------------------------------------------


def latency_table(seed: int) -> str:
    """A partial latency CSV: each signature of a superset kept with p = 1/2.

    The superset spans the layer shapes the search space can produce, so
    some layers are priced from the table and the rest by the fallback.
    """
    rng = random.Random(seed)
    rows = ["op,cin,cout,hout,wout,k,groups,stride,us"]
    for cin in (3, 16, 64):
        for cout in (16, 64):
            for hw in (16, 8, 4):
                for k in (1, 3):
                    for groups in (1, 64):
                        for stride in (1, 2):
                            if rng.random() < 0.5 or cin % groups:
                                continue
                            macs = hw * hw * cout * (cin // groups) * k * k
                            us = macs * 0.001 * rng.uniform(0.5, 2.0)
                            rows.append(f"conv2d,{cin},{cout},{hw},{hw},{k},"
                                        f"{groups},{stride},{us!r}")
    rows.append(f"dense,64,10,1,1,1,1,1,{rng.uniform(0.3, 1.5)!r}")
    return "\n".join(rows) + "\n"


def search_plan(seed: int, work: Path, reference: dict,
                program_seed: int | None = None) -> Plan:
    case = None
    if program_seed is None:
        case = random.Random(seed).choice(reference["cases"])
        program_seed = case["seed"]
    table = work / "latency.csv"
    table.write_text(latency_table(program_seed))
    log = work / "search-log.jsonl"
    argv = ["search", *SEARCH_ARGS, "--latency-table", str(table),
            "--log", str(log), "--seed", str(program_seed)]
    case = case or {}
    return Plan(invocations=[Invocation("search", argv, log=log)],
                candidates=case.get("scored", SEARCH_SPACE_SIZE),
                macs=case.get("macs", 0), compiles_per_candidate=2.0,
                expected={"search": {"stdout": case.get("archive"),
                                     "log": case.get("log")}})


# -- correlate --------------------------------------------------------------------


def tiny_shapes() -> list[dict]:
    """Fixed tiny genomes: 8x8 input, at most 32 channels, 1-3 stages."""
    rng = random.Random(0)
    shapes = []
    for _ in range(CORRELATE_RECORDS):
        family = rng.choice(["resnet_like", "effnet_like"])
        n_stages = rng.randint(1, 3)
        strides = [1] + [rng.choice([1, 2]) for _ in range(n_stages - 1)]
        modes = ["regular", "group"] + (["depthwise"]
                                        if family == "effnet_like" else [])
        stages = []
        for stride in strides:
            mode = rng.choice(modes)
            channels = 32 if mode == "group" else rng.choice([16, 24, 32])
            stages.append({"repeats": rng.randint(1, 2), "channels": channels,
                           "kernel": rng.choice([3, 5]), "conv_mode": mode,
                           "stride": stride})
        shapes.append({"family": family, "stages": stages,
                       "stem_channels": rng.choice([8, 16]),
                       "input_resolution": [8, 8],
                       "expansion": rng.choice([1, 2])
                       if family == "effnet_like" else 4})
    return shapes


def correlate_records(seed: int) -> list[dict]:
    """Seeded records over the fixed shapes; `key` indexes the reference."""
    rng = random.Random(seed)
    records = []
    for i, shape in enumerate(tiny_shapes()):
        classes = rng.choice(CLASS_CHOICES)
        records.append({"key": f"{i}:{classes}",
                        "genome": dict(shape, num_classes=classes),
                        "test_accuracy": rng.uniform(40.0, 95.0)})
    # Records keep the shapes' order: which genomes the two evaluator
    # threads score side by side then does not depend on the seed.
    for n, rec in enumerate(records):
        rec["id"] = f"s{seed}-{n:02d}"
    return records


def write_records(records: list[dict], path: Path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps({"id": rec["id"], "genome": rec["genome"],
                                 "test_accuracy": rec["test_accuracy"]}))
            fh.write("\n")


def correlate_plan(seed: int, work: Path, reference: dict,
                   program_seed: int | None = None) -> Plan:
    rng = random.Random(seed ^ 0x5EED)
    if program_seed is None:
        program_seed = rng.choice(PROGRAM_SEEDS)
    records = correlate_records(seed)
    path = work / "records.jsonl"
    write_records(records, path)
    scores = reference.get("scores", {}).get(str(program_seed))
    expected = expected_report(records, scores, program_seed) if scores else None
    return Plan(invocations=[Invocation("correlate", ["correlate", "--records",
                                                      str(path), "--seed",
                                                      str(program_seed)])],
                candidates=len(records),
                macs=sum(reference.get("macs", {}).get(r["key"], 0)
                         for r in records),
                compiles_per_candidate=1.0,
                expected={"correlate": {"report": expected}})


def expected_report(records: list[dict], scores: dict, program_seed: int) -> dict:
    """The correlate report these records must give, from recorded scores."""
    rows = [{"id": r["id"], "test_accuracy": r["test_accuracy"],
             "zico": scores[r["key"]][0], "penalty": scores[r["key"]][1],
             "zico_bc": scores[r["key"]][2]} for r in records]
    proxy = [row["zico_bc"] for row in rows]
    acc = [row["test_accuracy"] for row in rows]
    return {"tau": kendall_tau_b(proxy, acc), "rho": spearman_rho(proxy, acc),
            "n": len(rows), "records": rows, "failures": [],
            "settings": {"beta": 1.0, "batches": BATCHES,
                         "batch_size": BATCH_SIZE, "seed": program_seed,
                         "stat_mode": "abs", "resolution": None}}


def kendall_tau_b(x: list[float], y: list[float]) -> float:
    """Tie-corrected Kendall tau from all pairs."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx, dy = x[j] - x[i], y[j] - y[i]
            ties_x += dx == 0
            ties_y += dy == 0
            s = dx * dy
            concordant += s > 0
            discordant += s < 0
    pairs = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt((pairs - ties_x) * (pairs - ties_y))


def _average_ranks(v: list[float]) -> list[float]:
    order = sorted(range(len(v)), key=lambda i: v[i])
    ranks = [0.0] * len(v)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
            j += 1
        for k in order[i:j + 1]:
            ranks[k] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman_rho(x: list[float], y: list[float]) -> float:
    rx, ry = _average_ranks(x), _average_ranks(y)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    ax = [r - mx for r in rx]
    ay = [r - my for r in ry]
    return sum(a * b for a, b in zip(ax, ay)) / math.sqrt(
        sum(a * a for a in ax) * sum(b * b for b in ay))


PLANS = {
    "score_regular": functools.partial(score_plan, "score_regular"),
    "score_grouped": functools.partial(score_plan, "score_grouped"),
    "search": search_plan,
    "correlate": correlate_plan,
}
