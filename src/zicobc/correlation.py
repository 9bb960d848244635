"""Rank-correlation harness: proxy scores versus recorded accuracies.

Benchmark records (genome plus measured test accuracy) are re-scored with
fixed seeds and compared by Kendall's tau-b and Spearman's rho. Tau uses
the tie-corrected denominator because clamped proxy scores can tie; rho
averages tied ranks before the Pearson step. Both are computed from exact
integer pair counts / explicit rank vectors so results are reproducible
to the bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .network import Genome, GenomeError, genome_from_dict, parse_json, read_text
from .proxy import ScoreSettings, parallel_map, score_genome


class CorrelationError(ValueError):
    """Undefined coefficient (degenerate input) or malformed arguments."""


class RecordError(ValueError):
    """Malformed benchmark record file."""


def _as_vector(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise CorrelationError(f"{name} must be 1-d, got shape {arr.shape}")
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise CorrelationError(f"{name} must be finite, got {bad[0]}")
    return arr


def _paired(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as finite 1-d float vectors of one length, at least 2."""
    xv = _as_vector("x", x)
    yv = _as_vector("y", y)
    if xv.size != yv.size:
        raise CorrelationError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 2:
        raise CorrelationError(f"need at least 2 observations, got {xv.size}")
    return xv, yv


def kendall_tau(x, y) -> float:
    """Tie-corrected (tau-b) Kendall rank correlation in [-1, 1].

    Counts concordant/discordant pairs exactly with integer arithmetic;
    ties on either variable shrink the denominator. Raises when either
    input is constant (the denominator would be zero).
    """
    xv, yv = _paired(x, y)
    n = xv.size
    concordant = 0
    discordant = 0
    for i in range(n - 1):
        dx = np.sign(xv[i + 1:] - xv[i])
        dy = np.sign(yv[i + 1:] - yv[i])
        s = dx * dy
        concordant += int((s > 0).sum())
        discordant += int((s < 0).sum())
    n0 = n * (n - 1) // 2
    tx = _tie_pairs(xv)
    ty = _tie_pairs(yv)
    if n0 == tx or n0 == ty:
        raise CorrelationError("all-equal input: tau denominator is zero")
    return (concordant - discordant) / math.sqrt((n0 - tx) * (n0 - ty))


def _tie_pairs(v: np.ndarray) -> int:
    _, counts = np.unique(v, return_counts=True)
    return int(sum(c * (c - 1) // 2 for c in counts))


def average_ranks(v) -> np.ndarray:
    """1-based ranks with ties replaced by their group average."""
    arr = _as_vector("values", v)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_rho(x, y) -> float:
    """Spearman rank correlation: Pearson over average-tied ranks."""
    xv, yv = _paired(x, y)
    rx = average_ranks(xv)
    ry = average_ranks(yv)
    ax = rx - rx.mean()
    ay = ry - ry.mean()
    denom = math.sqrt(float(np.sum(ax * ax)) * float(np.sum(ay * ay)))
    if denom == 0.0:
        raise CorrelationError("all-equal input: rho denominator is zero")
    return float(np.sum(ax * ay)) / denom


# -- benchmark records --------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkRecord:
    id: str
    genome: Genome
    test_accuracy: float


def load_records(path) -> list[BenchmarkRecord]:
    """Read JSON-lines benchmark records: {id, genome, test_accuracy}."""
    records = []
    seen = set()
    # read_text turns "\r\n" and "\r" into "\n"; str.splitlines would also
    # split at U+2028 and U+0085, which a JSON string may hold raw
    lines = read_text(path, RecordError).split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        obj = parse_json(line, f"{path}:{lineno}", RecordError)
        if not isinstance(obj, dict):
            raise RecordError(f"{path}:{lineno}: record must be a JSON object")
        try:
            rec_id = obj["id"]
            accuracy = obj["test_accuracy"]
            genome = genome_from_dict(obj["genome"])
        except KeyError as exc:
            raise RecordError(f"{path}:{lineno}: missing field {exc}") from None
        except GenomeError as exc:
            raise RecordError(f"{path}:{lineno}: {exc}") from None
        if not isinstance(rec_id, str):
            raise RecordError(f"{path}:{lineno}: id: must be a JSON string, "
                              f"got {json.dumps(rec_id)}")
        if isinstance(accuracy, bool) or not isinstance(accuracy, (int, float)):
            raise RecordError(f"{path}:{lineno}: test_accuracy: must be a "
                              f"JSON number, got {json.dumps(accuracy)}")
        if not 0.0 <= accuracy <= 100.0:  # before float(): a huge int overflows it
            raise RecordError(f"{path}:{lineno}: test_accuracy: "
                              f"{accuracy} outside [0, 100]")
        if rec_id in seen:
            raise RecordError(f"{path}:{lineno}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        records.append(BenchmarkRecord(id=rec_id, genome=genome,
                                       test_accuracy=float(accuracy)))
    return records


def run_correlation(records: list[BenchmarkRecord], settings: ScoreSettings,
                    threads: int = 1) -> dict:
    """Score every record with fixed seeds and correlate against accuracy.

    Records whose genomes fail to compile or score, for any reason, are
    reported and skipped; `n` counts successes. Each distinct genome is
    scored once, however many records list it. Scoring may run on
    several threads; results are gathered in record order, so the report
    does not depend on the thread count. The settings block is echoed
    into the report so downstream consumers can see exactly which
    defaults applied.
    """
    if len(records) < 2:
        raise CorrelationError(
            f"need at least 2 records to correlate, got {len(records)}")

    def score_one(genome: Genome):
        try:
            return score_genome(genome, settings), None
        except Exception as exc:  # the set search's evaluator catches
            return None, str(exc)

    genomes = list(dict.fromkeys(rec.genome for rec in records))
    results = dict(zip(genomes, parallel_map(score_one, genomes, threads)))
    scored = []
    failures = []
    for rec in records:
        score, error = results[rec.genome]
        if error is not None:
            failures.append({"id": rec.id, "error": error})
        else:
            scored.append((rec, score))
    if len(scored) < 2:
        first = failures[0]  # at least 2 records, so at least one failed
        raise CorrelationError(
            f"only {len(scored)} of {len(records)} records scored successfully; "
            f"cannot correlate; first failure, record {first['id']!r}: {first['error']}")
    proxy_values = [s.zico_bc for _, s in scored]
    accuracies = [r.test_accuracy for r, _ in scored]
    report = {
        "tau": kendall_tau(proxy_values, accuracies),
        "rho": spearman_rho(proxy_values, accuracies),
        "n": len(scored),
        "records": [
            {
                "id": rec.id,
                "test_accuracy": rec.test_accuracy,
                "zico": s.zico,
                "penalty": s.penalty,
                "zico_bc": s.zico_bc,
            }
            for rec, s in scored
        ],
        "failures": failures,
        "settings": asdict(settings),
    }
    return report
