import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import genome_to_dict, random_genome, save_records
from zicobc import correlation
from zicobc.correlation import (
    BenchmarkRecord,
    CorrelationError,
    RecordError,
    average_ranks,
    kendall_tau,
    load_records,
    run_correlation,
    spearman_rho,
)
from zicobc.network import Genome, StageGene, genome_from_dict
from zicobc.proxy import ScoreSettings, score_genome


def tau_pair_oracle(x, y) -> float:
    """O(n^2) concordant/discordant pair count with tie-corrected denominator."""
    n = len(x)
    conc = disc = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = int(x[i] > x[j]) - int(x[i] < x[j])
            dy = int(y[i] > y[j]) - int(y[i] < y[j])
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx * dy > 0:
                conc += 1
            elif dx * dy < 0:
                disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / math.sqrt((n0 - tied_x) * (n0 - tied_y))


def rank_count_oracle(v) -> list[float]:
    """Ranks by counting, independent of any sort: 1 + #smaller + (#equal-1)/2."""
    return [
        1.0 + sum(1 for u in v if u < x) + (sum(1 for u in v if u == x) - 1) / 2.0
        for x in v
    ]


def pearson_oracle(a, b) -> float:
    n = len(a)
    ma = math.fsum(a) / n
    mb = math.fsum(b) / n
    cov = math.fsum((ai - ma) * (bi - mb) for ai, bi in zip(a, b))
    va = math.fsum((ai - ma) ** 2 for ai in a)
    vb = math.fsum((bi - mb) ** 2 for bi in b)
    return cov / math.sqrt(va * vb)


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_rankings(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_matches_pair_oracle_on_random_vectors(self):
        rng = np.random.default_rng(111)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert kendall_tau(x, y) == tau_pair_oracle(list(x), list(y))

    def test_matches_pair_oracle_with_ties(self):
        rng = np.random.default_rng(112)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(3, 12))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            checked += 1
            assert kendall_tau(x, y) == tau_pair_oracle(list(x), list(y))
        assert checked > 200

    def test_all_permutations_small_n(self):
        for n in range(2, 6):
            base = list(range(n))
            for perm in itertools.permutations(base):
                got = kendall_tau(base, perm)
                assert got == tau_pair_oracle(base, list(perm))

    def test_degenerate_inputs(self):
        with pytest.raises(CorrelationError, match="all-equal"):
            kendall_tau([1, 1, 1], [1, 2, 3])
        with pytest.raises(CorrelationError, match="length"):
            kendall_tau([1, 2], [1, 2, 3])
        with pytest.raises(CorrelationError, match="at least 2"):
            kendall_tau([1], [1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_named(self, bad):
        with pytest.raises(CorrelationError, match=f"x must be finite, got {bad}"):
            kendall_tau([bad, 1, 2], [1, 2, 3])
        with pytest.raises(CorrelationError, match=f"y must be finite, got {bad}"):
            kendall_tau([1, 2, 3], [1, bad, 2])


class TestSpearmanRho:
    def test_identical_rankings(self):
        assert spearman_rho([1, 2, 3], [5, 6, 7]) == 1.0

    def test_reversed_rankings(self):
        assert spearman_rho([1, 2, 3], [3, 2, 1]) == -1.0

    def test_average_ranks_with_ties(self):
        np.testing.assert_allclose(average_ranks([10, 20, 20, 30]),
                                   [1.0, 2.5, 2.5, 4.0])
        np.testing.assert_allclose(average_ranks([7, 7, 7]), [2.0, 2.0, 2.0])

    def test_matches_rank_then_pearson_oracle(self):
        rng = np.random.default_rng(113)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.normal(size=n)
            if len(set(x)) < 2:
                continue
            expected = pearson_oracle(rank_count_oracle(list(x)),
                                      rank_count_oracle(list(y)))
            assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(CorrelationError, match="all-equal"):
            spearman_rho([2, 2, 2], [1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_named(self, bad):
        with pytest.raises(CorrelationError, match=f"x must be finite, got {bad}"):
            spearman_rho([bad, 1, 2], [1, 2, 3])
        with pytest.raises(CorrelationError, match=f"y must be finite, got {bad}"):
            spearman_rho([1, 2, 3], [1, 2, bad])


class TestRankStatisticProperties:
    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=20),
           st.lists(st.integers(-50, 50), min_size=3, max_size=20),
           st.sampled_from(["exp", "cube", "affine"]))
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_increasing_transforms(self, x, y, transform):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        fn = {"exp": lambda v: math.exp(v / 25.0),
              "cube": lambda v: v ** 3,
              "affine": lambda v: 3.5 * v + 2}[transform]
        tx = [fn(v) for v in x]
        assert kendall_tau(tx, y) == pytest.approx(kendall_tau(x, y), abs=1e-12)
        assert spearman_rho(tx, y) == pytest.approx(spearman_rho(x, y), abs=1e-12)

    # ties and both signed zeros, among values of any magnitude
    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 1e300])
                    | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_average_ranks_equal_the_counting_oracle_exactly(self, v):
        assert average_ranks(v).tolist() == rank_count_oracle(v)

    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                    min_size=3, max_size=15))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        if len(set(x)) < 2 or len(set(y)) < 2:
            return
        assert kendall_tau(x, y) == pytest.approx(kendall_tau(y, x), abs=1e-15)
        assert spearman_rho(x, y) == pytest.approx(spearman_rho(y, x), abs=1e-12)


def make_records(count, seed=0, settings_=None):
    """Synthetic benchmark: accuracy is a strictly increasing map of the score."""
    rng = np.random.default_rng(seed)
    settings_ = settings_ or ScoreSettings(beta=1.0, batches=2, batch_size=2, seed=9)
    records = []
    seen = set()
    while len(records) < count:
        genome = random_genome(rng, max_stages=1)
        key = json.dumps(genome_to_dict(genome), sort_keys=True)
        if key in seen:
            continue
        seen.add(key)
        score = score_genome(genome, settings_).zico_bc
        accuracy = 100.0 / (1.0 + math.exp(-score / 50.0))  # monotone in score
        records.append(BenchmarkRecord(id=f"r{len(records)}", genome=genome,
                                       test_accuracy=accuracy))
    return records, settings_


class TestRunCorrelation:
    def test_planted_monotone_accuracy_gives_perfect_correlation(self):
        records, settings_ = make_records(12)
        report = run_correlation(records, settings_)
        assert report["tau"] == 1.0
        assert report["rho"] == 1.0
        assert report["n"] == len(records)

    def test_permutation_invariance(self):
        records, settings_ = make_records(8, seed=1)
        fwd = run_correlation(records, settings_)
        rev = run_correlation(list(reversed(records)), settings_)
        assert fwd["tau"] == rev["tau"]
        assert fwd["rho"] == rev["rho"]

    def test_failures_reported_and_skipped(self):
        records, settings_ = make_records(5, seed=2)
        # an override resolution that breaks a stride-2 genome at compile time
        bad = Genome(family="resnet_like",
                     stages=(StageGene(1, 16, 3, "regular", 2),),
                     stem_channels=8, num_classes=4, input_resolution=(8, 8))
        records = records + [BenchmarkRecord(id="bad", genome=bad, test_accuracy=50.0)]
        forced = ScoreSettings(beta=settings_.beta, batches=2, batch_size=2,
                               seed=9, resolution=(7, 7))
        report = run_correlation(records, forced)
        assert report["n"] == 5
        assert [f["id"] for f in report["failures"]] == ["bad"]

    def test_no_record_scored_names_the_first_failure(self):
        # a genome of total stride 2, which a 7x7 input breaks
        genome = Genome(family="resnet_like", stages=(StageGene(1, 16, 3, "regular", 2),),
                        stem_channels=8, num_classes=4, input_resolution=(8, 8))
        records = [BenchmarkRecord(id=f"r{i}", genome=genome, test_accuracy=50.0 + i)
                   for i in range(3)]
        forced = ScoreSettings(batches=2, batch_size=2, resolution=(7, 7))
        with pytest.raises(CorrelationError) as info:
            run_correlation(records, forced)
        assert str(info.value) == (
            "only 0 of 3 records scored successfully; cannot correlate; first failure, "
            "record 'r0': input_resolution: 7x7 not divisible by total stride 2")

    def test_repeated_genome_scored_once(self, monkeypatch):
        records, settings_ = make_records(3, seed=4)
        # each genome listed again under another id, as an equal copy
        records += [dataclasses.replace(rec, id=f"{rec.id}-again",
                                        genome=genome_from_dict(genome_to_dict(rec.genome)))
                    for rec in records]
        calls = []

        def counting_score(genome, settings):
            calls.append(genome)
            return score_genome(genome, settings)

        monkeypatch.setattr(correlation, "score_genome", counting_score)
        report = run_correlation(records, settings_, threads=2)
        assert len(calls) == 3
        assert report["n"] == 6
        for rec, row in zip(records, report["records"]):
            score = score_genome(rec.genome, settings_)
            assert row["id"] == rec.id
            assert (row["zico"], row["penalty"], row["zico_bc"]) == \
                (score.zico, score.penalty, score.zico_bc)

    def test_any_scoring_error_costs_only_its_records(self, monkeypatch):
        records, settings_ = make_records(4, seed=5)
        # legal but far too large to score; the stand-in scorer never runs it
        big = Genome(family="resnet_like",
                     stages=(StageGene(1, 65536, 3, "regular", 1),),
                     stem_channels=8, num_classes=4, input_resolution=(8, 8))
        records[1:1] = [BenchmarkRecord(id=f"big-{i}", genome=big, test_accuracy=50.0)
                        for i in range(2)]
        message = "Unable to allocate 64.0 GiB"
        calls = []

        def scorer(genome, settings):
            calls.append(genome)
            if genome == big:
                raise MemoryError(message)
            return score_genome(genome, settings)

        monkeypatch.setattr(correlation, "score_genome", scorer)
        report = run_correlation(records, settings_, threads=2)
        assert calls.count(big) == 1
        assert report["failures"] == [{"id": f"big-{i}", "error": message}
                                      for i in range(2)]
        assert report["n"] == 4
        assert [row["id"] for row in report["records"]] == ["r0", "r1", "r2", "r3"]

    def test_mixed_resolutions_are_refused_before_scoring(self, monkeypatch):
        records, settings_ = make_records(4, seed=6)
        records[2:] = [dataclasses.replace(rec, genome=dataclasses.replace(
            rec.genome, input_resolution=(16, 16))) for rec in records[2:]]
        calls = []
        monkeypatch.setattr(correlation, "score_genome",
                            lambda genome, settings: calls.append(genome))
        with pytest.raises(CorrelationError) as info:
            run_correlation(records, settings_)
        assert str(info.value) == (
            "records 'r0' at 8x8 and 'r2' at 16x16: scores at different resolutions "
            "are not comparable; set one resolution for all (--resolution)")
        assert calls == []

    def test_too_few_records(self):
        records, settings_ = make_records(2, seed=3)
        with pytest.raises(CorrelationError, match="at least 2"):
            run_correlation(records[:1], settings_)


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        records, _ = make_records(4, seed=4)
        p = tmp_path / "bench.jsonl"
        save_records(records, p)
        again = load_records(p)
        assert again == records

    def test_bad_lines_name_line_numbers(self, tmp_path):
        p = tmp_path / "bench.jsonl"
        p.write_text("{broken\n")
        with pytest.raises(RecordError, match=":1"):
            load_records(p)
        good = json.dumps({"id": "a", "test_accuracy": 50.0,
                           "genome": genome_to_dict(
                               make_records(1, seed=5)[0][0].genome)})
        p.write_text(good + "\n" + good + "\n")
        with pytest.raises(RecordError, match="duplicate"):
            load_records(p)
        p.write_text(json.dumps({"id": "a", "test_accuracy": 101.0,
                                 "genome": genome_to_dict(
                                     make_records(1, seed=6)[0][0].genome)}) + "\n")
        with pytest.raises(RecordError, match="outside"):
            load_records(p)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_any_line_end_and_raw_line_separators_in_ids(self, newline, tmp_path):
        # universal newlines end a line; U+2028 and U+0085, which a JSON
        # string may hold raw and str.splitlines splits at, do not
        rng = np.random.default_rng(8)
        records = [BenchmarkRecord(id=f"r{i}{sep}x", genome=random_genome(rng),
                                   test_accuracy=50.0 + i)
                   for i, sep in enumerate(["\u2028", "\u0085", ""])]
        p = tmp_path / "bench.jsonl"
        p.write_bytes("".join(
            json.dumps({"id": r.id, "genome": genome_to_dict(r.genome),
                        "test_accuracy": r.test_accuracy}, ensure_ascii=False) + newline
            for r in records).encode())
        assert load_records(p) == records

    def test_id_must_be_a_json_string(self, tmp_path):
        # 7 and "7" would both read as the id "7"; a number is rejected
        genome = genome_to_dict(make_records(1, seed=7)[0][0].genome)
        p = tmp_path / "bench.jsonl"
        p.write_text("".join(json.dumps({"id": rec_id, "test_accuracy": 50.0,
                                         "genome": genome}) + "\n"
                             for rec_id in ("7", 7)))
        with pytest.raises(RecordError, match=":2: id: must be a JSON string, got 7$"):
            load_records(p)
        p.write_text('"7"\n')
        with pytest.raises(RecordError, match=":1: record must be a JSON object"):
            load_records(p)
