"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single [ACCEPTANCE n] PASS/FAIL line (visible with
pytest -s or in captured output on failure).
"""

import itertools
import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    brute_force_mac_count,
    genome_to_dict,
    parameter_hash,
    random_genome,
    seeded_fill,
    zico_score,
)
from test_cli import run_cli, run_module
from test_correlation import pearson_oracle, rank_count_oracle, tau_pair_oracle
from test_tensor import assert_close_to_fd, finite_diff_grad, probe_to_scalar

from zicobc.correlation import (
    BenchmarkRecord,
    kendall_tau,
    run_correlation,
    spearman_rho,
)
from zicobc.latency import LatencyTable, estimate, layer_key, layer_macs
from zicobc.network import (
    Genome,
    LayerGraph,
    ParamLayer,
    StageGene,
    compile_genome,
    count_macs,
    genome_to_json,
    init_weights,
)
from zicobc.proxy import (
    GradientStats,
    LayerStats,
    ScoreSettings,
    gather_gradient_stats,
    make_batches,
    score_genome,
    zico_bc_score,
)
from zicobc.search import (
    GenomeSpace,
    SearchConfig,
    dominates,
    non_dominated_sort,
    run_search,
)
from zicobc.tensor import Tape, Tensor


@contextmanager
def criterion(number: int, description: str):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {number}] FAIL - {description}")
        raise
    print(f"[ACCEPTANCE {number}] PASS - {description} "
          f"({time.time() - started:.1f}s)")


def test_criterion_1_decomposition_identity():
    with criterion(1, "decomposition identity over 1000 genomes x 4 betas"):
        started = time.time()
        rng = np.random.default_rng(2024)
        betas = (0.0, 0.5, 1.0, 2.0)
        for i in range(1000):
            family = "effnet_like" if i % 2 == 0 else "resnet_like"
            genome = random_genome(rng, family=family)
            graph = init_weights(compile_genome(genome), i)
            stats = gather_gradient_stats(
                graph, make_batches(graph, 2, 2, seed=i))
            for beta in betas:
                s = zico_bc_score(stats, graph, beta)
                err = abs(s.zico_bc - (s.zico - beta * s.penalty))
                assert err < 1e-9 * max(1.0, abs(s.zico))
                if beta == 0.0:
                    assert s.zico_bc == s.zico  # bit equality
        elapsed = time.time() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_2_gradient_correctness():
    with criterion(2, "autodiff vs central finite differences, all op kinds"):
        started = time.time()
        rng = np.random.default_rng(7)
        cases_per_op = 100

        for _ in range(cases_per_op):  # conv2d (plain and grouped)
            groups = int(rng.choice([1, 2]))
            c = 2 * groups
            k = int(rng.choice([1, 3]))
            s = int(rng.choice([1, 2]))
            x = Tensor(rng.normal(size=(1, c, 4, 4)))
            w = Tensor(rng.normal(size=(c, c // groups, k, k)))
            ho = (4 + 2 * (k // 2) - k) // s + 1
            probe = rng.normal(size=(1, c, ho, ho))

            def run_conv(weight):
                tape = Tape()
                out = tape.conv2d(x, weight, stride=s, padding=k // 2, groups=groups)
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run_conv(w)
            tape.backward(loss)
            assert_close_to_fd(tape.grad(w).data,
                               finite_diff_grad(lambda t: run_conv(t)[1].item(), w))

        for _ in range(cases_per_op):  # dense with bias
            x = Tensor(rng.normal(size=(1, 4)))
            w = Tensor(rng.normal(size=(3, 4)))
            b = Tensor(rng.normal(size=(3,)))
            probe = rng.normal(size=(1, 3))

            def run_dense(weight, bias):
                tape = Tape()
                return tape, probe_to_scalar(tape, tape.dense(x, weight, bias), probe)

            tape, loss = run_dense(w, b)
            tape.backward(loss)
            assert_close_to_fd(tape.grad(w).data,
                               finite_diff_grad(lambda t: run_dense(t, b)[1].item(), w))
            assert_close_to_fd(tape.grad(b).data,
                               finite_diff_grad(lambda t: run_dense(w, t)[1].item(), b))

        done = 0  # relu, pre-activations kept clear of the kink
        while done < cases_per_op:
            x = Tensor(rng.normal(size=(1, 2, 3, 3)))
            w = Tensor(rng.normal(size=(2, 2, 3, 3)))
            if np.abs(Tape().conv2d(x, w, padding=1).data).min() < 1e-2:
                continue
            done += 1
            probe = rng.normal(size=(1, 2, 3, 3))

            def run_relu(weight):
                tape = Tape()
                out = tape.relu(tape.conv2d(x, weight, padding=1))
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run_relu(w)
            tape.backward(loss)
            assert_close_to_fd(tape.grad(w).data,
                               finite_diff_grad(lambda t: run_relu(t)[1].item(), w))

        for _ in range(cases_per_op):  # global_avg_pool
            x = Tensor(rng.normal(size=(1, 3, 3, 3)))
            w = Tensor(rng.normal(size=(3, 3, 1, 1)))
            probe = rng.normal(size=(1, 3))

            def run_gap(weight):
                tape = Tape()
                out = tape.global_avg_pool(tape.conv2d(x, weight))
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run_gap(w)
            tape.backward(loss)
            assert_close_to_fd(tape.grad(w).data,
                               finite_diff_grad(lambda t: run_gap(t)[1].item(), w))

        for _ in range(cases_per_op):  # residual_add
            x = Tensor(rng.normal(size=(1, 3)))
            w1 = Tensor(rng.normal(size=(3, 3)))
            w2 = Tensor(rng.normal(size=(3, 3)))
            probe = rng.normal(size=(1, 3))

            def run_res(wa, wb):
                tape = Tape()
                out = tape.residual_add(tape.dense(x, wa), tape.dense(x, wb))
                return tape, probe_to_scalar(tape, out, probe)

            tape, loss = run_res(w1, w2)
            tape.backward(loss)
            assert_close_to_fd(tape.grad(w1).data,
                               finite_diff_grad(lambda t: run_res(t, w2)[1].item(), w1))

        for _ in range(cases_per_op):  # cross_entropy_loss
            x = Tensor(rng.normal(size=(4, 3)))
            w = Tensor(rng.normal(size=(5, 3)))
            labels = rng.integers(0, 5, size=4)

            def run_ce(weight):
                tape = Tape()
                return tape, tape.cross_entropy_loss(tape.dense(x, weight), labels)

            tape, loss = run_ce(w)
            tape.backward(loss)
            assert_close_to_fd(tape.grad(w).data,
                               finite_diff_grad(lambda t: run_ce(t)[1].item(), w))

        elapsed = time.time() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def three_layer_graph(rng: np.random.Generator, seed: int) -> LayerGraph:
    """conv -> relu -> conv -> relu -> gap -> dense: exactly 3 param layers."""
    c1 = int(rng.choice([4, 8]))
    c2 = int(rng.choice([4, 8]))
    classes = int(rng.choice([3, 4]))
    hw = 6
    w1 = seeded_fill((c1, 3, 3, 3), "kaiming_normal", seed, fan_in=27)
    w2 = seeded_fill((c2, c1, 3, 3), "kaiming_normal", seed + 1, fan_in=9 * c1)
    wd = seeded_fill((classes, c2), "kaiming_normal", seed + 2, fan_in=c2)
    bd = Tensor(np.zeros(classes))
    layers = [
        ParamLayer(1, "conv", w1, None, (c1, hw, hw), 3, 1, 1, 3),
        ParamLayer(2, "conv", w2, None, (c2, hw, hw), c1, 1, 1, 3),
        ParamLayer(3, "dense", wd, bd, (classes, 1, 1), c2, 1, 1, 1),
    ]
    program = [("conv", 0), ("relu",), ("conv", 1), ("relu",), ("gap",),
               ("dense", 2)]
    return LayerGraph(layers=layers, program=program, input_shape=(3, hw, hw),
                      num_classes=classes)


def test_criterion_3_gradient_statistics_oracle():
    with criterion(3, "gather stats vs store-all oracle; weights untouched"):
        rng = np.random.default_rng(33)
        for case in range(50):
            graph = three_layer_graph(rng, seed=1000 + case)
            batches = make_batches(graph, 8, 2, seed=case)
            before = parameter_hash(graph)
            stats = gather_gradient_stats(graph, batches)
            assert parameter_hash(graph) == before

            stored = [[] for _ in graph.layers]
            for x, labels in batches:
                tape = Tape()
                loss = tape.cross_entropy_loss(graph.forward(tape, x), labels)
                tape.backward(loss)
                for li, layer in enumerate(graph.layers):
                    parts = [tape.grad(layer.weight).data.reshape(-1)]
                    if layer.bias is not None:
                        parts.append(tape.grad(layer.bias).data.reshape(-1))
                    stored[li].append(np.concatenate(parts))
            for li in range(len(graph.layers)):
                g = np.stack(stored[li])
                np.testing.assert_allclose(stats.layers[li].mean_abs_grad,
                                           np.abs(g).mean(axis=0),
                                           rtol=1e-12, atol=0)
                np.testing.assert_allclose(stats.layers[li].var_grad,
                                           g.var(axis=0, ddof=1),
                                           rtol=1e-12, atol=0)


def test_criterion_4_rank_correlation_oracles():
    with criterion(4, "tau vs pair oracle (exact); rho vs rank-Pearson (1e-12)"):
        for n in range(2, 7):
            base = list(range(n))
            for perm in itertools.permutations(base):
                assert kendall_tau(base, perm) == tau_pair_oracle(base, list(perm))

        rng = np.random.default_rng(44)
        checked = 0
        while checked < 1000:
            n = int(rng.integers(3, 14))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            checked += 1
            assert kendall_tau(x, y) == tau_pair_oracle(list(x), list(y))
            expected = pearson_oracle(rank_count_oracle(list(x)),
                                      rank_count_oracle(list(y)))
            assert abs(spearman_rho(x, y) - expected) <= 1e-12


class _ToySpace:
    def sample(self, rng):
        return int(rng.integers(0, 32))

    def mutate(self, g, rng):
        return int(min(31, max(0, g + int(rng.choice([-3, -2, -1, 1, 2, 3])))))

    def crossover(self, a, b, rng):
        return int(a) if rng.random() < 0.5 else int(b)

    def serialize(self, g):
        return str(int(g))


def test_criterion_5_nsga2_oracles():
    with criterion(5, "NDS vs brute force on 500 populations; toy Pareto set 10/10"):
        started = time.time()
        rng = np.random.default_rng(55)
        from test_search import brute_force_fronts, make_ind
        for _ in range(500):
            pop = [make_ind(tuple(rng.integers(0, 12, size=2).astype(float)),
                            key=str(i)) for i in range(64)]
            fronts = non_dominated_sort(pop)
            index_of = {id(ind): i for i, ind in enumerate(pop)}
            got = [sorted(index_of[id(ind)] for ind in front) for front in fronts]
            assert got == brute_force_fronts(pop)

        def toy_proxy(x):
            return -float(x * x)

        def toy_latency(x):
            return float((x - 16) ** 2)

        objs = [(float(x * x), float((x - 16) ** 2)) for x in range(32)]
        exact = {str(x) for x in range(32)
                 if not any(dominates(objs[y], objs[x])
                            for y in range(32) if y != x)}
        for seed in range(10):
            config = SearchConfig(population=16, generations=50, seed=seed)
            archive, _ = run_search(_ToySpace(), config, toy_proxy, toy_latency)
            assert {m.key for m in archive.members()} == exact, f"seed {seed}"
        elapsed = time.time() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


BIAS_ALPHA = 0.25  # synthetic device: per-layer cost ~ width^alpha


def _bias_latency_table() -> LatencyTable:
    entries = {}
    for c in range(16, 129, 8):
        cost = (c / 16.0) ** BIAS_ALPHA
        entries[("conv2d", 8, c, 8, 8, 3, 1, 1)] = cost
        entries[("conv2d", c, c, 8, 8, 3, 1, 1)] = cost
        entries[("conv2d", 8, c, 8, 8, 1, 1, 1)] = cost
        entries[("dense", c, 4, 1, 1, 1, 1, 1)] = 0.05
    entries[("conv2d", 3, 8, 8, 8, 3, 1, 1)] = 0.5
    return LatencyTable(entries=entries)


def _depth_width(key: str) -> tuple[int, float]:
    stages = json.loads(key)["stages"]
    depth = sum(s["repeats"] for s in stages)
    width = sum(s["repeats"] * s["channels"] for s in stages) / depth
    return depth, width


def test_criterion_6_bias_reproduction():
    # Training-accuracy deltas are out of reach without training; the
    # substitute is the search-direction flip plus the analytic growth law.
    with criterion(6, "beta=0 favors deep/thin vs beta=1 (pooled, 5 seeds); "
                      "affine depth growth"):
        # analytic part: identical repeated stages grow the score affinely
        stage = [(0.9, 0.4), (2.0, 1.1)]

        def stats_for(d):
            return GradientStats(
                layers=[LayerStats(np.array([m]), np.array([v]))
                        for m, v in stage * d])

        base = zico_score(stats_for(1))
        for d in range(1, 9):
            assert zico_score(stats_for(d)) == pytest.approx(d * base, rel=1e-12)

        # search part: repeating-block space, depth 4..16 layers, width 16..128
        space = GenomeSpace(family="resnet_like", strides=(1,),
                            channel_choices=tuple(range(16, 129, 16)),
                            repeat_choices=tuple(range(2, 9)),
                            kernel_choices=(3,), conv_modes=("regular",),
                            stem_channels=8, num_classes=4,
                            input_resolution=(8, 8))
        table = _bias_latency_table()
        pooled = {0.0: [], 1.0: []}
        for seed in range(5):
            for beta in (0.0, 1.0):
                settings = ScoreSettings(beta=beta, batches=4, batch_size=2,
                                         seed=100 + seed)
                config = SearchConfig(population=12, generations=8,
                                      mutation_rate=0.9, crossover_rate=0.5,
                                      seed=seed)
                archive, _ = run_search(
                    space, config,
                    proxy_fn=lambda g: score_genome(g, settings),
                    latency_fn=lambda g: estimate(
                        compile_genome(g), table).total_us,
                    threads=4)
                pooled[beta].extend(_depth_width(m.key)
                                    for m in archive.members())

        d0 = float(np.median([d for d, w in pooled[0.0]]))
        w0 = float(np.median([w for d, w in pooled[0.0]]))
        d1 = float(np.median([d for d, w in pooled[1.0]]))
        w1 = float(np.median([w for d, w in pooled[1.0]]))
        print(f"  beta=0 archive: median depth {d0}, median width {w0}; "
              f"beta=1: median depth {d1}, median width {w1}")
        assert d0 > d1, "uncorrected search should sit deeper"
        assert w0 < w1, "uncorrected search should sit thinner"

        # qualitative saturation direction: more of the uncorrected archive
        # sits at the depth ceiling
        max_depth = 8
        frac0 = np.mean([d == max_depth for d, w in pooled[0.0]])
        frac1 = np.mean([d == max_depth for d, w in pooled[1.0]])
        print(f"  fraction at max depth: beta=0 {frac0:.2f} vs beta=1 {frac1:.2f}")
        assert frac0 > frac1


def test_criterion_7_correlation_pipeline_readiness():
    with criterion(7, "synthetic 1000-record benchmark: tau >= 0.9"):
        rng = np.random.default_rng(77)
        settings = ScoreSettings(beta=1.0, batches=2, batch_size=2, seed=9)
        genomes = {}
        while len(genomes) < 1000:
            g = random_genome(rng, max_stages=2)
            genomes.setdefault(genome_to_json(g), g)
        scores = {k: score_genome(g, settings).zico_bc
                  for k, g in genomes.items()}
        order = sorted(scores, key=lambda k: scores[k])
        noise = rng.uniform(-0.25, 0.25, size=len(order))
        records = []
        for i, key in enumerate(order):
            accuracy = 0.5 + 99.0 * (i + 1) / (len(order) + 2) + noise[i]
            records.append(BenchmarkRecord(id=f"r{i}", genome=genomes[key],
                                           test_accuracy=float(accuracy)))
        report = run_correlation(records, settings, threads=4)
        print(f"  synthetic benchmark: tau={report['tau']:.4f} "
              f"rho={report['rho']:.4f} n={report['n']}")
        assert report["n"] == 1000
        assert report["tau"] >= 0.9

        external_path = os.environ.get("ZICOBC_BENCHMARK_RECORDS")
        if external_path:
            from zicobc.correlation import load_records
            external_report = run_correlation(load_records(external_path), settings,
                                          threads=4)
            print(f"  external benchmark: tau={external_report['tau']:.4f} "
                  f"rho={external_report['rho']:.4f} (published CIFAR-10 "
                  f"reference: 0.72/0.91 uncorrected, 0.78/0.94 corrected); "
                  f"informational only")
        else:
            print("  external benchmark dump not provided "
                  "(set ZICOBC_BENCHMARK_RECORDS to run); published CIFAR-10 "
                  "reference: tau/rho 0.72/0.91 uncorrected, 0.78/0.94 corrected")


def _cli(args, name, fresh=False):
    """Standard output of `zicobc ARGS`, which must exit 0, with
    ZICO_BC_SEED unset: from `python -m zicobc.cli` in a new interpreter
    when `fresh`, else from `main` in this one."""
    code, out, err = run_module(args, {}) if fresh else run_cli(args)
    assert code == 0, f"{name}: {err.decode()}"
    return out


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "every subcommand byte-identical, reruns and threads 1/8"):
        genome = random_genome(np.random.default_rng(3), family="effnet_like",
                               max_stages=1, max_repeats=2)
        gpath = tmp_path / "g.json"
        gpath.write_text(genome_to_json(genome))

        rng = np.random.default_rng(4)
        lines = []
        for i in range(4):
            g = random_genome(rng, max_stages=1)
            lines.append(json.dumps({"id": f"r{i}", "genome": genome_to_dict(g),
                                     "test_accuracy": 40.0 + 5 * i}))
        rpath = tmp_path / "bench.jsonl"
        rpath.write_text("\n".join(lines) + "\n")

        apath = tmp_path / "archive.json"
        _cli(["search", "--family", "resnet_like", "--strides", "1",
              "--channels", "16,32", "--repeats", "1,2", "--kernels", "3",
              "--conv-modes", "regular", "--resolution", "8x8",
              "--stem-channels", "8", "--num-classes", "4",
              "--population", "4", "--generations", "1",
              "--batches", "2", "--batch-size", "2", "--seed", "1",
              "--out", str(apath)], "archive-prep")

        fast = ["--batches", "2", "--batch-size", "2"]
        invocations = {
            "score": ["score", str(gpath), "--seed", "11", *fast],
            "search": ["search", "--family", "resnet_like", "--strides", "1",
                       "--channels", "16,32", "--repeats", "1,2",
                       "--kernels", "3", "--conv-modes", "regular",
                       "--resolution", "8x8", "--stem-channels", "8",
                       "--num-classes", "4", "--population", "6",
                       "--generations", "2", "--seed", "11", *fast],
            "correlate": ["correlate", "--records", str(rpath), "--seed", "11",
                          *fast],
            "latency": ["latency", str(gpath)],
            "pareto-plotdata": ["pareto-plotdata", str(apath)],
        }
        pooled = ("score", "search", "correlate")  # the ones that take --threads
        for name, args in invocations.items():
            # the first run is a rerun in a new interpreter, the other three
            # must match it from this one
            outputs = set()
            for run, threads in enumerate(("1", "1", "8", "8")):
                flag = ["--threads", threads] if name in pooled else []
                outputs.add(_cli([*args, *flag], name, fresh=run == 0))
            assert len(outputs) == 1, f"{name} output varies"


def test_criterion_9_latency_mac_accounting():
    # absolute on-device milliseconds are out of scope; accounting is exact
    with criterion(9, "MACs and additive lookup vs brute-force enumeration"):
        rng = np.random.default_rng(99)
        for case in range(100):
            genome = random_genome(rng, resolution=4, channel_choices=(8, 16))
            graph = compile_genome(genome)
            assert count_macs(graph) == brute_force_mac_count(graph)

            # decide table membership per unique signature, then sum the
            # per-layer prices independently, in layer order
            fallback = 0.125
            table_entries = {}
            for key in sorted({layer_key(l) for l in graph.layers}):
                if rng.random() < 0.5:
                    table_entries[key] = float(rng.integers(1, 100))
            expected = 0.0
            expected_misses = 0
            for layer in graph.layers:
                key = layer_key(layer)
                if key in table_entries:
                    expected += table_entries[key]
                else:
                    expected_misses += 1
                    expected += fallback * layer_macs(layer)
            est = estimate(graph, LatencyTable(entries=table_entries,
                                               fallback_us_per_mac=fallback))
            assert est.total_us == expected
            assert est.misses == expected_misses
