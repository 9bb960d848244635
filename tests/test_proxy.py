import dataclasses
import functools
import inspect
import json
import math
import re
import threading

import numpy as np
import pytest

from helpers import (
    blas_threads_set_to,
    depth_width_penalty,
    parameter_hash,
    random_genome,
    zico_score,
)
from zicobc import proxy
from zicobc.network import (
    Genome,
    LayerGraph,
    ParamLayer,
    StageGene,
    compile_genome,
    init_weights,
)
from zicobc.proxy import (
    GRAD_EPS,
    STAT_MODES,
    GradientAccumulator,
    GradientStats,
    LayerStats,
    ProxyError,
    ScoreSettings,
    blas_threads,
    gather_gradient_stats,
    make_batches,
    parallel_map,
    score_genome,
    zico_bc_score,
)
from zicobc.tensor import Tape, Tensor


def stats_of(pairs) -> GradientStats:
    """Build GradientStats from (mean_abs, var) scalar pairs, one per layer."""
    return GradientStats(
        layers=[LayerStats(mean_abs_grad=np.array([m]), var_grad=np.array([v]))
                for m, v in pairs],
    )


def shaped_graph(shapes) -> LayerGraph:
    """Hand-built graph whose layers only carry out_shapes (for penalty tests)."""
    layers = [
        ParamLayer(index=i + 1, kind="conv", weight=Tensor([1.0]), bias=None,
                   out_shape=shape, in_channels=1, groups=1, stride=1, kernel=1)
        for i, shape in enumerate(shapes)
    ]
    return LayerGraph(layers=layers, program=[], input_shape=(3, 8, 8), num_classes=4)


def two_array_stats(batches, mode) -> list[tuple[bytes, bytes]]:
    """(numerator, variance) bytes per layer from the earlier accumulator:
    the first batch copied in as the start, then the numerator mean run
    beside the signed mean and M2 as a recurrence of its own."""
    mean_num, mean_sgn, m2 = [], [], []
    for count, grads in enumerate(batches, 1):
        if count == 1:
            for g in grads:
                mean_num.append(np.abs(g) if mode == "abs" else g.copy())
                mean_sgn.append(g.copy())
                m2.append(np.zeros_like(g))
            continue
        for li, g in enumerate(grads):
            gn = np.abs(g) if mode == "abs" else g
            mean_num[li] += (gn - mean_num[li]) / count
            delta = g - mean_sgn[li]
            mean_sgn[li] += delta / count
            m2[li] += delta * (g - mean_sgn[li])
    return [(num.tobytes(), (m / (len(batches) - 1)).tobytes())
            for num, m in zip(mean_num, m2)]


class TestGradientAccumulator:
    @pytest.mark.parametrize("mode", STAT_MODES)
    def test_matches_two_array_recurrence(self, mode):
        # both numerators from one zero-started pass give the bytes of the
        # copy-started recurrences, signed and negative zeros included
        rng = np.random.default_rng(65)
        for _ in range(200):
            sizes = rng.integers(1, 20, size=rng.integers(1, 4))
            batches = []
            for _ in range(rng.integers(2, 7)):
                grads = []
                for n in sizes:
                    g = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 3)
                    pick = rng.random(n)
                    g[pick < 0.2] = 0.0
                    g[(pick >= 0.2) & (pick < 0.4)] = -0.0
                    grads.append(g)
                batches.append(grads)
            acc = GradientAccumulator(mode=mode)
            for grads in batches:
                acc.update([g.copy() for g in grads])
            got = [(layer.mean_abs_grad.tobytes(), layer.var_grad.tobytes())
                   for layer in acc.finalize().layers]
            assert got == two_array_stats(batches, mode)

    def test_layer_count_change_rejected(self):
        acc = GradientAccumulator()
        acc.update([np.ones(2), np.ones(3)])
        with pytest.raises(ProxyError, match="supplies 1 layers, expected 2"):
            acc.update([np.ones(2)])

    def test_two_point_dense_statistics(self):
        # y = w * x, loss = y: dL/dw equals the batch input
        grads = []
        w = Tensor([[0.5]])
        for x_val in (1.0, 3.0):
            tape = Tape()
            y = tape.dense(Tensor([[x_val]]), w)
            tape.backward(y)
            grads.append(tape.grad(w).data.reshape(-1))
        acc = GradientAccumulator()
        for g in grads:
            acc.update([g])
        stats = acc.finalize()
        assert stats.layers[0].mean_abs_grad[0] == pytest.approx(2.0, abs=1e-15)
        assert stats.layers[0].var_grad[0] == pytest.approx(2.0, abs=1e-15)

    def test_identical_batches_zero_variance(self):
        acc = GradientAccumulator()
        g = np.array([0.3, -1.2, 7.0])
        acc.update([g])
        acc.update([g.copy()])
        stats = acc.finalize()
        assert np.all(stats.layers[0].var_grad == 0.0)

    def test_signed_mode_keeps_sign(self):
        acc = GradientAccumulator(mode="signed")
        acc.update([np.array([1.0])])
        acc.update([np.array([-1.0])])
        stats = acc.finalize()
        assert stats.layers[0].mean_abs_grad[0] == pytest.approx(0.0)
        abs_acc = GradientAccumulator(mode="abs")
        abs_acc.update([np.array([1.0])])
        abs_acc.update([np.array([-1.0])])
        assert abs_acc.finalize().layers[0].mean_abs_grad[0] == pytest.approx(1.0)

    def test_single_batch_rejected(self):
        acc = GradientAccumulator()
        acc.update([np.array([1.0])])
        with pytest.raises(ProxyError, match="2 batches"):
            acc.finalize()


class TestGatherGradientStats:
    @pytest.mark.parametrize("stat_mode", STAT_MODES)
    def test_matches_store_all_oracle(self, stat_mode):
        rng = np.random.default_rng(61)
        for _ in range(10):
            genome = random_genome(rng, max_stages=1, max_repeats=1)
            graph = init_weights(compile_genome(genome), 2)
            batches = make_batches(graph, 8, 2, seed=5)
            stats = gather_gradient_stats(graph, batches, mode=stat_mode)

            # oracle: store all B gradient vectors, then mean/var directly
            stored = [[] for _ in graph.layers]
            for x, labels in batches:
                tape = Tape()
                logits = graph.forward(tape, x)
                loss = tape.cross_entropy_loss(logits, labels)
                tape.backward(loss)
                for li, layer in enumerate(graph.layers):
                    vec = [tape.grad(layer.weight).data.reshape(-1)]
                    if layer.bias is not None:
                        vec.append(tape.grad(layer.bias).data.reshape(-1))
                    stored[li].append(np.concatenate(vec))
            for li in range(len(graph.layers)):
                g = np.stack(stored[li])
                numerator = np.abs(g) if stat_mode == "abs" else g
                # 1e-12 of the mean |g|: relative in abs mode, and in signed
                # mode scaled to the terms a cancelling mean sums
                error = np.abs(stats.layers[li].mean_abs_grad - numerator.mean(axis=0))
                assert np.all(error <= 1e-12 * np.abs(g).mean(axis=0)), li
                np.testing.assert_allclose(stats.layers[li].var_grad,
                                           g.var(axis=0, ddof=1), rtol=1e-12,
                                           atol=1e-300)

    def test_weights_unchanged(self):
        genome = random_genome(np.random.default_rng(62))
        graph = init_weights(compile_genome(genome), 1)
        before = parameter_hash(graph)
        gather_gradient_stats(graph, make_batches(graph, 4, 2, seed=1))
        assert parameter_hash(graph) == before

    def test_duplicated_batches_give_zero_variance(self):
        genome = random_genome(np.random.default_rng(63), max_stages=1)
        graph = init_weights(compile_genome(genome), 1)
        batch = make_batches(graph, 1, 2, seed=4)[0]
        # variance across identical batches must vanish
        stats = gather_gradient_stats(graph, [batch, batch])
        for layer in stats.layers:
            assert np.all(layer.var_grad == 0.0)

    def test_errors(self):
        genome = random_genome(np.random.default_rng(64), max_stages=1)
        graph = init_weights(compile_genome(genome), 1)
        batches = make_batches(graph, 2, 2, seed=1)
        with pytest.raises(ProxyError, match="2 batches"):
            gather_gradient_stats(graph, batches[:1])
        bad = (Tensor(np.zeros((2, 3, 4, 4))), np.zeros(2, dtype=int))
        with pytest.raises(ProxyError, match="input shape"):
            gather_gradient_stats(graph, [bad, bad])

    def test_empty_graph_error(self):
        genome = random_genome(np.random.default_rng(65), max_stages=1)
        empty = dataclasses.replace(compile_genome(genome), layers=[])
        with pytest.raises(ProxyError, match="empty graph"):
            gather_gradient_stats(empty, make_batches(empty, 2, 2, seed=1))


class TestZicoScore:
    def test_unit_ratio_is_nearly_zero(self):
        score = zico_score(stats_of([(1.0, 1.0)]))
        assert abs(score) < 1e-11

    def test_duplicating_stage_doubles_score_exactly(self):
        base = [(0.8, 0.2), (1.7, 0.9), (0.3, 0.05)]
        one = zico_score(stats_of(base))
        two = zico_score(stats_of(base + base))
        assert two == 2.0 * one

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            genome = random_genome(rng, max_stages=1)
            graph = init_weights(compile_genome(genome), 3)
            stats = gather_gradient_stats(graph, make_batches(graph, 3, 2, seed=3))
            expected = math.fsum(
                math.log(math.fsum(
                    m / (math.sqrt(v) + 1e-12)
                    for m, v in zip(layer.mean_abs_grad, layer.var_grad)))
                for layer in stats.layers
            )
            got = zico_score(stats)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_dead_layer_clamps_to_log_eps(self):
        score = zico_score(stats_of([(0.0, 0.0)]))
        assert score == math.log(GRAD_EPS)


class TestDepthWidthPenalty:
    def test_unit_layer_is_zero(self):
        assert depth_width_penalty(shaped_graph([(1, 1, 1)])) == 0.0

    def test_formula_instantiation(self):
        got = depth_width_penalty(shaped_graph([(16, 4, 4)]))
        assert got == pytest.approx(math.log(4.0), abs=1e-12)

    def test_appending_layer_increases_penalty(self):
        # the appended layer has H*W/sqrt(C) = 8/4 > 1, so its term is positive
        small = depth_width_penalty(shaped_graph([(16, 4, 4)]))
        bigger = depth_width_penalty(shaped_graph([(16, 4, 4), (16, 4, 2)]))
        assert bigger > small

    def test_quadrupling_channels_drops_term_by_log2(self):
        a = depth_width_penalty(shaped_graph([(16, 4, 4)]))
        b = depth_width_penalty(shaped_graph([(64, 4, 4)]))
        assert a - b == pytest.approx(math.log(2.0), abs=1e-12)

    def test_term_monotone_in_spatial_area_antitone_in_channels(self):
        areas = [depth_width_penalty(shaped_graph([(16, h, 4)]))
                 for h in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(areas, areas[1:]))
        widths = [depth_width_penalty(shaped_graph([(c, 4, 4)]))
                  for c in (8, 16, 32, 64)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_penalty_affine_in_repeats_on_real_graphs(self):
        penalties = []
        for repeats in range(1, 6):
            g = Genome(family="resnet_like",
                       stages=(StageGene(repeats, 16, 3, "regular", 1),),
                       stem_channels=8, num_classes=4, input_resolution=(8, 8))
            penalties.append(depth_width_penalty(compile_genome(g)))
        diffs = [b - a for a, b in zip(penalties, penalties[1:])]
        for d in diffs[1:]:
            assert d == pytest.approx(diffs[0], abs=1e-12)


class TestZicoBcScore:
    def test_beta_zero_is_bit_equal(self):
        genome = random_genome(np.random.default_rng(81), max_stages=1)
        graph = init_weights(compile_genome(genome), 4)
        stats = gather_gradient_stats(graph, make_batches(graph, 2, 2, seed=4))
        score = zico_bc_score(stats, graph, beta=0.0)
        assert score.zico_bc == score.zico

    def test_decomposition_identity(self):
        rng = np.random.default_rng(82)
        for _ in range(5):
            genome = random_genome(rng, max_stages=1)
            graph = init_weights(compile_genome(genome), 5)
            stats = gather_gradient_stats(graph, make_batches(graph, 2, 2, seed=5))
            for beta in (0.0, 0.5, 1.0, 2.0):
                s = zico_bc_score(stats, graph, beta)
                err = abs(s.zico_bc - (s.zico - beta * s.penalty))
                assert err < 1e-9 * max(1.0, abs(s.zico))
                assert len(s.per_layer) == len(graph.layers)

    def test_negative_beta_rejected(self):
        with pytest.raises(ProxyError, match="beta"):
            zico_bc_score(stats_of([(1.0, 1.0)]), shaped_graph([(1, 1, 1)]), -1.0)

    def test_layer_count_mismatch(self):
        with pytest.raises(ProxyError, match="layers"):
            zico_bc_score(stats_of([(1.0, 1.0)]),
                          shaped_graph([(1, 1, 1), (2, 2, 2)]), 1.0)


class TestBiasProperty:
    """The depth bias: the layer sum grows linearly with repeated stages."""

    def test_zico_affine_in_repeat_count(self):
        stage = [(0.9, 0.4), (2.0, 1.1)]
        base = zico_score(stats_of(stage))
        for d in range(1, 9):
            score_d = zico_score(stats_of(stage * d))
            assert score_d == pytest.approx(d * base, rel=1e-12)

    def test_beta_star_dethrones_deepest(self):
        stage_stats = [(5.0, 0.5)]          # per-layer score term log(~7.07) > 0
        layer_shape = (16, 4, 4)            # per-layer penalty term log(4) > 0
        term = math.log(5.0 / (math.sqrt(0.5) + GRAD_EPS))
        p = math.log(4.0)
        depths = range(1, 9)

        def combined(d, beta):
            stats = stats_of(stage_stats * d)
            graph = shaped_graph([layer_shape] * d)
            return zico_bc_score(stats, graph, beta).zico_bc

        deepest = max(depths)
        argmax_raw = max(depths, key=lambda d: combined(d, 0.0))
        assert argmax_raw == deepest
        beta_star = term / p
        argmax_corrected = max(depths, key=lambda d: combined(d, beta_star + 0.1))
        assert argmax_corrected < deepest


class TestScoreGenome:
    def test_deterministic(self):
        genome = random_genome(np.random.default_rng(91), max_stages=1)
        settings = ScoreSettings(beta=1.0, batches=2, batch_size=2, seed=11)
        a = score_genome(genome, settings)
        b = score_genome(genome, settings)
        assert json.dumps(dataclasses.asdict(a)) == json.dumps(dataclasses.asdict(b))

    def test_resolution_override(self):
        genome = random_genome(np.random.default_rng(92), max_stages=1)
        settings = ScoreSettings(batches=2, batch_size=2, seed=1, resolution=(16, 16))
        score = score_genome(genome, settings)
        base = score_genome(genome, ScoreSettings(batches=2, batch_size=2, seed=1))
        assert score.penalty != base.penalty

    def test_settings_validation(self):
        genome = random_genome(np.random.default_rng(93), max_stages=1)
        with pytest.raises(ProxyError):
            score_genome(genome, ScoreSettings(beta=-0.5))
        with pytest.raises(ProxyError):
            score_genome(genome, ScoreSettings(batches=1))
        with pytest.raises(ProxyError):
            score_genome(genome, ScoreSettings(stat_mode="median"))

    @pytest.mark.parametrize("field,value", [
        ("beta", -0.5), ("beta", math.inf), ("batches", 1), ("batch_size", 0),
        ("stat_mode", "median"),
    ])
    def test_replace_to_bad_field_raises_naming_it(self, field, value):
        valid = ScoreSettings(batches=2, batch_size=2, resolution=(16, 16))
        with pytest.raises(ProxyError, match=field):
            dataclasses.replace(valid, **{field: value})

    @pytest.mark.parametrize("field,value,named", [
        ("batches", 2.5, "batches"), ("batch_size", 2.0, "batch_size"),
        ("seed", 1.5, "seed"), ("seed", True, "seed"), ("batches", "4", "batches"),
        ("resolution", (16.0, 16), "resolution[0]"),
        ("resolution", (16, np.int64(16)), "resolution[1]"),
        ("resolution", (0, 16, 16), "resolution"), ("resolution", 16, "resolution"),
    ])
    def test_bad_integer_field_raises_naming_it(self, field, value, named):
        # an int, not a bool: the rule genome numbers follow; and two extents
        with pytest.raises(ProxyError, match=rf"^{re.escape(named)}: "):
            ScoreSettings(**{"batches": 2, "batch_size": 2, field: value})


class TestParallelMap:
    """The pool pins numpy's bundled OpenBLAS to one thread; inline runs do not."""

    pytestmark = pytest.mark.skipif(blas_threads() is None,
                                    reason="numpy's BLAS is not the bundled OpenBLAS")

    def test_workers_run_one_blas_thread_and_count_is_restored(self):
        with blas_threads_set_to(2):
            inside = parallel_map(lambda _: blas_threads(), range(6), threads=2)
            assert inside == [1] * 6
            assert blas_threads() == 2

    @pytest.mark.parametrize("items, threads", [(range(4), 1), ([0], 4), ([], 4)])
    def test_inline_runs_leave_blas_threading_alone(self, items, threads):
        with blas_threads_set_to(2):
            assert parallel_map(lambda _: blas_threads(), items, threads) == \
                [2] * len(items)
            assert blas_threads() == 2


class TestScoreGenomeThreads:
    pytestmark = pytest.mark.skipif(blas_threads() is None,
                                    reason="numpy's BLAS is not the bundled OpenBLAS")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_scoring_runs_one_blas_thread_and_count_is_restored(self, threads,
                                                                monkeypatch):
        seen = []
        gather = proxy.gather_gradient_stats

        def spy(*args, **kwargs):
            seen.append((blas_threads(), kwargs["pool"] is not None))
            return gather(*args, **kwargs)

        monkeypatch.setattr(proxy, "gather_gradient_stats", spy)
        genome = random_genome(np.random.default_rng(94), max_stages=1)
        with blas_threads_set_to(2):
            score_genome(genome, ScoreSettings(batches=2, batch_size=2), threads=threads)
            assert blas_threads() == 2
        assert seen == [(1, threads > 1)]


class TestPooledTapeThread:
    def test_every_tape_call_stays_on_the_scoring_thread(self, monkeypatch):
        """perfbench's traced run wraps Tape methods as this test does and keys
        each span to its candidate by thread, so a pooled candidate must make
        every call into its tape on the thread that scores it (ROADMAP item 1);
        only the array work inside a call may run on the pool."""
        calls = []

        def on_thread(name, method):
            @functools.wraps(method)
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return method(*args, **kwargs)
            return wrapper

        methods = [name for name, fn in vars(Tape).items() if inspect.isfunction(fn)]
        for name in methods:
            monkeypatch.setattr(Tape, name, on_thread(name, getattr(Tape, name)))
        genome = random_genome(np.random.default_rng(95), family="resnet_like")
        score_genome(genome, ScoreSettings(batches=2, batch_size=4), threads=3)
        assert {name for name, _ in calls} == set(methods)
        assert {ident for _, ident in calls} == {threading.get_ident()}
