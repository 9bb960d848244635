import dataclasses
import json
import math

import numpy as np
import pytest

from helpers import blas_threads_set_to, parameter_hash, random_genome
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
    GradientAccumulator,
    GradientStats,
    LayerStats,
    ProxyError,
    ScoreSettings,
    blas_threads,
    depth_width_penalty,
    gather_gradient_stats,
    make_batches,
    parallel_map,
    score_genome,
    zico_bc_score,
    zico_score,
)
from zicobc.tensor import Tape, Tensor


def stats_of(pairs) -> GradientStats:
    """Build GradientStats from (mean_abs, var) scalar pairs, one per layer."""
    return GradientStats(
        layers=[LayerStats(mean_abs_grad=np.array([m]), var_grad=np.array([v]))
                for m, v in pairs],
        batch_count=2,
    )


def shaped_graph(shapes) -> LayerGraph:
    """Hand-built graph whose layers only carry out_shapes (for penalty tests)."""
    layers = [
        ParamLayer(index=i + 1, kind="conv", weight=Tensor([1.0]), bias=None,
                   out_shape=shape, in_channels=1, groups=1, stride=1, kernel=1)
        for i, shape in enumerate(shapes)
    ]
    return LayerGraph(layers=layers, program=[], input_shape=(3, 8, 8), num_classes=4)


class TestGradientAccumulator:
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
    def test_matches_store_all_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            genome = random_genome(rng, max_stages=1, max_repeats=1)
            graph = init_weights(compile_genome(genome), 2)
            batches = make_batches(graph, 8, 2, seed=5)
            stats = gather_gradient_stats(graph, batches)

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
                np.testing.assert_allclose(stats.layers[li].mean_abs_grad,
                                           np.abs(g).mean(axis=0), rtol=1e-12, atol=0)
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

    def test_empty_stats_error(self):
        with pytest.raises(ProxyError, match="empty"):
            zico_score(GradientStats(layers=[], batch_count=2))


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
                assert len(s.per_layer_terms) == len(graph.layers)

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
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

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


class TestParallelMap:
    """The pool pins numpy's bundled OpenBLAS to one thread, and only it."""

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
