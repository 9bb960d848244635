import numpy as np
import pytest

from helpers import random_genome
from zicobc.latency import (
    LatencyModelError,
    LatencyTable,
    LatencyTableError,
    estimate,
    layer_key,
    layer_macs,
    load_table,
    save_table,
)
from zicobc.network import LayerGraph, ParamLayer, compile_genome, count_macs
from zicobc.tensor import Tensor


def one_conv_graph(cin=1, cout=1, hw=1, k=1, groups=1, stride=1) -> LayerGraph:
    layer = ParamLayer(index=1, kind="conv",
                       weight=Tensor(np.ones((cout, cin // groups, k, k))),
                       bias=None, out_shape=(cout, hw, hw), in_channels=cin,
                       groups=groups, stride=stride, kernel=k)
    return LayerGraph(layers=[layer], program=[("conv", 0)],
                      input_shape=(cin, hw, hw), num_classes=2)


class TestEstimate:
    def test_empty_graph_is_zero(self):
        graph = LayerGraph(layers=[], program=[], input_shape=(3, 8, 8), num_classes=2)
        est = estimate(graph, LatencyTable(fallback_us_per_mac=1.0))
        assert est.total_us == 0.0
        assert est.misses == 0

    def test_single_table_hit(self):
        graph = one_conv_graph()
        key = layer_key(graph.layers[0])
        est = estimate(graph, LatencyTable(entries={key: 5.0}))
        assert est.total_us == 5.0
        assert est.misses == 0
        assert est.per_layer == [{"layer": 1, "us": 5.0, "source": "table"}]

    def test_pure_fallback_prices_by_macs(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            graph = compile_genome(random_genome(rng, max_stages=1))
            c = 0.25
            est = estimate(graph, LatencyTable(fallback_us_per_mac=c))
            assert est.total_us == pytest.approx(c * count_macs(graph), rel=1e-12)
            assert est.misses == len(graph.layers)

    def test_miss_without_fallback_raises(self):
        graph = one_conv_graph()
        with pytest.raises(LatencyModelError, match="no table entry"):
            estimate(graph, LatencyTable())

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(2)
        table = LatencyTable(fallback_us_per_mac=0.1)
        g1 = compile_genome(random_genome(rng, max_stages=1))
        g2 = compile_genome(random_genome(rng, max_stages=1))
        combined = LayerGraph(layers=g1.layers + g2.layers, program=[],
                              input_shape=g1.input_shape, num_classes=2)
        assert estimate(combined, table).total_us == pytest.approx(
            estimate(g1, table).total_us + estimate(g2, table).total_us, rel=1e-12)

    def test_fallback_monotone_in_macs(self):
        table = LatencyTable(fallback_us_per_mac=0.5)
        graphs = [one_conv_graph(cin=8, cout=8, hw=4, k=3),
                  one_conv_graph(cin=8, cout=16, hw=4, k=3),
                  one_conv_graph(cin=8, cout=16, hw=8, k=3)]
        macs = [layer_macs(g.layers[0]) for g in graphs]
        assert macs == sorted(macs) and len(set(macs)) == 3
        costs = [estimate(g, table).total_us for g in graphs]
        assert costs[0] < costs[1] < costs[2]


class TestTableIO:
    def test_well_formed_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "op,cin,cout,hout,wout,k,groups,stride,us\n"
            "conv2d,3,8,8,8,3,1,1,12.5\n"
            "conv2d,8,8,4,4,3,1,2,7.25\n"
            "dense,8,4,1,1,1,1,1,0.5\n")
        table = load_table(p)
        assert len(table.entries) == 3
        assert table.lookup(("dense", 8, 4, 1, 1, 1, 1, 1)) == 0.5

    def test_negative_latency_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("op,cin,cout,hout,wout,k,groups,stride,us\n"
                     "conv2d,3,8,8,8,3,1,1,-1.0\n")
        with pytest.raises(LatencyTableError, match=":2"):
            load_table(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("op,cin,cout,hout,wout,k,groups,stride,us\n"
                     "conv2d,3,8,8,8,3,1,1,1.0\n"
                     "conv2d,3,8,8,8,3,1,1,2.0\n")
        with pytest.raises(LatencyTableError, match="duplicate"):
            load_table(p)

    def test_bad_header_and_parse_errors(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("op,cin,cout\nconv2d,3,8\n")
        with pytest.raises(LatencyTableError, match="header"):
            load_table(p)
        p.write_text("op,cin,cout,hout,wout,k,groups,stride,us\n"
                     "conv2d,three,8,8,8,3,1,1,1.0\n")
        with pytest.raises(LatencyTableError, match=":2"):
            load_table(p)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        entries = {}
        for i in range(20):
            key = ("conv2d", int(rng.integers(1, 64)), int(rng.integers(1, 64)),
                   8, 8, int(rng.choice([1, 3, 5])), 1, int(rng.choice([1, 2])))
            entries.setdefault(key, float(rng.uniform(0, 100)))
        table = LatencyTable(entries=entries, fallback_us_per_mac=0.5)
        p = tmp_path / "round.csv"
        save_table(table, p)
        again = load_table(p, fallback_us_per_mac=0.5)
        assert again.entries == table.entries
        assert again.fallback_us_per_mac == table.fallback_us_per_mac

    def test_invalid_fallback(self):
        with pytest.raises(LatencyTableError, match="fallback"):
            LatencyTable(fallback_us_per_mac=-0.1)
