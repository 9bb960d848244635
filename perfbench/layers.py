"""Per-layer metrics and exact count cross-checks from recorded spans.

Input is the span list one traced CLI invocation wrote (see spans.py).
`.s` metrics are busy time summed across threads; `self_s` is a span's
duration minus the union of its child spans' intervals.
"""

from __future__ import annotations

from collections import defaultdict

from spans import POINTWISE_OPS

CONV_KINDS = ("regular", "grouped", "depthwise")
COMPILES = ("network.compile.score", "network.compile.latency")

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    *[(f"tensor.conv2d.{kind}.{field}", unit, better)
      for kind in CONV_KINDS
      for field, unit, better in (("calls", "count", "lower"),
                                  ("fwd_s", "s", "lower"),
                                  ("fwd_gmac_per_s", "GMAC/s", "higher"))],
    ("tensor.conv2d.im2col_mb_computed", "MB", "lower"),
    ("tensor.backward.s", "s", "lower"),
    ("tensor.backward.gmac_per_s", "GMAC/s", "higher"),
    ("tensor.pointwise.s", "s", "lower"),
    ("tensor.grad.s", "s", "lower"),
    ("network.compile.calls", "count", "lower"),
    ("network.compile.s", "s", "lower"),
    ("network.compiles_per_candidate", "count", "lower"),
    ("network.mutate.s", "s", "lower"),
    ("network.crossover.s", "s", "lower"),
    ("proxy.score_genome.calls", "count", "lower"),
    ("proxy.score_genome.s", "s", "lower"),
    ("proxy.score_genome.self_s", "s", "lower"),
    ("proxy.make_batches.s", "s", "lower"),
    ("proxy.gather.s", "s", "lower"),
    ("proxy.gather.self_s", "s", "lower"),
    ("proxy.accumulate.s", "s", "lower"),
    ("proxy.finalize.s", "s", "lower"),
    ("proxy.combine.s", "s", "lower"),
    ("latency.load_table.s", "s", "lower"),
    ("latency.estimate.calls", "count", "lower"),
    ("latency.estimate.s", "s", "lower"),
    ("latency.table_hit_ratio", "fraction", "higher"),
    ("search.run.s", "s", "lower"),
    ("search.sort.s", "s", "lower"),
    ("search.crowding.s", "s", "lower"),
    ("search.requested", "count", "lower"),
    ("search.cache_hit_ratio", "fraction", "higher"),
    ("search.pool_utilization", "fraction", "higher"),
    ("correlation.load_records.s", "s", "lower"),
    ("correlation.run.s", "s", "lower"),
    ("correlation.rank.s", "s", "lower"),
    ("correlation.pool_utilization", "fraction", "higher"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace_overhead", "fraction", "lower"),
]


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {span["id"]: span["end"] - span["start"]
            - union_length(children[span["id"]], span["start"], span["end"])
            for span in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def invocation_metrics(spans: list[dict]) -> dict[str, float]:
    """Additive per-layer quantities of one invocation (sums and counts)."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        busy[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1
    self_s = self_times(spans)
    selfs = defaultdict(float)
    for span in spans:
        selfs[span["name"]] += self_s[span["id"]]

    m: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["name"] == "tensor.conv2d":
            prefix = f"tensor.conv2d.{span['kind']}"
            m[f"{prefix}.calls"] += 1
            m[f"{prefix}.fwd_s"] += span["end"] - span["start"]
            m[f"{prefix}.macs"] += span["macs"]
            m["tensor.conv2d.im2col_mb_computed"] += span["im2col_bytes"] / 1e6
            m["tensor.forward_macs"] += span["macs"]
        elif span["name"] == "tensor.dense":
            m["tensor.forward_macs"] += span["macs"]
        elif span["name"] == "latency.estimate":
            m["latency.hits"] += span["hits"]
            m["latency.layers"] += span["layers"]
        elif span["name"] == "search.evaluate":
            m["search.requested"] += span["requested"]
        elif span["name"] in ("search.run", "correlation.run"):
            m[f"{span['name']}.capacity_s"] += \
                (span["end"] - span["start"]) * span["threads"]
    m["tensor.backward.s"] = busy["tensor.backward"]
    m["tensor.pointwise.s"] = sum(busy[f"tensor.{op}"] for op in POINTWISE_OPS)
    m["tensor.grad.s"] = busy["tensor.grad"]
    m["network.compile.calls"] = sum(calls[n] for n in COMPILES)
    m["network.compile.s"] = sum(busy[n] for n in COMPILES)
    m["network.mutate.s"] = busy["network.mutate"]
    m["network.crossover.s"] = busy["network.crossover"]
    m["proxy.score_genome.calls"] = calls["proxy.score_genome"]
    m["proxy.score_genome.s"] = busy["proxy.score_genome"]
    m["proxy.score_genome.self_s"] = selfs["proxy.score_genome"]
    m["proxy.make_batches.s"] = busy["proxy.make_batches"]
    m["proxy.gather.s"] = busy["proxy.gather"]
    m["proxy.gather.self_s"] = selfs["proxy.gather"]
    m["proxy.accumulate.s"] = busy["proxy.accumulate"]
    m["proxy.finalize.s"] = busy["proxy.finalize"]
    m["proxy.combine.s"] = busy["proxy.combine"]
    m["latency.load_table.s"] = busy["latency.load_table"]
    m["latency.estimate.calls"] = calls["latency.estimate"]
    m["latency.estimate.s"] = busy["latency.estimate"]
    m["search.run.s"] = busy["search.run"]
    m["search.sort.s"] = busy["search.sort"]
    m["search.crowding.s"] = busy["search.crowding"]
    m["correlation.load_records.s"] = busy["correlation.load_records"]
    m["correlation.run.s"] = busy["correlation.run"]
    m["correlation.rank.s"] = busy["correlation.rank"]
    m["cli.main.s"] = busy["cli.main"]
    m["cli.self_s"] = selfs["cli.main"]
    in_search = _descendants(spans, "search.run")
    in_corr = _descendants(spans, "correlation.run")
    for span in spans:
        if span["name"] == "proxy.score_genome":
            dur = span["end"] - span["start"]
            if span["id"] in in_search:
                m["search.scored"] += 1
                m["search.score_busy_s"] += dur
            if span["id"] in in_corr:
                m["correlation.score_busy_s"] += dur
    return m


def _descendants(spans: list[dict], name: str) -> set[int]:
    parent = {span["id"]: span["parent"] for span in spans}
    roots = {span["id"] for span in spans if span["name"] == name}
    found = set()
    for sid in parent:
        p = parent[sid]
        while p is not None:
            if p in roots:
                found.add(sid)
                break
            p = parent.get(p)
    return found


def derived_metrics(m: dict[str, float]) -> dict[str, float]:
    """Ratios and rates over summed quantities, named as in METRICS."""
    out = {name: m.get(name, 0.0) for name, _, _ in METRICS}
    for kind in CONV_KINDS:
        prefix = f"tensor.conv2d.{kind}"
        out[f"{prefix}.fwd_gmac_per_s"] = _ratio(m.get(f"{prefix}.macs", 0.0),
                                                 m.get(f"{prefix}.fwd_s", 0.0)) / 1e9
    out["tensor.backward.gmac_per_s"] = _ratio(
        2 * m.get("tensor.forward_macs", 0.0), m["tensor.backward.s"]) / 1e9
    out["network.compiles_per_candidate"] = _ratio(
        m["network.compile.calls"], m["proxy.score_genome.calls"])
    out["latency.table_hit_ratio"] = _ratio(m.get("latency.hits", 0.0),
                                            m.get("latency.layers", 0.0))
    requested = m.get("search.requested", 0.0)
    out["search.cache_hit_ratio"] = (1 - m.get("search.scored", 0.0) / requested
                                     if requested else 0.0)
    out["search.pool_utilization"] = _ratio(m.get("search.score_busy_s", 0.0),
                                            m.get("search.run.capacity_s", 0.0))
    out["correlation.pool_utilization"] = _ratio(
        m.get("correlation.score_busy_s", 0.0),
        m.get("correlation.run.capacity_s", 0.0))
    return out


def cross_check(spans: list[dict]) -> list[str]:
    """Exact count checks; returns one message per violation.

    - Per candidate, the conv and dense MACs the tensor layer ran (from
      shapes) equal count_macs(graph) * batches * batch_size.
    - Per latency estimate, table hits plus fallback misses equal the
      layers priced.
    """
    problems = []
    by_trace = defaultdict(list)
    for span in spans:
        if span["trace"] is not None:
            by_trace[span["trace"]].append(span)
    for trace, group in by_trace.items():
        ran = sum(s.get("macs", 0) for s in group
                  if s["name"] in ("tensor.conv2d", "tensor.dense"))
        compiles = [s for s in group if s["name"] == "network.compile.score"]
        batches = [s for s in group if s["name"] == "proxy.make_batches"]
        if len(compiles) != 1 or len(batches) != 1:
            problems.append(f"{trace}: {len(compiles)} scoring compiles and "
                            f"{len(batches)} batch sets, expected 1 each")
            continue
        expected = (compiles[0]["count_macs"] * batches[0]["batches"]
                    * batches[0]["batch_size"])
        if ran != expected:
            problems.append(f"{trace}: traced MACs {ran} != count_macs x "
                            f"batches x batch_size = {expected}")
    for span in spans:
        if span["name"] == "latency.estimate" and \
                span["hits"] + span["misses"] != span["layers"]:
            problems.append(f"latency estimate: {span['hits']} hits + "
                            f"{span['misses']} misses != {span['layers']} layers")
    return problems
