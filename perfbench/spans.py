"""In-memory span recorder and the wrappers that attach it to zicobc.

The benchmark's traced run imports this module in the child process that
runs the zicobc CLI. `instrument` replaces public functions of each
zicobc module, at the name their callers look up, with wrappers that
record one span per call: name, start, end, parent span, thread and the
trace id of the candidate being scored. The program's own files are not
changed.

Spans are kept per thread (two evaluator threads run at once) and written
out as JSON when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

# Tape methods whose forward time counts as pointwise work.
POINTWISE_OPS = ("relu", "residual_add", "global_avg_pool", "dense",
                 "cross_entropy_loss")


class Recorder:
    """Collects spans from every thread; thread-safe."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self._local = threading.local()
        self._trace_seq = itertools.count(1)
        # Span that fanned work out to a thread pool; pool threads have no
        # span of their own on their stack, so this one is their parent.
        self.fanout_parent: int | None = None

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.trace = None
            with self._lock:
                self._threads.append(local.spans)
        return local

    def new_trace(self, key: str) -> str:
        return f"{key}#{next(self._trace_seq)}"

    def call(self, name: str, fn, args=(), kwargs=None, *, trace=None,
             fanout=False, attrs=None):
        """Run fn(*args, **kwargs) inside a span; return (result, span).

        `trace` starts a new trace for this call and its children.
        `fanout` makes this span the parent of spans opened by pool
        threads while it runs. `attrs` maps the call's arguments and result
        to extra span fields; it runs after the span has ended.
        """
        state = self._state()
        span_id = next(self._ids)
        if state.stack:
            parent = state.stack[-1]
        elif threading.current_thread() is not threading.main_thread():
            parent = self.fanout_parent
        else:
            parent = None
        saved_trace = state.trace
        if trace is not None:
            state.trace = trace
        state.stack.append(span_id)
        outer_fanout = self.fanout_parent
        if fanout:
            self.fanout_parent = span_id
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self.fanout_parent = outer_fanout
            state.stack.pop()
            span = {"id": span_id, "parent": parent, "name": name,
                    "thread": threading.get_ident(), "trace": state.trace,
                    "start": start, "end": end}
            state.trace = saved_trace
            state.spans.append(span)
        if attrs is not None:
            span.update(attrs(args, kwargs or {}, result))
        return result, span

    def spans(self) -> list[dict]:
        with self._lock:
            return [span for spans in self._threads for span in spans]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans(), fh)


def _wrap(recorder: Recorder, owner, attr: str, name: str, *, key=None,
          fanout=False, attrs=None) -> None:
    """Replace owner.attr with a wrapper that records a span per call.

    `key` maps the call's arguments to a candidate key; when given, each
    call starts a new trace.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        trace = recorder.new_trace(key(args, kwargs)) if key else None
        result, _ = recorder.call(name, fn, args, kwargs, trace=trace,
                                  fanout=fanout, attrs=attrs)
        return result

    setattr(owner, attr, wrapper)


def conv_attrs(args, kwargs, result) -> dict:
    """Kind, MACs and computed im2col bytes of one conv2d call, from shapes.

    The kind comes from the shapes alone: groups = 1 is regular, one input
    channel per group is depthwise, anything else is grouped.
    """
    _, x, weight = args[:3]
    groups = kwargs.get("groups", args[5] if len(args) > 5 else 1)
    n, c_in = x.shape[:2]
    c_out, c_in_g, kh, kw = weight.shape
    _, _, h_out, w_out = result.shape
    if groups == 1:
        kind = "regular"
    elif c_in // groups == 1:
        kind = "depthwise"
    else:
        kind = "grouped"
    taps = h_out * w_out
    return {"kind": kind, "macs": n * c_out * taps * c_in_g * kh * kw,
            "im2col_bytes": n * c_in * kh * kw * taps * 8}


def dense_attrs(args, kwargs, result) -> dict:
    _, x, weight = args[:3]
    return {"macs": x.shape[0] * weight.shape[0] * weight.shape[1]}


def instrument(recorder: Recorder) -> None:
    """Wrap the public functions of every zicobc layer at their call sites."""
    from zicobc import cli, correlation, proxy, search
    from zicobc.network import count_macs, genome_to_json
    from zicobc.latency import layer_key
    from zicobc.tensor import Tape
    from zicobc.proxy import GradientAccumulator

    def genome_key(args, kwargs):
        return genome_to_json(args[0])

    def graph_macs(args, kwargs, graph):
        return {"count_macs": count_macs(graph)}

    def batch_shape(args, kwargs, batches):
        return {"batches": len(batches), "batch_size": batches[0][0].shape[0]}

    def table_hits(args, kwargs, result):
        graph, table = args[:2]
        hits = sum(table.lookup(layer_key(layer)) is not None
                   for layer in graph.layers)
        return {"hits": hits, "misses": result.misses,
                "layers": len(graph.layers)}

    def pool_threads(args, kwargs, result):
        return {"threads": kwargs.get("threads", 1)}

    def requested(args, kwargs, result):
        return {"requested": len(args[1])}

    # cli imports these names itself, so they are wrapped in cli; the
    # compile done for latency is cli.compile_genome, the one done for
    # scoring is proxy.compile_genome.
    _wrap(recorder, cli, "score_genome", "proxy.score_genome", key=genome_key)
    _wrap(recorder, cli, "compile_genome", "network.compile.latency",
          attrs=graph_macs)
    _wrap(recorder, cli, "estimate", "latency.estimate", attrs=table_hits)
    _wrap(recorder, cli, "load_table", "latency.load_table")
    _wrap(recorder, cli, "run_search", "search.run", fanout=True,
          attrs=pool_threads)
    _wrap(recorder, cli, "load_records", "correlation.load_records")
    _wrap(recorder, cli, "run_correlation", "correlation.run", fanout=True,
          attrs=pool_threads)
    _wrap(recorder, correlation, "score_genome", "proxy.score_genome",
          key=genome_key)
    _wrap(recorder, correlation, "kendall_tau", "correlation.rank")
    _wrap(recorder, correlation, "spearman_rho", "correlation.rank")
    _wrap(recorder, proxy, "compile_genome", "network.compile.score",
          attrs=graph_macs)
    _wrap(recorder, proxy, "make_batches", "proxy.make_batches",
          attrs=batch_shape)
    _wrap(recorder, proxy, "gather_gradient_stats", "proxy.gather")
    _wrap(recorder, proxy, "zico_bc_score", "proxy.combine")
    _wrap(recorder, search, "non_dominated_sort", "search.sort")
    _wrap(recorder, search, "crowding_distance", "search.crowding")
    _wrap(recorder, search, "genome_mutate", "network.mutate")
    _wrap(recorder, search, "genome_crossover", "network.crossover")
    _wrap(recorder, search._Evaluator, "__call__", "search.evaluate",
          fanout=True, attrs=requested)
    _wrap(recorder, Tape, "conv2d", "tensor.conv2d", attrs=conv_attrs)
    _wrap(recorder, Tape, "dense", "tensor.dense", attrs=dense_attrs)
    for op in POINTWISE_OPS:
        if op != "dense":
            _wrap(recorder, Tape, op, f"tensor.{op}")
    _wrap(recorder, Tape, "backward", "tensor.backward")
    _wrap(recorder, Tape, "grad", "tensor.grad")
    _wrap(recorder, GradientAccumulator, "update", "proxy.accumulate")
    _wrap(recorder, GradientAccumulator, "finalize", "proxy.finalize")
