"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests

They run the CLI from this checkout's src/ in child processes, as the
benchmark does, and write only under .bench_work/ at the checkout root.
"""

from __future__ import annotations

import json
import shutil
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import genome, tiny_shapes, write_records  # noqa: E402


@pytest.fixture
def runner():
    work = run.ROOT / ".bench_work" / "tests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    yield run.Runner(run.child_env(work), work)
    shutil.rmtree(work, ignore_errors=True)


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "thread": 0,
            "trace": None, "start": start, "end": end}


def test_self_time_subtracts_union_of_overlapping_children():
    tree = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),    # overlaps span 3: together they cover 1..6
        span(3, 1, 3.0, 6.0),
        span(4, 1, 8.0, 12.0),   # runs past its parent: clipped to 8..10
        span(5, 2, 2.0, 3.0),    # grandchild: only its parent subtracts it
        span(6, 1, 5.0, 5.5),    # inside the 1..6 union already
    ]
    self_s = layers.self_times(tree)
    assert self_s[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_s[2] == pytest.approx(2.0)
    assert self_s[3] == pytest.approx(3.0)
    assert self_s[5] == pytest.approx(1.0)
    assert layers.union_length([], 0.0, 1.0) == 0.0


def test_recorder_keeps_every_span_under_thread_contention():
    recorder = spans.Recorder()

    def leaf():
        return 1

    def node():
        return sum(recorder.call("leaf", leaf)[0] for _ in range(3))

    def worker():
        for _ in range(200):
            recorder.call("node", node, trace=recorder.new_trace("k"))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)

    recorded = recorder.spans()
    by_id = {s["id"]: s for s in recorded}
    assert len(by_id) == len(recorded) == 4 * 200 * 4
    for s in recorded:
        if s["name"] == "leaf":
            parent = by_id[s["parent"]]
            assert parent["name"] == "node"
            assert parent["thread"] == s["thread"]
            assert parent["trace"] == s["trace"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        else:
            assert s["parent"] is None
    assert len({s["trace"] for s in recorded}) == 4 * 200


def run_cli(runner, argv, traced, name):
    out = runner.work / f"{name}.out"
    if traced:
        cmd = [sys.executable, str(run.BENCH_DIR / "traced_cli.py"),
               str(runner.work / f"{name}.spans.json"), *argv]
    else:
        cmd = [sys.executable, "-c", run.CLI, *argv]
    _, code, _ = runner.run(cmd, out)
    assert code == 0, runner.stderr_tail()
    return out.read_bytes()


def tiny_records(runner, count):
    records = [{"id": f"r{i}", "genome": dict(shape, num_classes=10),
                "test_accuracy": 50.0 + i}
               for i, shape in enumerate(tiny_shapes()[:count])]
    path = runner.work / "records.jsonl"
    write_records(records, path)
    return path


def test_traced_outputs_are_byte_identical(runner):
    small = genome("resnet_like", (16, 32), 1, "regular", strides=(1, 2),
                   resolution=8)
    genome_path = runner.work / "genome.json"
    genome_path.write_text(json.dumps(small))
    records = tiny_records(runner, 4)
    commands = {
        "score": ["score", str(genome_path), "--seed", "3"],
        "correlate": ["correlate", "--records", str(records), "--threads", "2"],
    }
    for name, argv in commands.items():
        plain = run_cli(runner, argv, False, f"{name}-plain")
        assert plain == run_cli(runner, argv, True, f"{name}-traced")

    outputs = []
    for traced in (False, True):
        log = runner.work / f"log-{traced}.jsonl"
        argv = ["search", "--family", "resnet_like", "--strides", "1,2",
                "--channels", "32", "--repeats", "1", "--kernels", "3",
                "--population", "4", "--generations", "1", "--resolution",
                "8x8", "--threads", "2", "--log", str(log)]
        outputs.append((run_cli(runner, argv, traced, f"search-{traced}"),
                        log.read_bytes()))
    assert outputs[0] == outputs[1]


def test_spans_from_two_evaluator_threads_stay_per_candidate(runner):
    records = tiny_records(runner, 6)
    run_cli(runner, ["correlate", "--records", str(records), "--threads", "2"],
            True, "corr")
    recorded = json.loads((runner.work / "corr.spans.json").read_text())
    by_id = {s["id"]: s for s in recorded}
    assert len(by_id) == len(recorded)
    scores = [s for s in recorded if s["name"] == "proxy.score_genome"]
    assert len(scores) == 6
    assert len({s["thread"] for s in scores}) == 2
    assert len({s["trace"] for s in scores}) == 6
    run_span = next(s for s in recorded if s["name"] == "correlation.run")
    for s in scores:
        assert s["parent"] == run_span["id"]
    for s in recorded:
        if s["parent"] is None:
            continue
        parent = by_id[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        if parent["name"] != "correlation.run":
            assert parent["thread"] == s["thread"]
            assert parent["trace"] == s["trace"]
    assert layers.cross_check(recorded) == []
    metrics = layers.derived_metrics(layers.invocation_metrics(recorded))
    assert metrics["network.compiles_per_candidate"] == 1.0
    assert 0.0 < metrics["correlation.pool_utilization"] <= 1.0


def test_output_check_allows_only_the_stated_drift():
    expected = json.dumps({"zico": 1.5, "key": "a", "per_layer": [2.0, 3]},
                          indent=2)
    assert run.check_outputs({"stdout": expected}, expected, None) is None
    near = json.dumps({"zico": 1.5 * (1 + 5e-13), "key": "a",
                       "per_layer": [2.0, 3]})
    assert run.check_outputs({"stdout": expected}, near, None) is None
    for bad in ({"zico": 1.5 * (1 + 5e-12), "key": "a", "per_layer": [2.0, 3]},
                {"zico": 1.5, "key": "b", "per_layer": [2.0, 3]},
                {"zico": 1.5, "key": "a", "per_layer": [2.0]}):
        assert run.check_outputs({"stdout": expected}, json.dumps(bad),
                                 None) is not None
