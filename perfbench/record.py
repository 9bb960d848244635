"""Record the reference outputs that run.py checks every invocation against.

    python3 perfbench/record.py [workload ...]

Runs every choice the benchmark seed can make once, traced: each program
seed in PROGRAM_SEEDS and, for search, the first seeds whose generation 0
scores the whole space. Writes reference/<workload>.json with the outputs,
the MACs scored and the candidate counts. Re-record only when the program's
outputs are meant to change: a reference recorded from a changed program
hides the change from the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys

import layers
import run
from workloads import (BATCHES, BATCH_SIZE, CLASS_CHOICES, PLANS,
                       PROGRAM_SEEDS, REFERENCE_DIR,
                       SEARCH_SPACE_SIZE, correlate_plan, expected_report,
                       score_plan, search_plan, tiny_shapes, write_records)


def traced(runner: run.Runner, inv) -> tuple[str, list[dict]]:
    """Run one invocation traced; return its stdout and spans."""
    out = runner.work / "record.out"
    spans_path = runner.work / "record.spans.json"
    _, code, _ = runner.run([sys.executable, str(run.BENCH_DIR / "traced_cli.py"),
                             str(spans_path), *inv.argv], out)
    if code != 0:
        raise SystemExit(f"{inv.label} failed: {runner.stderr_tail()}")
    spans = json.loads(spans_path.read_text())
    problems = layers.cross_check(spans)
    if problems:
        raise SystemExit(f"{inv.label}: {problems}")
    return out.read_text(), spans


def forward_macs(spans: list[dict]) -> int:
    return int(layers.invocation_metrics(spans)["tensor.forward_macs"])


def record_score(name: str, runner: run.Runner) -> dict:
    outputs, macs = {}, {}
    for seed in PROGRAM_SEEDS:
        plan = score_plan(name, 0, runner.work, {}, seed)
        for inv in plan.invocations:
            stdout, spans = traced(runner, inv)
            outputs.setdefault(str(seed), {})[inv.label] = stdout
            macs[inv.label] = forward_macs(spans)
    return {"outputs": outputs, "macs": macs}


def record_search(runner: run.Runner) -> dict:
    cases = []
    seed = 0
    while len(cases) < len(PROGRAM_SEEDS):
        seed += 1
        inv = search_plan(0, runner.work, {"cases": []}, seed).invocations[0]
        stdout, spans = traced(runner, inv)
        first = min((s for s in spans if s["name"] == "search.evaluate"),
                    key=lambda s: s["start"])
        scored = [s for s in spans if s["name"] == "proxy.score_genome"]
        if len(scored) == SEARCH_SPACE_SIZE and \
                all(s["parent"] == first["id"] for s in scored):
            cases.append({"seed": seed, "scored": len(scored),
                          "macs": forward_macs(spans), "archive": stdout,
                          "log": inv.log.read_text()})
    return {"cases": cases}


def record_correlate(runner: run.Runner) -> dict:
    """Score every (shape, class count) once per program seed."""
    records = []
    for i, shape in enumerate(tiny_shapes()):
        for classes in CLASS_CHOICES:
            records.append({"key": f"{i}:{classes}", "id": f"{i}:{classes}",
                            "genome": dict(shape, num_classes=classes),
                            "test_accuracy": float(len(records) % 50 + 40)})
    path = runner.work / "all-records.jsonl"
    write_records(records, path)
    by_genome = {json.dumps(r["genome"], sort_keys=True, separators=(",", ":")):
                 r["key"] for r in records}
    scores, macs = {}, {}
    for seed in PROGRAM_SEEDS:
        inv = correlate_plan(0, runner.work, {}, seed).invocations[0]
        inv.argv[2] = str(path)
        stdout, spans = traced(runner, inv)
        report = json.loads(stdout)
        scores[str(seed)] = {row["id"]: [row["zico"], row["penalty"], row["zico_bc"]]
                             for row in report["records"]}
        if not run.same_value(expected_report(records, scores[str(seed)], seed),
                              report):
            raise SystemExit("correlate report does not match its reconstruction")
        for span in spans:
            if span["name"] == "network.compile.score":
                macs[by_genome[span["trace"].rsplit("#", 1)[0]]] = \
                    span["count_macs"] * BATCHES * BATCH_SIZE
    return {"scores": scores, "macs": macs}


def main(argv: list[str]) -> int:
    names = argv or sorted(PLANS)
    work = run.ROOT / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(run.child_env(work), work, limit_s=24 * 3600)
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in names:
            if name == "search":
                reference = record_search(runner)
            elif name == "correlate":
                reference = record_correlate(runner)
            else:
                reference = record_score(name, runner)
            (REFERENCE_DIR / f"{name}.json").write_text(
                json.dumps(reference, indent=1, sort_keys=True) + "\n")
            print(f"recorded {name}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
