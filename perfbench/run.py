"""zicobc benchmark: run one workload through the real CLI and report metrics.

    python3 perfbench/run.py --workload score_regular --seed 1 --seconds 26 --trace 0

Run from the root of a checkout. Every CLI invocation is a fresh child
process that runs `zicobc.cli.main` from the checkout's src/ exactly as the
console script does, with the BLAS thread variables unset and --threads at
its default. A pass is one round of a workload's invocations; passes run
back to back (a closed loop, one client) until --seconds have elapsed.
Every output is checked against the reference recorded in reference/.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (spans recorded by spans.py in the child), alternating
traced and untraced passes to measure the tracing overhead. The last
line of standard output is one JSON object; the exit code is 0 only if
every output matched and every cross-check held.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from workloads import BENCH_DIR, PLANS, load_reference

ROOT = BENCH_DIR.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CLI = "import sys; from zicobc.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5  # before the first pass; one more follows each pass
RUN_LIMIT_S = 170.0  # every child is killed once the run has lasted this long
REL_TOL = 1e-12

END_TO_END = [("wall_s", "s"), ("candidates_per_s", "1/s"),
              ("gmac_per_s", "GMAC/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]

PROBE = r"""
import json, os, platform, sys
import zicobc.cli
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
blas_threads = None
try:
    import ctypes, glob
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        getter = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        getter.restype, getter.argtypes = ctypes.c_int, []
        blas_threads = getter()
except (OSError, AttributeError):
    pass
print(json.dumps({
    "zicobc": zicobc.cli.__file__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    "blas_threads_in_effect": blas_threads,
    "nproc": os.cpu_count(),
    "evaluator_threads": os.cpu_count() or 1,
}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed probe)."""


def child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARS
           and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "ZICO_BC_SEED")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(work.parent / "pycache")
    return env


class Runner:
    """Starts child processes and times them; kills any that outlive the run."""

    def __init__(self, env: dict, work: Path, limit_s: float = RUN_LIMIT_S) -> None:
        self.env = env
        self.work = work
        self.deadline = time.monotonic() + limit_s

    def run(self, cmd: list[str], stdout_path: Path) -> tuple[float, int, float]:
        """Run cmd to completion; return (wall seconds, exit code, peak RSS MB)."""
        with open(stdout_path, "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.work)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def stderr_tail(self) -> str:
        return (self.work / "stderr.txt").read_text(errors="replace")[-400:]


# -- output checks -----------------------------------------------------------


def same_value(expected, actual) -> bool:
    """Structural equality; floats may differ by REL_TOL relative."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, bool) or isinstance(actual, bool) or \
                not isinstance(expected, (int, float)) or \
                not isinstance(actual, (int, float)):
            return False
        if expected == actual:
            return True
        if math.isnan(expected) or math.isnan(actual):
            return False
        return abs(expected - actual) <= REL_TOL * max(abs(expected), abs(actual))
    if isinstance(expected, dict):
        return isinstance(actual, dict) and expected.keys() == actual.keys() and \
            all(same_value(expected[k], actual[k]) for k in expected)
    if isinstance(expected, list):
        return isinstance(actual, list) and len(expected) == len(actual) and \
            all(same_value(e, a) for e, a in zip(expected, actual))
    return type(expected) is type(actual) and expected == actual


def _parse_json(text: str):
    """A JSON document, or a list of JSON lines."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def same_text(expected: str | None, actual: str) -> bool:
    """Bytes identical, or the same JSON (or JSON lines) within REL_TOL."""
    if expected is None:
        return False
    if expected == actual:
        return True
    try:
        return same_value(_parse_json(expected), _parse_json(actual))
    except json.JSONDecodeError:
        return False


def check_outputs(expected: dict, stdout: str, log: str | None) -> str | None:
    """None when the invocation's outputs match, else what differed."""
    if "report" in expected:
        try:
            ok = expected["report"] is not None and \
                same_value(expected["report"], json.loads(stdout))
        except json.JSONDecodeError:
            ok = False
        return None if ok else "correlate report differs from the reference"
    if not same_text(expected.get("stdout"), stdout):
        return "stdout differs from the reference"
    if "log" in expected and not same_text(expected["log"], log or ""):
        return "log differs from the reference"
    return None


# -- passes ------------------------------------------------------------------


def run_pass(runner: Runner, plan, traced: bool, failures: list[str]) -> list[dict]:
    """Run each invocation once; return per-invocation measurements."""
    results = []
    for inv in plan.invocations:
        stdout_path = runner.work / f"{inv.label}.out"
        spans_path = runner.work / f"{inv.label}.spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                   str(spans_path), *inv.argv]
        else:
            cmd = [sys.executable, "-c", CLI, *inv.argv]
        wall, code, rss = runner.run(cmd, stdout_path)
        stdout = stdout_path.read_text()
        log = inv.log.read_text() if inv.log and inv.log.exists() else None
        result = {"wall": wall, "rss_mb": rss,
                  "output_bytes": len(stdout.encode()) +
                  (len(log.encode()) if log else 0)}
        if code != 0:
            problem = f"exit code {code}: {runner.stderr_tail()}"
        else:
            problem = check_outputs(plan.expected[inv.label], stdout, log)
        if traced and problem is None:
            result["spans"] = json.loads(spans_path.read_text())
            problems = layers.cross_check(result["spans"])
            problem = "; ".join(problems) if problems else None
        if problem:
            failures.append(f"{inv.label}: {problem}")
        results.append(result)
    return results


def end_to_end(plan, passes: list[list[dict]], setup_s: float) -> dict:
    # The median of each invocation across passes, summed: a pass's typical
    # wall time with each invocation's outliers removed separately.
    wall = sum(statistics.median(p[i]["wall"] for p in passes)
               for i in range(len(plan.invocations)))
    return {
        "wall_s": wall,
        "candidates_per_s": plan.candidates / wall,
        "gmac_per_s": plan.macs / wall / 1e9,
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p)
                                         for p in passes),
        "setup_s": setup_s,
    }


def per_layer(plan, traced: list[list[dict]], untraced: list[list[dict]],
              failures: list[str]) -> dict:
    per_pass = []
    for tp, up in zip(traced, untraced):
        summed = {}
        for inv in tp:
            for name, value in layers.invocation_metrics(inv["spans"]).items():
                summed[name] = summed.get(name, 0.0) + value
        metrics = layers.derived_metrics(summed)
        metrics["cli.output_bytes"] = float(sum(r["output_bytes"] for r in tp))
        metrics["trace_overhead"] = (sum(r["wall"] for r in tp)
                                     / sum(r["wall"] for r in up) - 1)
        if summed["proxy.score_genome.calls"] != plan.candidates:
            failures.append(f"traced run scored {summed['proxy.score_genome.calls']}"
                            f" candidates, reference says {plan.candidates}")
        if summed.get("tensor.forward_macs", 0) != plan.macs:
            failures.append(f"traced run ran {summed.get('tensor.forward_macs')} "
                            f"MACs, reference says {plan.macs}")
        per_pass.append(metrics)
    return {name: statistics.median(m[name] for m in per_pass)
            for name, _, _ in layers.METRICS}


def time_setup(runner: Runner) -> float:
    """Seconds for a fresh interpreter to import zicobc.cli."""
    wall, code, _ = runner.run([sys.executable, "-c", "import zicobc.cli"],
                               runner.work / "setup.out")
    if code != 0:
        raise BenchError(f"importing zicobc.cli failed: {runner.stderr_tail()}")
    return wall


def probe_environment(runner: Runner, seed: int) -> dict:
    out = runner.work / "probe.out"
    _, code, _ = runner.run([sys.executable, "-c", PROBE], out)
    if code != 0:
        raise BenchError(f"environment probe failed: {runner.stderr_tail()}")
    env = json.loads(out.read_text())
    if not Path(env.pop("zicobc")).resolve().is_relative_to(ROOT / "src"):
        raise BenchError("zicobc was not imported from this checkout's src/")
    env["blas_thread_vars"] = {v: runner.env.get(v) for v in BLAS_THREAD_VARS}
    env["workload_seed"] = seed
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through Runner.run, which kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "zicobc" / "cli.py").is_file():
        print(f"error: no zicobc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return bench(args, Runner(child_env(work), work))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, runner: Runner) -> int:
    environment = probe_environment(runner, args.seed)
    time_setup(runner)  # fills the bytecode cache
    # Set-up is timed before the passes and again after each one, so that
    # its median spans the whole run rather than one moment of it.
    setup = [time_setup(runner) for _ in range(SETUP_SAMPLES)]
    plan = PLANS[args.workload](args.seed, runner.work,
                                load_reference(args.workload))
    failures: list[str] = []
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(runner, plan, False, failures))
        if args.trace:
            traced.append(run_pass(runner, plan, True, failures))
        setup.append(time_setup(runner))
    setup_s = statistics.median(setup)

    if args.trace:
        units = {name: unit for name, unit, _ in layers.METRICS}
        metrics = {} if failures else per_layer(plan, traced, untraced, failures)
    else:
        units = dict(END_TO_END)
        metrics = {} if failures else end_to_end(plan, untraced, setup_s)
    if failures:  # per_layer's count checks may have added some
        metrics = {}
    attempted = sum(len(p) for p in untraced + traced)
    failed = min(len(failures), attempted)

    print(f"environment {json.dumps(environment, sort_keys=True)}")
    print(f"workload {args.workload}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes of {len(plan.invocations)} invocation(s), "
          f"{plan.candidates} candidates and {plan.macs / 1e9:.4f} GMAC per pass")
    print("pass wall times (s): " + " ".join(
        f"{sum(r['wall'] for r in p):.3f}" for p in untraced))
    for i, inv in enumerate(plan.invocations):
        median = statistics.median(p[i]["wall"] for p in untraced)
        print(f"invocation {inv.label}: median {median:.3f} s over "
              f"{len(untraced)} untraced passes")
    for failure in failures:
        print(f"FAILED {failure}")
    if "network.compiles_per_candidate" in metrics:
        print(f"compiles per candidate {metrics['network.compiles_per_candidate']}"
              f" (at the benchmark's reference commit: "
              f"{plan.compiles_per_candidate})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {failed / attempted:.6g} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
