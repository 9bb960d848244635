"""Command-line front end: score, search, correlate, latency, pareto-plotdata.

Outputs are machine-first: primary results go to standard output (or
--out) as JSON/CSV; human-oriented summaries go to standard error. Every
run with --out also writes a manifest (<out>.manifest.json) recording the
fully resolved configuration, seeds, tool version, and input digests;
--from-manifest replays a manifest and reproduces the output byte for
byte. Exit codes: 0 success, 2 usage or validation error, 3 runtime
evaluation failure.

Generation logs and crowding distances may contain IEEE infinities; they
are serialized as Python's JSON extension token `Infinity`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .correlation import (
    CorrelationError,
    RecordError,
    load_records,
    run_correlation,
)
from .latency import (
    LatencyModelError,
    LatencyTable,
    estimate,
    load_table,
)
from .network import (
    GenomeError,
    compile_genome,
    genome_from_json,
)
from .proxy import ProxyError, ScoreSettings, blas_threads, score_genome
from .search import (
    EvaluationFailure,
    GenomeSpace,
    ObjectiveError,
    SearchConfig,
    SearchConfigError,
    run_search,
)
from .tensor import TapeError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# every validation error class is a ValueError; the runtime ones are caught first
_VALIDATION_ERRORS = (OSError, ValueError)
_RUNTIME_ERRORS = (EvaluationFailure, LatencyModelError, ObjectiveError, TapeError)


class ManifestError(ValueError):
    """Replay manifest is malformed or its inputs changed on disk."""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "from_manifest", None):
        try:
            args = _load_manifest_args(parser, args)
        except ManifestError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        _resolve_common(args)
        return args.func(args)
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zicobc",
        description="Training-free architecture scoring and latency-aware search.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser(
        "score", help="score one genome and print the proxy JSON")
    p_score.add_argument("genome", nargs="?", help="genome JSON file")
    _add_proxy_flags(p_score)
    _add_common_flags(p_score)

    p_search = sub.add_parser(
        "search", help="latency-aware evolutionary search over a genome space")
    p_search.add_argument("--family", choices=("effnet_like", "resnet_like"),
                          default="effnet_like", help="block family (default: %(default)s)")
    p_search.add_argument("--strides", default="1,2,2",
                          help="per-stage strides, comma separated (default: %(default)s)")
    p_search.add_argument("--channels", default="16,24,32,48,64,96,128",
                          help="stage channel choices (default: %(default)s)")
    p_search.add_argument("--repeats", default="1,2,3,4",
                          help="stage repeat choices (default: %(default)s)")
    p_search.add_argument("--kernels", default="3,5",
                          help="kernel size choices (default: %(default)s)")
    p_search.add_argument("--conv-modes", default="regular,group",
                          help="convolution mode choices (default: %(default)s)")
    p_search.add_argument("--expansions", default="4",
                          help="effnet_like expansion choices (default: %(default)s)")
    p_search.add_argument("--stem-channels", type=int, default=16,
                          help="stem width (default: %(default)s)")
    p_search.add_argument("--num-classes", type=int, default=10,
                          help="classifier classes (default: %(default)s)")
    p_search.add_argument("--population", type=int, default=64,
                          help="population size, even (default: %(default)s)")
    p_search.add_argument("--generations", type=int, default=100,
                          help="generations to evolve (default: %(default)s)")
    p_search.add_argument("--mutation-rate", type=float, default=0.9,
                          help="per-child mutation probability (default: %(default)s)")
    p_search.add_argument("--crossover-rate", type=float, default=0.5,
                          help="per-pair crossover probability (default: %(default)s)")
    p_search.add_argument("--latency-table", default=None,
                          help="CSV latency table path (default: none)")
    p_search.add_argument("--fallback-us-per-mac", type=float, default=0.001,
                          help="microseconds per MAC for missing table entries "
                               "(default: %(default)s)")
    p_search.add_argument("--latency-ceiling-us", type=float, default=None,
                          help="hard feasibility ceiling in microseconds "
                               "(default: none)")
    p_search.add_argument("--log", default=None,
                          help="write per-generation JSONL log here (default: none)")
    _add_proxy_flags(p_search)
    _add_common_flags(p_search)

    p_corr = sub.add_parser(
        "correlate", help="rank-correlate proxy scores with recorded accuracies")
    p_corr.add_argument("--records", required=True,
                        help="JSONL benchmark records: {id, genome, test_accuracy}")
    _add_proxy_flags(p_corr)
    _add_common_flags(p_corr)

    p_lat = sub.add_parser(
        "latency", help="estimate one genome's latency from a lookup table")
    p_lat.add_argument("genome", nargs="?", help="genome JSON file")
    p_lat.add_argument("--table", default=None,
                       help="CSV latency table path (default: none)")
    p_lat.add_argument("--fallback-us-per-mac", type=float, default=0.001,
                       help="microseconds per MAC for missing table entries "
                            "(default: %(default)s)")
    _add_common_flags(p_lat)

    p_plot = sub.add_parser(
        "pareto-plotdata",
        help="flatten an archive JSON into depth/width/score/latency CSV")
    p_plot.add_argument("archive", nargs="?", help="archive JSON file from `search`")
    _add_common_flags(p_plot)

    for name, sp in ((n, sub.choices[n]) for n in sub.choices):
        sp.set_defaults(func=_COMMANDS[name], command=name)
    return parser


def _add_proxy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=1.0,
                   help="depth-width penalty weight; 1 suits classification and "
                        "detection, 2 suits segmentation (default: %(default)s)")
    p.add_argument("--batches", type=int, default=8,
                   help="gradient batches per score (default: %(default)s)")
    p.add_argument("--batch-size", type=int, default=8,
                   help="samples per batch (default: %(default)s)")
    p.add_argument("--stat-mode", choices=("abs", "signed"), default="abs",
                   help="gradient mean numerator (default: %(default)s)")
    p.add_argument("--resolution", default=None,
                   help="input resolution HxW (default: the genome's own value; "
                        "search uses 32x32)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="master seed; falls back to $ZICO_BC_SEED, then 0")
    p.add_argument("--threads", type=int, default=None,
                   help="evaluator threads (default: available cores); each "
                        "runs single-threaded BLAS while the pool is up, and "
                        "one-candidate commands keep BLAS's own threading; "
                        "never affects results")
    p.add_argument("--out", default=None,
                   help="write primary output here (and a manifest next to it); "
                        "default: stdout")
    p.add_argument("--from-manifest", default=None,
                   help="replay a previous run's manifest, reproducing its "
                        "output byte for byte (default: none)")


def _resolve_common(args: argparse.Namespace) -> None:
    if getattr(args, "seed", None) is None:
        env_seed = os.environ.get("ZICO_BC_SEED", "0")
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ValueError(
                f"ZICO_BC_SEED must be an integer, got {env_seed!r}") from None
    if getattr(args, "threads", None) is None:
        args.threads = os.cpu_count() or 1


# -- manifest -----------------------------------------------------------------

_NON_CONFIG_KEYS = ("func", "from_manifest", "out", "log")


def _build_manifest(args: argparse.Namespace, input_paths: list[str]) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in _NON_CONFIG_KEYS}
    digests = {}
    for path in input_paths:
        if path:
            digests[str(path)] = _sha256_file(path)
    return {
        "subcommand": args.command,
        "tool_version": __version__,
        "seed": args.seed,
        "config": config,
        "input_digests": digests,
        "environment": _environment(args.threads),
    }


def _environment(threads: int) -> dict:
    """The numeric environment bit-exact replay rests on; replay ignores it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 has no dict form
        blas = {}
    outside = blas_threads()
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "evaluator_threads": threads,
        "blas_threads": outside,
        # parallel_map pins BLAS to one thread whenever it fans out
        "blas_threads_in_pool": 1 if outside is not None and threads > 1 else None,
    }


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_manifest_args(parser: argparse.ArgumentParser,
                        current: argparse.Namespace) -> argparse.Namespace:
    try:
        manifest = json.loads(Path(current.from_manifest).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from None
    for key in ("subcommand", "config", "input_digests"):
        if key not in manifest:
            raise ManifestError(f"manifest missing {key!r}")
    for path, digest in manifest["input_digests"].items():
        try:
            actual = _sha256_file(path)
        except OSError as exc:
            raise ManifestError(f"manifest input unreadable: {exc}") from None
        if actual != digest:
            raise ManifestError(
                f"input {path} changed since the manifest was written")
    name = manifest["subcommand"]
    if name not in _COMMANDS:
        raise ManifestError(f"unknown subcommand {name!r} in manifest")
    replayed = argparse.Namespace(**manifest["config"])
    replayed.command = name
    replayed.func = _COMMANDS[name]
    replayed.from_manifest = None
    replayed.out = current.out
    replayed.log = getattr(current, "log", None)
    return replayed


def _emit(text: str, args: argparse.Namespace, input_paths: list[str]) -> None:
    if args.out:
        Path(args.out).write_text(text)
        manifest = _build_manifest(args, input_paths)
        Path(str(args.out) + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)


def _parse_resolution(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ProxyError(f"resolution must look like HxW, got {text!r}")
    try:
        h, w = int(parts[0]), int(parts[1])
    except ValueError:
        raise ProxyError(f"resolution must look like HxW, got {text!r}") from None
    return h, w


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise SearchConfigError(f"{flag}: expected comma-separated integers, "
                                f"got {text!r}") from None
    if not values:
        raise SearchConfigError(f"{flag}: empty list")
    return values


def _read_genome(path: str | None):
    if not path:
        raise GenomeError("genome file argument is required")
    return genome_from_json(Path(path).read_text())


def _score_settings(args: argparse.Namespace) -> ScoreSettings:
    return ScoreSettings(
        beta=args.beta,
        batches=args.batches,
        batch_size=args.batch_size,
        seed=args.seed,
        stat_mode=args.stat_mode,
        resolution=_parse_resolution(args.resolution),
    )


# -- subcommands -----------------------------------------------------------------


def cmd_score(args: argparse.Namespace) -> int:
    genome = _read_genome(args.genome)
    settings = _score_settings(args)
    score = score_genome(genome, settings)
    _emit(json.dumps(score.to_json_dict(), indent=2) + "\n", args, [args.genome])
    print(f"zico={score.zico:.6f} penalty={score.penalty:.6f} "
          f"zico_bc={score.zico_bc:.6f} (beta={score.beta})", file=sys.stderr)
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    space = GenomeSpace(
        family=args.family,
        strides=_parse_int_list(args.strides, "--strides"),
        channel_choices=_parse_int_list(args.channels, "--channels"),
        repeat_choices=_parse_int_list(args.repeats, "--repeats"),
        kernel_choices=_parse_int_list(args.kernels, "--kernels"),
        conv_modes=tuple(m.strip() for m in args.conv_modes.split(",") if m.strip()),
        expansion_choices=_parse_int_list(args.expansions, "--expansions"),
        stem_channels=args.stem_channels,
        num_classes=args.num_classes,
        input_resolution=_parse_resolution(args.resolution) or (32, 32),
    )
    config = SearchConfig(
        population=args.population,
        generations=args.generations,
        mutation_rate=args.mutation_rate,
        crossover_rate=args.crossover_rate,
        seed=args.seed,
        latency_ceiling_us=args.latency_ceiling_us,
    )
    settings = _score_settings(args)
    if args.latency_table:
        table = load_table(args.latency_table, args.fallback_us_per_mac)
    else:
        table = LatencyTable(fallback_us_per_mac=args.fallback_us_per_mac)

    def proxy_fn(genome):
        return score_genome(genome, settings)

    def latency_fn(genome):
        return estimate(compile_genome(genome), table).total_us

    archive, log = run_search(space, config, proxy_fn, latency_fn,
                              threads=args.threads,
                              progress=lambda msg: print(msg, file=sys.stderr))
    inputs = [args.latency_table] if args.latency_table else []
    _emit(json.dumps(archive.to_json_list(), indent=2) + "\n", args, inputs)
    if args.log:
        with open(args.log, "w") as fh:
            for row in log:
                fh.write(json.dumps(row))
                fh.write("\n")
    print(f"archive size {len(archive)} after {config.generations} generations",
          file=sys.stderr)
    return EXIT_OK


def cmd_correlate(args: argparse.Namespace) -> int:
    records = load_records(args.records)
    settings = _score_settings(args)
    report = run_correlation(records, settings, threads=args.threads)
    _emit(json.dumps(report, indent=2) + "\n", args, [args.records])
    print(f"tau={report['tau']:.4f} rho={report['rho']:.4f} n={report['n']}",
          file=sys.stderr)
    return EXIT_OK


def cmd_latency(args: argparse.Namespace) -> int:
    genome = _read_genome(args.genome)
    if args.table:
        table = load_table(args.table, args.fallback_us_per_mac)
    else:
        table = LatencyTable(fallback_us_per_mac=args.fallback_us_per_mac)
    graph = compile_genome(genome)
    result = estimate(graph, table)
    inputs = [args.genome] + ([args.table] if args.table else [])
    _emit(json.dumps(result.to_json_dict(), indent=2) + "\n", args, inputs)
    print(f"total {result.total_us:.3f} us over {len(graph.layers)} layers "
          f"({result.misses} fallback)", file=sys.stderr)
    return EXIT_OK


PLOTDATA_HEADER = "depth,mean_width,score,latency"


def cmd_pareto_plotdata(args: argparse.Namespace) -> int:
    if not args.archive:
        raise CorrelationError("archive file argument is required")
    try:
        entries = json.loads(Path(args.archive).read_text())
    except json.JSONDecodeError as exc:
        raise RecordError(f"{args.archive}: invalid JSON: {exc}") from None
    if not isinstance(entries, list):
        raise RecordError(f"{args.archive}: archive must be a JSON array")
    lines = [PLOTDATA_HEADER]
    for i, entry in enumerate(entries):
        try:
            stages = entry["genome"]["stages"]
            depth = sum(s["repeats"] for s in stages)
            width = sum(s["repeats"] * s["channels"] for s in stages) / depth
            score = entry["zico_bc"] if entry.get("zico_bc") is not None \
                else entry["score"]
            latency = entry["latency_us"]
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise RecordError(
                f"{args.archive}: entry {i} malformed: {exc}") from None
        lines.append(f"{depth},{width!r},{score!r},{latency!r}")
    _emit("\n".join(lines) + "\n", args, [args.archive])
    print(f"{len(entries)} archive points", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "score": cmd_score,
    "search": cmd_search,
    "correlate": cmd_correlate,
    "latency": cmd_latency,
    "pareto-plotdata": cmd_pareto_plotdata,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
