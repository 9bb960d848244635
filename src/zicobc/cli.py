"""Command-line front end: score, search, correlate, latency, pareto-plotdata.

Outputs are machine-first: primary results go to standard output (or
--out) as JSON/CSV; human-oriented summaries go to standard error. Every
run with --out also writes a manifest (<out>.manifest.json) recording the
fully resolved configuration, seeds, tool version, and the digests of its
input files, taken when the run starts; `replay MANIFEST` reruns it and
reproduces the output byte for byte, and takes no option but --out and
--log. No output may name an input file or another output.
Exit codes: 0 success; 2 for a usage error or a `ValueError` or `OSError`
(bad input); 3 for a `RuntimeError` or `MemoryError` (valid input that
failed while running). An exception's class decides its exit code.

Generation logs and crowding distances may contain IEEE infinities; they
are serialized as Python's JSON extension token `Infinity`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import stat
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .correlation import RecordError, load_records, run_correlation
from .latency import LatencyTable, estimate, load_table
from .network import (
    FAMILIES,
    GenomeError,
    compile_genome,
    genome_from_dict,
    parse_json,
    read_text,
)
from .proxy import (
    STAT_MODES,
    ProxyError,
    ScoreSettings,
    blas_core,
    blas_threads,
    score_genome,
)
from .search import GenomeSpace, SearchConfig, SearchConfigError, run_search

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class ManifestError(ValueError):
    """Replay manifest is malformed or its inputs changed on disk."""


class InputPath(str):
    """The type of an argument naming a file the subcommand reads: a run
    with --out records its digest, and no output may name it."""


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_common(args)
        return args.func(args)
    except (MemoryError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError) as exc:
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
    p_score.add_argument("genome", type=InputPath, help="genome JSON file")
    _add_proxy_flags(p_score)
    _add_threads_flag(p_score)
    _add_common_flags(p_score)

    p_search = sub.add_parser(
        "search", help="latency-aware evolutionary search over a genome space")
    p_search.add_argument("--family", choices=FAMILIES,
                          default="effnet_like", help="block family (default: %(default)s)")
    p_search.add_argument("--strides", default="1,2,2",
                          help="per-stage strides, comma separated (default: %(default)s)")
    p_search.add_argument("--channels", default="16,24,32,48,64,96,128",
                          help="stage channel choices (default: %(default)s)")
    p_search.add_argument("--repeats", default="1,2,3,4",
                          help="stage repeat choices (default: %(default)s)")
    p_search.add_argument("--kernels", default=_joined(GenomeSpace.kernel_choices),
                          help="kernel size choices (default: %(default)s)")
    p_search.add_argument("--conv-modes", default=_joined(GenomeSpace.conv_modes),
                          help="convolution mode choices (default: %(default)s)")
    p_search.add_argument("--expansions", default=_joined(GenomeSpace.expansion_choices),
                          help="effnet_like expansion choices; resnet_like takes "
                               "only 4 (default: %(default)s)")
    p_search.add_argument("--stem-channels", type=int, default=GenomeSpace.stem_channels,
                          help="stem width (default: %(default)s)")
    p_search.add_argument("--num-classes", type=int, default=GenomeSpace.num_classes,
                          help="classifier classes (default: %(default)s)")
    p_search.add_argument("--population", type=int, default=SearchConfig.population,
                          help="population size, even (default: %(default)s)")
    p_search.add_argument("--generations", type=int, default=SearchConfig.generations,
                          help="generations to evolve (default: %(default)s)")
    p_search.add_argument("--mutation-rate", type=float,
                          default=SearchConfig.mutation_rate,
                          help="per-child mutation probability (default: %(default)s)")
    p_search.add_argument("--crossover-rate", type=float,
                          default=SearchConfig.crossover_rate,
                          help="per-pair crossover probability (default: %(default)s)")
    _add_latency_flags(p_search, "--latency-table")
    p_search.add_argument("--latency-ceiling-us", type=float,
                          default=SearchConfig.latency_ceiling_us,
                          help="hard feasibility ceiling in microseconds "
                               "(default: none)")
    p_search.add_argument("--log", default=None,
                          help="write per-generation JSONL log here (default: none)")
    _add_proxy_flags(p_search)
    _add_threads_flag(p_search)
    _add_common_flags(p_search)

    p_corr = sub.add_parser(
        "correlate", help="rank-correlate proxy scores with recorded accuracies")
    p_corr.add_argument("--records", type=InputPath, required=True,
                        help="JSONL benchmark records: {id, genome, test_accuracy}")
    _add_proxy_flags(p_corr)
    _add_threads_flag(p_corr)
    _add_common_flags(p_corr)

    p_lat = sub.add_parser(
        "latency", help="estimate one genome's latency from a lookup table")
    p_lat.add_argument("genome", type=InputPath, help="genome JSON file")
    _add_latency_flags(p_lat, "--table")
    _add_common_flags(p_lat)

    p_plot = sub.add_parser(
        "pareto-plotdata",
        help="flatten an archive JSON into depth/width/score/latency CSV")
    p_plot.add_argument("archive", type=InputPath, help="archive JSON file from `search`")
    _add_common_flags(p_plot)

    for name, func in _COMMANDS.items():
        sub.choices[name].set_defaults(func=func, command=name)

    p_replay = sub.add_parser(
        "replay", help="rerun a manifest, reproducing its output byte for byte")
    p_replay.add_argument("manifest", type=InputPath,
                          help="manifest JSON written next to an --out file")
    _add_common_flags(p_replay)
    p_replay.add_argument("--log", default=None,
                          help="write the log here; search manifests only (default: none)")
    p_replay.set_defaults(func=cmd_replay)
    return parser


def _add_proxy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=ScoreSettings.beta,
                   help="depth-width penalty weight; 1 suits classification and "
                        "detection, 2 suits segmentation (default: %(default)s)")
    p.add_argument("--batches", type=int, default=ScoreSettings.batches,
                   help="gradient batches per score (default: %(default)s)")
    p.add_argument("--batch-size", type=int, default=ScoreSettings.batch_size,
                   help="samples per batch (default: %(default)s)")
    p.add_argument("--stat-mode", choices=STAT_MODES, default=ScoreSettings.stat_mode,
                   help="gradient mean numerator (default: %(default)s)")
    p.add_argument("--resolution", default=None,
                   help="input resolution HxW (default: the genome's own value; "
                        f"search uses {_joined(GenomeSpace.input_resolution, 'x')})")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed; falls back to $ZICO_BC_SEED, then "
                        f"{ScoreSettings.seed}")


def _joined(values, sep: str = ",") -> str:
    """A tuple default as the text its flag takes."""
    return sep.join(map(str, values))


def _add_latency_flags(p: argparse.ArgumentParser, table_flag: str) -> None:
    p.add_argument(table_flag, type=InputPath, default=None,
                   help="CSV latency table path (default: none)")
    p.add_argument("--fallback-us-per-mac", type=float, default=0.001,
                   help="microseconds per MAC for missing table entries "
                        "(default: %(default)s)")


def _add_threads_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: available cores): search and "
                        "correlate score one candidate per worker, score splits "
                        "its candidate's array work by sample over them, the "
                        "calling thread being one; each runs "
                        "single-threaded BLAS while the pool is up; never "
                        "affects results")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help="write primary output here (and a manifest next to it); "
                        "default: stdout")


def _resolve_common(args: argparse.Namespace) -> None:
    if "seed" in args and args.seed is None:
        env_seed = os.environ.get("ZICO_BC_SEED", str(ScoreSettings.seed))
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ValueError(
                f"ZICO_BC_SEED must be an integer, got {env_seed!r}") from None
    if "threads" in args:
        if args.threads is None:
            args.threads = os.cpu_count() or 1
        elif args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
    # checked before any work, so no run is lost at the end for want of a
    # file, and none overwrites a file it reads or writes; --out also names
    # the manifest written next to it
    inputs = {dest: path for dest, path in vars(args).items()
              if isinstance(path, InputPath) and path}
    taken = {_file_identity(path): f"the {dest} input" for dest, path in inputs.items()}
    out = getattr(args, "out", None)
    for flag, path, what in (("out", out, "output"),
                             ("out", out and f"{out}.manifest.json", "manifest"),
                             ("log", getattr(args, "log", None), "output")):
        if not path:
            continue
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None  # the run creates it
        except OSError as exc:  # a symlink loop, or a path through a file
            raise ValueError(f"--{flag}: {path}: {exc.strerror}") from None
        if mode is not None and stat.S_ISDIR(mode):
            raise ValueError(f"--{flag}: {path} is a directory")
        parent = Path(path).parent
        if not parent.is_dir():
            raise ValueError(f"--{flag}: {parent} is not a directory")
        if not os.access(parent if mode is None else path, os.W_OK):
            raise ValueError(f"--{flag}: {path} is not writable")
        identity = _file_identity(path)
        if identity in taken:
            raise ValueError(f"--{flag}: {path} would overwrite {taken[identity]}")
        taken[identity] = f"the --{flag} {what}"
    if out:  # the files as the run reads them, not as they are at its end
        args.input_digests = {path: _sha256_file(path) for path in inputs.values()}


def _file_identity(path: str):
    """The file a path names: its device and inode, so a symlink or a hard
    link is its target, or, while it does not exist, its resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)  # Path.resolve raises on a symlink loop
    return st.st_dev, st.st_ino


# -- manifest -----------------------------------------------------------------

_NON_CONFIG_KEYS = ("func", "command", "out", "log", "input_digests")


def _build_manifest(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k not in _NON_CONFIG_KEYS}
    return {
        "subcommand": args.command,
        "tool_version": __version__,
        "config": config,
        "input_digests": args.input_digests,
        "environment": _environment(getattr(args, "threads", None)),
    }


def _environment(threads: int | None) -> dict:
    """The numeric environment bit-exact replay rests on; replay ignores it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 has no dict form
        blas = {}
    outside = blas_threads()
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "core": blas_core()},
        "evaluator_threads": threads or 1,
        "blas_threads": outside,
        # score_genome runs BLAS at one thread, with or without a pool, so
        # every subcommand that scores (the ones with --threads) reports 1
        "blas_threads_in_pool": 1 if outside is not None and threads else None,
    }


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def cmd_replay(args: argparse.Namespace) -> int:
    """Rerun the manifest's subcommand on its recorded options and the live
    --out and --log, so a subcommand without --log refuses it."""
    manifest = parse_json(read_text(args.manifest, ManifestError), args.manifest,
                          ManifestError)
    if not isinstance(manifest, dict):
        raise ManifestError("manifest must be a JSON object")
    for key, kind in (("subcommand", str), ("config", dict), ("input_digests", dict)):
        if key not in manifest:
            raise ManifestError(f"manifest missing {key!r}")
        if not isinstance(manifest[key], kind):
            raise ManifestError(f"manifest {key}: must be a JSON "
                                f"{'string' if kind is str else 'object'}")
    name = manifest["subcommand"]
    if name not in _COMMANDS:
        raise ManifestError(f"manifest subcommand: must be one of "
                            f"{', '.join(_COMMANDS)}, got {json.dumps(name)}")
    for path, digest in manifest["input_digests"].items():
        try:
            actual = _sha256_file(path)
        except OSError as exc:
            raise ManifestError(f"manifest input unreadable: {exc}") from None
        if actual != digest:
            raise ManifestError(
                f"input {path} changed since the manifest was written")
    # replay `config` as a command line, so every value is typed and checked
    # as on a live run; options the subcommand has since gained take their
    # defaults, and keys it has since dropped are ignored
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    argv, positionals = [name], []
    for action in sub.choices[name]._actions:
        value = manifest["config"].get(action.dest)
        if value is None or action.dest in _NON_CONFIG_KEYS:
            continue
        if action.option_strings:
            argv.append(f"{action.option_strings[-1]}={value}")
        else:
            positionals.append(str(value))
    argv += [f"--{key}={value}" for key, value in (("out", args.out), ("log", args.log))
             if value is not None]
    if positionals:  # after "--", so a path such as "-g.json" stays a path
        argv += ["--", *positionals]
    _warn_environment_drift(manifest.get("environment"))
    return main(argv)


def _warn_environment_drift(recorded) -> None:
    """Name on stderr each field the replayed bytes rest on that changed.

    Another numpy, OpenBLAS build or OpenBLAS core can move scores in
    their last bits. A field the manifest does not record is not compared.
    """
    now = _environment(None)
    for path in (("numpy",), ("blas", "version"), ("blas", "core")):
        then, here = recorded, now
        for key in path:
            if not isinstance(then, dict) or key not in then:
                break
            then, here = then[key], here[key]
        else:
            if then != here:
                print(f"warning: manifest records {'.'.join(path)} {json.dumps(then)}, "
                      f"this run has {json.dumps(here)}; scores may differ in "
                      f"their last bits", file=sys.stderr)


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out:
        Path(args.out).write_text(text)
        manifest = _build_manifest(args)
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


def _read_genome(path: str):
    return genome_from_dict(parse_json(read_text(path, GenomeError), path, GenomeError))


def _latency_table(path: str | None, fallback_us_per_mac: float) -> LatencyTable:
    if path:
        return load_table(path, fallback_us_per_mac)
    return LatencyTable(fallback_us_per_mac=fallback_us_per_mac)


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
    score = score_genome(genome, settings, threads=args.threads)
    _emit(json.dumps(asdict(score), indent=2) + "\n", args)
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
        input_resolution=_parse_resolution(args.resolution) or GenomeSpace.input_resolution,
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
    table = _latency_table(args.latency_table, args.fallback_us_per_mac)

    def proxy_fn(genome):
        return score_genome(genome, settings)

    def latency_fn(genome):
        return estimate(compile_genome(genome), table).total_us

    archive, log = run_search(space, config, proxy_fn, latency_fn,
                              threads=args.threads,
                              progress=lambda msg: print(msg, file=sys.stderr))
    _emit(json.dumps(archive.to_json_list(), indent=2) + "\n", args)
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
    _emit(json.dumps(report, indent=2) + "\n", args)
    print(f"tau={report['tau']:.4f} rho={report['rho']:.4f} n={report['n']}",
          file=sys.stderr)
    return EXIT_OK


def cmd_latency(args: argparse.Namespace) -> int:
    genome = _read_genome(args.genome)
    table = _latency_table(args.table, args.fallback_us_per_mac)
    graph = compile_genome(genome)
    result = estimate(graph, table)
    _emit(json.dumps(asdict(result), indent=2) + "\n", args)
    print(f"total {result.total_us:.3f} us over {len(graph.layers)} layers "
          f"({result.misses} fallback)", file=sys.stderr)
    return EXIT_OK


PLOTDATA_HEADER = "depth,mean_width,score,latency"


def cmd_pareto_plotdata(args: argparse.Namespace) -> int:
    entries = parse_json(read_text(args.archive, RecordError), args.archive, RecordError)
    if not isinstance(entries, list):
        raise RecordError(f"{args.archive}: archive must be a JSON array")
    lines = [PLOTDATA_HEADER]
    for i, entry in enumerate(entries):
        where = f"{args.archive}: entry {i}"
        if not isinstance(entry, dict):
            raise RecordError(f"{where}: must be a JSON object, got {json.dumps(entry)}")
        try:
            stages = genome_from_dict(entry.get("genome")).stages
        except GenomeError as exc:
            raise RecordError(f"{where}: {exc}") from None
        score_field = "zico_bc" if entry.get("zico_bc") is not None else "score"
        score, latency = entry.get(score_field), entry.get("latency_us")
        for field, value in ((score_field, score), ("latency_us", latency)):
            # NaN fails the comparison, and so does an int too large for a float
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not abs(value) <= sys.float_info.max:
                raise RecordError(f"{where}: {field}: must be a finite number, "
                                  f"got {value!r}")
        depth = sum(s.repeats for s in stages)
        width = sum(s.repeats * s.channels for s in stages) / depth
        lines.append(f"{depth},{width!r},{score!r},{latency!r}")
    _emit("\n".join(lines) + "\n", args)
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
