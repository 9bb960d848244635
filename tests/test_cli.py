import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import genome_to_dict, random_genome, save_table
from zicobc.correlation import RecordError, load_records
from zicobc.network import compile_genome, genome_to_json
from zicobc.latency import CSV_FIELDS, LatencyTable, layer_key
from zicobc import cli
from zicobc.cli import main
from zicobc.proxy import ScoreSettings, blas_core, score_genome
from zicobc.search import GenomeSpace, SearchConfig


def run_cli(args, env_seed=None):
    """`zicobc ARGS` run in process: the exit code, then stdout and stderr
    as bytes. ZICO_BC_SEED is `env_seed` during the call, unset when None."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("ZICO_BC_SEED", None)
        if env_seed is not None:
            os.environ["ZICO_BC_SEED"] = env_seed
        code = exit_code(args)
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_module(args, env_extra):
    """`python -m zicobc.cli ARGS` in a fresh interpreter whose environment
    adds `env_extra` and lacks ZICO_BC_SEED; (exit code, stdout, stderr)."""
    env = {key: value for key, value in os.environ.items() if key != "ZICO_BC_SEED"}
    proc = subprocess.run([sys.executable, "-m", "zicobc.cli", *args],
                          capture_output=True, env={**env, **env_extra})
    return proc.returncode, proc.stdout, proc.stderr


def exit_code(argv) -> int:
    """`main(argv)` in process; any exception but argparse's exit escapes
    to the calling test."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refusing a value, or --help
        return exc.code


@pytest.fixture()
def genome_file(tmp_path):
    genome = random_genome(np.random.default_rng(0), family="resnet_like",
                           max_stages=1, max_repeats=2)
    path = tmp_path / "g.json"
    path.write_text(genome_to_json(genome))
    return path, genome


FAST = ["--batches", "2", "--batch-size", "2"]


def assert_replays(out, tmp_path, extra=()):
    """Replaying `out`'s manifest writes `out`'s bytes and a manifest whose
    config equals the original's."""
    manifest = Path(str(out) + ".manifest.json")
    replay = tmp_path / f"replay-{out.name}"
    code, _, err = run_cli(["replay", str(manifest), "--out", str(replay), *extra])
    assert code == 0, err.decode()
    assert replay.read_bytes() == out.read_bytes()
    replayed = json.loads(Path(str(replay) + ".manifest.json").read_text())
    assert replayed["config"] == json.loads(manifest.read_text())["config"]


def _stage(channels, kernel, mode, stride=1, repeats=1):
    return {"repeats": repeats, "channels": channels, "kernel": kernel,
            "conv_mode": mode, "stride": stride}


def _genome(family, stages, resolution, expansion=4):
    return {"family": family, "stages": stages, "stem_channels": 16,
            "num_classes": 4, "input_resolution": [resolution] * 2,
            "expansion": expansion}


DEPTHWISE = _genome("effnet_like", [_stage(32, 3, "depthwise", repeats=2),
                                    _stage(64, 5, "depthwise", stride=2)], 16, 2)

# genomes whose score must not depend on --threads, with extra score flags:
# 64 channels at k=5 on 8x8 run GEMMs whose bytes depend on the BLAS thread
# count under some OpenBLAS kernels (so scoring must pin BLAS whatever
# --threads is); the depthwise tap-loop input gradient, with either
# numerator; and 32 groups of 3 channels, at stride 1 and then 2
THREAD_GENOMES = {
    "regular": (_genome("resnet_like", [_stage(64, 5, "regular", repeats=2)], 8), []),
    "depthwise": (DEPTHWISE, []),
    "depthwise_signed": (DEPTHWISE, ["--stat-mode", "signed"]),
    "grouped": (_genome("resnet_like", [_stage(96, 3, "group"),
                                        _stage(96, 5, "group", stride=2)], 8), []),
}


class TestScore:
    def test_beta_changes_only_zico_bc(self, genome_file):
        path, _ = genome_file
        code0, out0, _ = run_cli(["score", str(path), "--beta", "0", "--seed", "4", *FAST])
        code1, out1, _ = run_cli(["score", str(path), "--beta", "1", "--seed", "4", *FAST])
        assert code0 == code1 == 0
        s0, s1 = json.loads(out0), json.loads(out1)
        assert s0["zico"] == s1["zico"]
        assert s0["zico_bc"] == s0["zico"]
        assert s1["zico_bc"] != s1["zico"]

    def test_byte_identical_reruns(self, genome_file):
        path, _ = genome_file
        outs = [run_cli(["score", str(path), "--seed", "9", *FAST])[1]
                for _ in range(2)]
        assert outs[0] == outs[1]

    def test_bad_env_seed_exits_2(self, genome_file):
        path, _ = genome_file
        code, out, err = run_cli(["score", str(path), *FAST],
                                 env_seed="abc")
        assert code == 2
        assert out == b""
        assert b"ZICO_BC_SEED" in err
        assert b"Traceback" not in err

    def test_bad_genome_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        obj = {"family": "resnet_like",
               "stages": [{"repeats": 0, "channels": 16, "kernel": 3,
                           "conv_mode": "regular", "stride": 1}],
               "stem_channels": 8, "num_classes": 4, "input_resolution": [8, 8]}
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(["score", str(path), *FAST])
        assert code == 2
        assert b"repeats" in err

    def test_env_seed_fallback(self, genome_file):
        path, _ = genome_file
        _, by_flag, _ = run_cli(["score", str(path), "--seed", "77", *FAST])
        _, by_env, _ = run_cli(["score", str(path), *FAST],
                               env_seed="77")
        assert by_flag == by_env

    def test_manifest_written_and_replayable(self, genome_file, tmp_path):
        path, _ = genome_file
        out1 = tmp_path / "score.json"
        code, _, _ = run_cli(["score", str(path), "--seed", "3", *FAST,
                              "--out", str(out1)])
        assert code == 0
        manifest_path = tmp_path / "score.json.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["subcommand"] == "score"
        assert manifest["config"]["seed"] == 3
        assert "command" not in manifest["config"]  # the subcommand says it once
        assert str(path) in manifest["input_digests"]
        assert_replays(out1, tmp_path)

    def test_manifest_reports_no_pool(self, genome_file, tmp_path):
        path, _ = genome_file
        environments = {}
        for threads in ("1", "2"):
            out = tmp_path / f"score-{threads}.json"
            code, _, _ = run_cli(["score", str(path), "--seed", "3", *FAST,
                                  "--threads", threads, "--out", str(out)])
            assert code == 0
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert "seed" not in manifest  # config.seed is the one replay reads
            assert manifest["config"]["threads"] == int(threads)
            environments[threads] = manifest["environment"]
        assert environments["1"]["evaluator_threads"] == 1  # no pool
        assert environments["2"]["evaluator_threads"] == 2
        for env in environments.values():
            # scoring runs BLAS at one thread, with or without a pool
            if env["blas_threads"] is not None:
                assert env["blas_threads_in_pool"] == 1

    def test_manifest_records_blas_core(self, genome_file, tmp_path):
        if blas_core() is None:
            pytest.skip("numpy's bundled OpenBLAS is absent")
        path, _ = genome_file
        out = tmp_path / "score.json"
        # OpenBLAS reads its core type when it loads: a fresh interpreter
        code, _, err = run_module(["score", str(path), *FAST, "--out", str(out)],
                                  {"OPENBLAS_CORETYPE": "Haswell"})
        assert code == 0, err.decode()
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["environment"]["blas"]["core"] == "Haswell"

    def test_replay_warns_of_another_core(self, genome_file, tmp_path):
        path, _ = genome_file
        out = tmp_path / "score.json"
        assert run_cli(["score", str(path), *FAST, "--out", str(out)])[0] == 0
        manifest_path = Path(str(out) + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        manifest["environment"]["blas"]["core"] = "Prescott"
        manifest_path.write_text(json.dumps(manifest))
        replay = tmp_path / "replay.json"
        code, _, err = run_cli(["replay", str(manifest_path), "--out", str(replay)])
        assert code == 0, err.decode()
        assert replay.read_bytes() == out.read_bytes()
        warnings = [line for line in err.decode().splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and "blas.core \"Prescott\"" in warnings[0], warnings

    @pytest.mark.parametrize("threads", [2, None])
    def test_older_manifest_replays(self, genome_file, tmp_path, threads):
        # one from when score still took --threads, one from when it did not
        path, _ = genome_file
        out = tmp_path / "score.json"
        code, _, _ = run_cli(["score", str(path), "--seed", "3", *FAST,
                              "--out", str(out)])
        assert code == 0
        config = {"command": "score", "genome": str(path), "beta": 1.0,
                  "batches": 2, "batch_size": 2, "stat_mode": "abs",
                  "resolution": None, "seed": 3}
        if threads is not None:
            config["threads"] = threads
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps({
            "subcommand": "score", "tool_version": "0.0", "config": config,
            "input_digests": {str(path): hashlib.sha256(path.read_bytes()).hexdigest()},
        }))
        replay = tmp_path / "replay.json"
        code, _, err = run_cli(["replay", str(old), "--out", str(replay)])
        assert code == 0, err.decode()
        assert replay.read_bytes() == out.read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        for case, (genome, extra) in THREAD_GENOMES.items():
            path = tmp_path / f"{case}.json"
            path.write_text(json.dumps(genome))
            outs = [run_cli(["score", str(path), "--seed", "1", "--threads", t,
                             "--batches", "2", "--batch-size", "3", *extra])
                    for t in ("1", "2", "3", "8")]
            assert outs[0][0] == 0, (case, outs[0][2])
            assert outs[0][1] == outs[1][1] == outs[2][1] == outs[3][1], case

    def test_replay_keeps_a_dash_path_positional(self, genome_file, tmp_path, monkeypatch):
        path, _ = genome_file
        monkeypatch.chdir(tmp_path)
        Path("-g.json").write_bytes(path.read_bytes())
        assert main(["score", *FAST, "--out", "s.json", "--", "-g.json"]) == 0
        assert main(["replay", "s.json.manifest.json", "--out", "r.json"]) == 0
        assert Path("r.json").read_bytes() == Path("s.json").read_bytes()

    def test_replay_detects_changed_input(self, genome_file, tmp_path):
        path, genome = genome_file
        out1 = tmp_path / "score.json"
        run_cli(["score", str(path), "--seed", "3", *FAST, "--out", str(out1)])
        path.write_text(genome_to_json(genome) + "\n")  # different bytes
        code, _, err = run_cli(["replay", str(tmp_path / "score.json.manifest.json")])
        assert code == 2
        assert b"changed" in err

    def test_manifest_digests_the_input_as_the_run_read_it(self, genome_file, tmp_path,
                                                           monkeypatch):
        path, genome = genome_file
        read = hashlib.sha256(path.read_bytes()).hexdigest()

        def rewriting(*args, **kwargs):  # the genome changes after it was read
            path.write_text(genome_to_json(genome) + "\n")
            return score_genome(*args, **kwargs)

        monkeypatch.setattr(cli, "score_genome", rewriting)
        out = tmp_path / "score.json"
        code, _, err = run_cli(["score", str(path), *FAST, "--out", str(out)])
        assert code == 0, err.decode()
        manifest = Path(str(out) + ".manifest.json")
        assert json.loads(manifest.read_text())["input_digests"] == {str(path): read}
        code, _, err = run_cli(["replay", str(manifest)])
        assert code == 2
        assert b"changed" in err


SEARCH_FAST = ["search", "--family", "resnet_like", "--strides", "1",
               "--channels", "16,32", "--repeats", "1,2", "--kernels", "3",
               "--conv-modes", "regular", "--resolution", "8x8",
               "--stem-channels", "8", "--num-classes", "4",
               "--population", "6", "--generations", "2", *FAST]


# (stage-0 fields, genome fields) overwritten in the "{genome}" file to give
# the named placeholder
BAD_GENOMES = {
    "{repeats_float}": ({"repeats": 1.9}, {}),
    "{repeats_text}": ({"repeats": "x"}, {}),
    "{stride_bool}": ({"stride": True}, {}),
    "{resolution_3d}": ({}, {"input_resolution": [8, 8, 7]}),
    "{resnet_expansion_2}": ({}, {"expansion": 2}),
    "{stage_number}": ({}, {"stages": [5]}),
    "{stages_text}": ({}, {"stages": "ab"}),
    "{resolution_number}": ({}, {"input_resolution": 8}),
    "{unknown_genome_key}": ({}, {"expanson": 2}),
    "{unknown_stage_key}": ({"strde": 1}, {}),
    "{channels_huge}": ({"channels": 8 * 10 ** 200}, {}),
    "{num_classes_huge}": ({}, {"num_classes": 10 ** 300}),
    "{conv_mode_foo}": ({"conv_mode": "foo"}, {}),
}

# (stage-0 fields, entry fields) overwritten in a one-entry archive of the
# "{genome}" file, or a function of that entry giving the entry, to give the
# named placeholder
BAD_ARCHIVES = {
    "{archive_nan_score}": ({}, {"zico_bc": math.nan}),
    "{archive_text_score}": ({}, {"zico_bc": None, "score": "8.0"}),
    "{archive_inf_latency}": ({}, {"latency_us": math.inf}),
    "{archive_text_channels}": ({"channels": "32"}, {}),
    "{archive_bool_repeats}": ({"repeats": True}, {}),
    "{archive_zero_repeats}": ({"repeats": 0}, {}),
    "{archive_unknown_stage_key}": ({"strde": 1}, {}),
    "{archive_channels_12}": ({"channels": 12}, {}),
    "{archive_no_family}": lambda entry: {
        **entry, "genome": {k: v for k, v in entry["genome"].items() if k != "family"}},
    "{archive_entry_number}": lambda entry: 5,
    "{archive_stages_text}": lambda entry: {
        **entry, "genome": {**entry["genome"], "stages": "ab"}},
    "{archive_huge_latency}": ({}, {"latency_us": 10 ** 400}),
    "{archive_huge_score}": ({}, {"zico_bc": 10 ** 400}),
}

# files whose text does not decode as JSON, by placeholder: a function of
# the "{genome}" file's bytes and the first two lines of a records file of
# it gives the file's bytes. Python refuses an integer of more than 4300
# digits, so json.dumps cannot write one and it is spliced in as text.
DIGITS_5000 = b"9" * 5000
NOT_JSON = {
    "{genome_bad_json}": lambda genome, lines: b"{nope",
    "{archive_object}": lambda genome, lines: b'{"a": 1}',
    "{genome_deep}": lambda genome, lines: b"[" * 100000,
    "{genome_big_int}": lambda genome, lines: genome.replace(
        b'"family":"resnet_like"', b'"family":' + DIGITS_5000),
    "{records_big_int}": lambda genome, lines: lines[0] + lines[1].replace(
        b'"test_accuracy": 51.0', b'"test_accuracy": ' + DIGITS_5000),
}

# the second line of a records file of the "{genome}" file to give the named
# placeholder (the valid record updated by a dict, or by the dict a function
# makes of the valid genome, else the value itself), and what the error names
BAD_RECORDS = {
    "{accuracy_bool}": ({"test_accuracy": True}, b":2: test_accuracy: "),
    "{accuracy_text_number}": ({"test_accuracy": "85"}, b":2: test_accuracy: "),
    "{accuracy_text}": ({"test_accuracy": "abc"}, b":2: test_accuracy: "),
    "{accuracy_list}": ({"test_accuracy": [1]}, b":2: test_accuracy: "),
    "{record_list}": ([1], b":2: record must be a JSON object"),
    "{record_text}": ("r1", b":2: record must be a JSON object"),
    "{id_null}": ({"id": None}, b":2: id: must be a JSON string, got null"),
    "{id_number}": ({"id": 7}, b":2: id: must be a JSON string, got 7"),
    "{id_object}": ({"id": {"k": 1}}, b":2: id: must be a JSON string, got {"),
    "{genome_number}": ({"genome": 5}, b":2: genome: must be a JSON object, got 5"),
    "{genome_stages_text}": (lambda genome: {"genome": {**genome, "stages": "ab"}},
                             b":2: stages: must be a JSON array"),
    "{genome_unknown_key}": (lambda genome: {"genome": {**genome, "expanson": 2}},
                             b":2: expanson: unknown field"),
}

# (CLI arguments, "{genome}" standing for the genome file and "{records}" for
# a records file of it; field the error names)
BAD_INPUT_CASES = [
    (["score", "{genome}", "--beta", "-1"], b"beta"),
    (["score", "{genome}", "--beta", "nan"], b"beta"),
    (["score", "{genome}", "--beta", "inf"], b"beta"),
    # finite, but its product with the genome's penalty overflows
    (["score", "{genome}", "--beta", "1e308", *FAST], b"beta 1e+308, penalty"),
    (["correlate", "--records", "{records}", "--beta", "1e308", *FAST],
     b"first failure, record 'r0': zico_bc = zico - beta * penalty is not finite"),
    (["latency", "{genome}", "--fallback-us-per-mac", "nan"], b"fallback_us_per_mac"),
    ([*SEARCH_FAST, "--batches", "1"], b"batches"),
    ([*SEARCH_FAST, "--batch-size", "0"], b"batch_size"),
    ([*SEARCH_FAST, "--beta", "nan"], b"beta"),
    ([*SEARCH_FAST, "--fallback-us-per-mac", "nan"], b"fallback_us_per_mac"),
    ([*SEARCH_FAST, "--latency-ceiling-us", "nan"], b"latency_ceiling_us"),
    ([*SEARCH_FAST, "--family", "effnet_like", "--expansions", "3"], b"expansion"),
    ([*SEARCH_FAST, "--expansions", "2"], b"expansion_choices"),
    ([*SEARCH_FAST, "--stem-channels", "12"], b"stem_channels"),
    ([*SEARCH_FAST, "--num-classes", "1"], b"num_classes"),
    ([*SEARCH_FAST, "--strides", ",".join(["1"] * 9)], b"stages"),
    ([*SEARCH_FAST, "--conv-modes", "regular,group", "--channels", "16,24"],
     b"conv_modes"),
    ([*SEARCH_FAST, "--conv-modes", "regular,depthwise"], b"conv_modes"),
    ([*SEARCH_FAST, "--conv-modes", "foo"], b"conv_modes: unknown mode 'foo'"),
    ([*SEARCH_FAST, "--channels", "16,16,32"], b"channel_choices: 16 is listed twice"),
    ([*SEARCH_FAST, "--channels", "16,a"],
     b"--channels: expected comma-separated integers, got '16,a'"),
    ([*SEARCH_FAST, "--channels", ","], b"--channels: empty list"),
    *((["score", "{genome}", "--resolution", text, *FAST],
       f"resolution must look like HxW, got '{text}'".encode())
      for text in ("8x", "8xa", "8x8x8")),
    ([*SEARCH_FAST, "--threads", "0"], b"--threads"),
    (["score", "{genome}", "--threads", "0"], b"--threads"),
    (["correlate", "--records", "{records}", "--resolution", "0x0", *FAST],
     b"resolution"),
    (["score", "{repeats_float}", *FAST], b"stages[0].repeats"),
    (["latency", "{repeats_text}"], b"stages[0].repeats"),
    (["score", "{stride_bool}", *FAST], b"stages[0].stride"),
    (["latency", "{resolution_3d}"], b"input_resolution"),
    (["latency", "{conv_mode_foo}"], b"stages[0].conv_mode: unknown mode 'foo'"),
    (["score", "{resnet_expansion_2}", *FAST], b"expansion"),
    (["score", "{stage_number}", *FAST], b"stages[0]: must be a JSON object, got 5"),
    (["latency", "{stages_text}"], b'stages: must be a JSON array, got "ab"'),
    (["score", "{resolution_number}", *FAST], b"input_resolution: must be a JSON array"),
    (["latency", "{unknown_genome_key}"], b"expanson: unknown field"),
    (["score", "{unknown_stage_key}", *FAST], b"stages[0].strde: unknown field"),
    (["pareto-plotdata", "{archive_object}"], b"archive_object: archive must be a JSON array"),
    (["pareto-plotdata", "{archive_nan_score}"], b"entry 0: zico_bc"),
    (["pareto-plotdata", "{archive_text_score}"], b"entry 0: score"),
    (["pareto-plotdata", "{archive_inf_latency}"], b"entry 0: latency_us"),
    (["pareto-plotdata", "{archive_text_channels}"], b"entry 0: stages[0].channels"),
    (["pareto-plotdata", "{archive_bool_repeats}"], b"entry 0: stages[0].repeats"),
    (["pareto-plotdata", "{archive_zero_repeats}"], b"entry 0: stages[0].repeats"),
    (["pareto-plotdata", "{archive_unknown_stage_key}"],
     b"entry 0: stages[0].strde: unknown field"),
    (["pareto-plotdata", "{archive_channels_12}"], b"entry 0: stages[0].channels"),
    (["pareto-plotdata", "{archive_no_family}"], b"entry 0: family: missing field"),
    (["pareto-plotdata", "{archive_entry_number}"],
     b"entry 0: must be a JSON object, got 5"),
    (["pareto-plotdata", "{archive_stages_text}"],
     b'entry 0: stages: must be a JSON array, got "ab"'),
    (["pareto-plotdata", "{archive_huge_latency}"],
     b"entry 0: latency_us: must be a finite number, got 1000"),
    (["pareto-plotdata", "{archive_huge_score}"],
     b"entry 0: zico_bc: must be a finite number, got 1000"),
    (["latency", "{channels_huge}"], b"stages[0].channels: must be at most 65536, got 8000"),
    (["latency", "{num_classes_huge}"], b"num_classes: must be at most 65536"),
    (["score", "{genome}", "--resolution", "65544x8", *FAST],
     b"input_resolution[0]: must be at most 65536"),
    ([*SEARCH_FAST, "--channels", "16,65544"], b"stages[0].channels: must be at most"),
    ([*SEARCH_FAST, "--stem-channels", "65544"], b"stem_channels: must be at most"),
    ([*SEARCH_FAST, "--resolution", "8x65544"], b"input_resolution[1]: must be at most"),
    (["latency", "{genome_bad_json}"], b"genome_bad_json: invalid JSON: Expecting"),
    (["latency", "{genome_deep}"], b"genome_deep: invalid JSON: maximum recursion depth"),
    (["latency", "{genome_big_int}"], b"genome_big_int: invalid JSON: Exceeds the limit"),
    (["correlate", "--records", "{records_big_int}", *FAST],
     b"records_big_int:2: invalid JSON: Exceeds the limit"),
    *((["correlate", "--records", name, *FAST], field)
      for name, (_, field) in BAD_RECORDS.items()),
    (["score", "{genome_not_utf8}", *FAST], b"genome_not_utf8: 'utf-8' codec"),
    (["correlate", "--records", "{records_not_utf8}", *FAST],
     b"records_not_utf8: 'utf-8' codec"),
    (["pareto-plotdata", "{archive_not_utf8}"], b"archive_not_utf8: 'utf-8' codec"),
    (["latency", "{genome}", "--table", "{table_not_utf8}"], b"table_not_utf8: 'utf-8' codec"),
]

# input files whose bytes are not UTF-8, one for each reader
NOT_UTF8 = ("{genome_not_utf8}", "{records_not_utf8}", "{archive_not_utf8}",
            "{table_not_utf8}")


# a score manifest's config updated by a dict, or the manifest replaced by
# a function of it (the file's bytes, when it gives bytes), to give the named
# case; and what the error names (the genome positional has no flag, so that
# error names the path it gives)
BAD_MANIFESTS = {
    "threads_text": ({"threads": "x"}, b"argument --threads: invalid int value: 'x'"),
    "seed_text": ({"seed": "abc"}, b"argument --seed: invalid int value: 'abc'"),
    "batches_float": ({"batches": 2.5}, b"argument --batches: invalid int value: '2.5'"),
    "threads_bool": ({"threads": True}, b"argument --threads: invalid int value: 'True'"),
    "genome_number": ({"genome": 5}, b"No such file or directory: '5'"),
    "manifest_number": (lambda m: 5, b"manifest must be a JSON object"),
    "config_list": (lambda m: {**m, "config": [1]},
                    b"manifest config: must be a JSON object"),
    "digests_list": (lambda m: {**m, "input_digests": [1]},
                     b"manifest input_digests: must be a JSON object"),
    "subcommand_list": (lambda m: {**m, "subcommand": ["score"]},
                        b"manifest subcommand: must be a JSON string"),
    "not_utf8": (lambda m: b"\xff\xfe" + json.dumps(m).encode(),
                 b"not_utf8.manifest.json: 'utf-8' codec can't decode"),
    # the genome file digested under a name that no longer exists
    "input_deleted": (lambda m: {**m, "input_digests": {
        path + ".deleted": digest for path, digest in m["input_digests"].items()}},
        b"manifest input unreadable: [Errno 2] No such file or directory"),
}


class TestValidation:
    def test_bad_input_exits_2_naming_field(self, genome_file, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.delenv("ZICO_BC_SEED", raising=False)
        path, genome = genome_file
        files = {"{genome}": str(path)}
        records = tmp_path / "records.jsonl"
        records.write_text("".join(
            json.dumps({"id": f"r{i}", "genome": genome_to_dict(genome),
                        "test_accuracy": 50.0 + i}) + "\n" for i in range(3)))
        files["{records}"] = str(records)
        for name, (gene_fields, fields) in BAD_GENOMES.items():
            obj = genome_to_dict(genome)
            obj["stages"][0].update(gene_fields)
            obj.update(fields)
            bad = tmp_path / f"{name.strip('{}')}.json"
            bad.write_text(json.dumps(obj))
            files[name] = str(bad)
        for name, value in BAD_ARCHIVES.items():
            entry = {"genome": genome_to_dict(genome), "zico_bc": 8.0,
                     "score": 8.0, "latency_us": 123.5}
            if callable(value):
                entry = value(entry)
            else:
                entry["genome"]["stages"][0].update(value[0])
                entry.update(value[1])
            bad = tmp_path / f"{name.strip('{}')}.json"
            bad.write_text(json.dumps([entry]))
            files[name] = str(bad)
        for name, (value, _) in BAD_RECORDS.items():
            first, second = records.read_text().splitlines(keepends=True)[:2]
            record = json.loads(second)
            if callable(value):
                value = value(record["genome"])
            if isinstance(value, dict):
                value = {**record, **value}
            bad = tmp_path / f"{name.strip('{}')}.jsonl"
            bad.write_text(first + json.dumps(value) + "\n")
            files[name] = str(bad)
        for name in NOT_UTF8:
            bad = tmp_path / name.strip("{}")
            bad.write_bytes(b"\xff\xfe{}")
            files[name] = str(bad)
        lines = records.read_bytes().splitlines(keepends=True)
        for name, text in NOT_JSON.items():
            bad = tmp_path / name.strip("{}")
            bad.write_bytes(text(path.read_bytes(), lines))
            assert bad.read_bytes().count(DIGITS_5000) == ("big_int" in name), name
            files[name] = str(bad)
        for args, field in BAD_INPUT_CASES:
            args = [files.get(a, a) for a in args]
            code = exit_code(args)
            out, err = capsys.readouterr()
            assert code == 2, (args, err)
            assert out == "", args
            assert field.decode() in err, (args, err)
            # rejected before anything is scored or priced
            assert "generation" not in err, args

    def test_bad_manifest_exits_2_naming_key(self, genome_file, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.delenv("ZICO_BC_SEED", raising=False)
        path, _ = genome_file
        out = tmp_path / "score.json"
        assert exit_code(["score", str(path), *FAST, "--out", str(out)]) == 0
        capsys.readouterr()  # drop the score run's summary line
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        for name, (change, field) in BAD_MANIFESTS.items():
            if callable(change):
                bad = change(manifest)
            else:
                bad = {**manifest, "config": {**manifest["config"], **change}}
            bad_path = tmp_path / f"{name}.manifest.json"
            bad_path.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
            code = exit_code(["replay", str(bad_path)])
            stdout, err = capsys.readouterr()
            assert code == 2, (name, err)
            assert stdout == "", name
            assert field.decode() in err, (name, err)

    def test_missing_manifest_exits_2_naming_it(self, tmp_path):
        code, stdout, err = run_cli(["replay", str(tmp_path / "none.manifest.json")])
        assert code == 2, err.decode()
        assert stdout == b""
        assert b"No such file or directory" in err and b"none.manifest.json" in err
        assert b"Traceback" not in err


class RuntimeSurprise(RuntimeError):
    """A runtime failure that cli.py has never heard of."""


class TestFailureExitCodes:
    @pytest.mark.parametrize("failure", [RuntimeSurprise, MemoryError])
    def test_runtime_or_memory_error_exits_3_in_one_line(self, failure, genome_file,
                                                          monkeypatch):
        def fail(*args, **kwargs):
            raise failure("Unable to allocate 288. GiB")

        monkeypatch.setattr(cli, "score_genome", fail)
        path, _ = genome_file
        code, out, err = run_cli(["score", str(path), *FAST])
        assert code == 3
        assert out == b""
        assert err == b"error: Unable to allocate 288. GiB\n"


def counting_scores(monkeypatch) -> list:
    """Make cli.score_genome count its calls into the returned list."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return score_genome(*args, **kwargs)

    monkeypatch.setattr(cli, "score_genome", counting)
    return calls


# (flag, the path it is given, relative to the test's directory); loop.json
# and m.json.manifest.json are symlink loops, which Path.exists and
# Path.is_dir both call absent
UNWRITABLE = [("--log", "missing/log.jsonl"), ("--out", "missing/a.json"),
              ("--log", "."), ("--out", "."), ("--out", "a.json/b.json"),
              ("--log", "loop.json"), ("--out", "loop.json"), ("--out", "m.json")]


class TestUnwritableOutput:
    @pytest.mark.parametrize("flag, target", UNWRITABLE)
    def test_search_refuses_before_scoring(self, flag, target, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("a.json").write_text("a file, so no directory\n")
        Path("loop.json").symlink_to("loop.json")
        Path("m.json.manifest.json").symlink_to("m.json.manifest.json")
        before = sorted(p.name for p in tmp_path.iterdir())
        paths = {"--out": "out.json", "--log": "log.jsonl", flag: target}
        calls = counting_scores(monkeypatch)
        code, out, err = run_cli([*SEARCH_FAST, "--out", paths["--out"],
                                  "--log", paths["--log"]])
        assert code == 2, err.decode()
        assert err.startswith(f"error: {flag}: ".encode())
        assert out == b"" and calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_score_refuses_a_manifest_path_that_is_a_directory(self, genome_file,
                                                                tmp_path, monkeypatch):
        path, _ = genome_file
        monkeypatch.chdir(tmp_path)
        Path("a.json.manifest.json").mkdir()
        calls = counting_scores(monkeypatch)
        code, out, err = run_cli(["score", str(path), *FAST, "--out", "a.json"])
        assert code == 2, err.decode()
        assert err == b"error: --out: a.json.manifest.json is a directory\n"
        assert out == b"" and calls == [] and not Path("a.json").exists()

    def test_replay_refuses_before_scoring(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli([*SEARCH_FAST, "--out", "a.json"])[0] == 0
        calls = counting_scores(monkeypatch)
        code, out, err = run_cli(["replay", "a.json.manifest.json", "--out", "b.json",
                                  "--log", "missing/log.jsonl"])
        assert code == 2, err.decode()
        assert err.startswith(b"error: --log: ")
        assert out == b"" and calls == [] and not Path("b.json").exists()


# a command line, with paths relative to the test's directory, one of whose
# outputs names an input or another output; and the flag refused. g.json is
# a genome, link.json a symlink to it and hard.json a hard link, t.csv a
# latency table, r.jsonl a records file, a.json an archive, and p.json the
# --out of a score run.
OVERLAPS = {
    "score_out_genome": (["score", "g.json", *FAST, "--out", "g.json"], "--out"),
    "latency_out_table": (["latency", "g.json", "--table", "t.csv", "--out", "t.csv"],
                          "--out"),
    "correlate_out_records": (["correlate", "--records", "r.jsonl", *FAST,
                               "--out", "r.jsonl"], "--out"),
    "plotdata_out_archive": (["pareto-plotdata", "a.json", "--out", "a.json"], "--out"),
    "search_log_table": ([*SEARCH_FAST, "--latency-table", "t.csv", "--log", "t.csv"],
                         "--log"),
    "search_log_out": ([*SEARCH_FAST, "--out", "s.json", "--log", "s.json"], "--log"),
    "search_log_manifest": ([*SEARCH_FAST, "--out", "s.json",
                             "--log", "s.json.manifest.json"], "--log"),
    "out_symlink_to_genome": (["score", "g.json", *FAST, "--out", "link.json"], "--out"),
    "out_hard_link_to_genome": (["score", "g.json", *FAST, "--out", "hard.json"], "--out"),
    "replay_in_place": (["replay", "p.json.manifest.json", "--out", "p.json"], "--out"),
}


class TestOutputsNameNoInput:
    @pytest.mark.parametrize("case", OVERLAPS)
    def test_refused_before_any_work(self, case, genome_file, tmp_path, monkeypatch):
        path, genome = genome_file
        monkeypatch.chdir(tmp_path)
        assert path == tmp_path / "g.json"
        Path("link.json").symlink_to("g.json")
        os.link("g.json", "hard.json")
        save_table(LatencyTable(entries={layer_key(compile_genome(genome).layers[0]): 2.5}),
                   Path("t.csv"))
        Path("r.jsonl").write_text("".join(
            json.dumps({"id": f"r{i}", "genome": genome_to_dict(genome),
                        "test_accuracy": 50.0 + i}) + "\n" for i in range(3)))
        Path("a.json").write_text(json.dumps([{"genome": genome_to_dict(genome),
                                               "zico_bc": 8.0, "latency_us": 123.5}]))
        assert run_cli(["score", "g.json", *FAST, "--out", "p.json"])[0] == 0
        before = {p.name: (p.is_symlink(), p.read_bytes()) for p in tmp_path.iterdir()}
        calls = counting_scores(monkeypatch)
        argv, flag = OVERLAPS[case]
        code, out, err = run_cli(argv)
        assert code == 2, err.decode()
        assert err.startswith(f"error: {flag}: ".encode()) and b"would overwrite" in err
        assert out == b"" and calls == []
        assert {p.name: (p.is_symlink(), p.read_bytes()) for p in tmp_path.iterdir()} \
            == before


# a live command line given after "replay {manifest}" of a score run, and
# what the refusal names: replay takes no option but --out and --log, and
# passes those on to the manifest's subcommand, so argparse refuses the rest
# and nothing given live is dropped
LIVE_WITH_MANIFEST = {
    "option": (["--beta", "5"], [b"unrecognized arguments: --beta 5"]),
    "option_at_default": (["--beta", "1.0"], [b"unrecognized arguments: --beta 1.0"]),
    "options_and_positional": (["{other}", "--seed", "99", *FAST],
                               [b"other.json --seed 99 --batches 2 --batch-size 2"]),
    "positional": (["{other}"], [b"unrecognized arguments: ", b"other.json"]),
    "subcommand": (["latency"], [b"unrecognized arguments: latency"]),
    "log_on_score": (["--log", "{log}"], [b"unrecognized arguments: --log="]),
}


class TestReplayRefusals:
    @pytest.mark.parametrize("case", LIVE_WITH_MANIFEST)
    def test_live_input_replay_would_drop_exits_2(self, case, genome_file, tmp_path):
        path, _ = genome_file
        out = tmp_path / "score.json"
        assert run_cli(["score", str(path), *FAST, "--out", str(out)])[0] == 0
        other = tmp_path / "other.json"
        other.write_bytes(path.read_bytes())
        log = tmp_path / "replay.jsonl"
        live, named = LIVE_WITH_MANIFEST[case]
        replay = tmp_path / "replay.json"
        live = [{"{other}": str(other), "{log}": str(log)}.get(a, a) for a in live]
        code, stdout, err = run_cli(["replay", str(out) + ".manifest.json",
                                     "--out", str(replay), *live])
        assert code == 2, err.decode()
        assert stdout == b"" and not replay.exists() and not log.exists()
        assert all(name in err for name in named), err.decode()
        assert b"Traceback" not in err

    def test_flag_given_at_its_default_exits_2(self, genome_file, tmp_path):
        # 0.001 is latency's default, so telling a live flag from an absent
        # one by its value would drop it and replay the recorded 0.002
        path, _ = genome_file
        out = tmp_path / "l.json"
        assert run_cli(["latency", str(path), "--fallback-us-per-mac", "0.002",
                        "--out", str(out)])[0] == 0
        replay = tmp_path / "replay.json"
        code, stdout, err = run_cli(["replay", str(out) + ".manifest.json",
                                     "--fallback-us-per-mac", "0.001",
                                     "--out", str(replay)])
        assert code == 2, err.decode()
        assert stdout == b"" and not replay.exists()
        assert b"unrecognized arguments: --fallback-us-per-mac 0.001" in err
        assert b"Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["replay", "foo"])
    def test_manifest_subcommand_must_be_replayable(self, subcommand, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"subcommand": subcommand, "config": {},
                                        "input_digests": {}}))
        code, stdout, err = run_cli(["replay", str(manifest)])
        assert code == 2, err.decode()
        assert stdout == b""
        assert b"manifest subcommand: must be one of score, search, correlate, " \
               b"latency, pareto-plotdata, got " + json.dumps(subcommand).encode() in err
        assert b"Traceback" not in err


# One mutation of a JSON input file is one of the edits below, or one of
# the odd numbers written over a number in it. A value set or added is
# drawn from the odd numbers and the values of other JSON types. No subcommand that
# scores is among them, since a manifest that lost its config would run a
# default search for hours. 2**1024 is the least integer too large for a
# float, and BIG stands for an integer of 5000 digits, which json.dumps
# cannot write. 0 written over a manifest's fallback_us_per_mac is what
# reaches replay's exit 3.
BIG = "\0big"
EDITS = ["drop", "add", "set", "truncate", "not_utf8"]
ODD_NUMBERS = [math.nan, math.inf, -math.inf, 1e308, -1e308, 2 ** 1024, 10 ** 400,
               8 * 10 ** 200, BIG, 0, -1, True, False]
WRONG_TYPES = [None, "", "x", "-g.json", "--beta", "/", "latency", "pareto-plotdata",
               "replay", [], [1], {}, {"a": 1}]
MANIFEST_KEYS = st.sampled_from(["foo", "subcommand", "config", "genome", "table",
                                 "fallback_us_per_mac", "seed", "threads", "log"])
# every key of a genome, an archive entry and a record, and one of none
RECORD_KEYS = st.sampled_from([
    "foo", "family", "stages", "repeats", "channels", "kernel", "conv_mode", "stride",
    "stem_channels", "num_classes", "input_resolution", "expansion", "genome",
    "zico_bc", "score", "latency_us", "id", "test_accuracy"])
# what one mutation may put into a latency table's cell
ODD_CELLS = st.sampled_from([
    "", "x", "nan", "inf", "-inf", "1e308", "-1", "0", "3.5", "true", "9" * 5000,
    "1" + "0" * 400, '"', "conv", "dense", " 8"])


def spoiled(data, text: bytes, edit: str) -> bytes:
    """`text` truncated, or with one byte made 0xff so it is no longer UTF-8."""
    at = data.draw(st.integers(0, len(text) - 1))
    if edit == "truncate":
        return text[:at]
    return text[:at] + b"\xff" + text[at + 1:]


def node_paths(node, path=()):
    """The path (a tuple of keys and indices) of every node inside `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated_json(data, doc, keys) -> bytes:
    """The JSON bytes of `doc` after one drawn mutation: a node dropped, a
    key (drawn from `keys`) or an item added, a node given an odd value, a
    number made odd, or the text spoiled."""
    change = data.draw(st.sampled_from(EDITS + ODD_NUMBERS))
    if change in ("truncate", "not_utf8"):
        return spoiled(data, json.dumps(doc).encode(), change)
    doc = copy.deepcopy(doc)
    paths = list(node_paths(doc))
    if change == "add":
        paths = [()] + [p for p in paths if isinstance(lookup(doc, p), (dict, list))]
    elif change not in ("drop", "set"):
        paths = [p for p in paths if isinstance(lookup(doc, p), (int, float))]
    path = data.draw(st.sampled_from(paths))
    node = lookup(doc, path[:-1]) if path else doc
    if change == "drop":
        del node[path[-1]]
    elif change == "add":
        value = data.draw(st.sampled_from(WRONG_TYPES + ODD_NUMBERS))
        target = lookup(doc, path)
        if isinstance(target, list):
            target.append(value)
        else:
            target[data.draw(keys)] = value
    else:
        node[path[-1]] = data.draw(st.sampled_from(WRONG_TYPES + ODD_NUMBERS)) \
            if change == "set" else change
    return json.dumps(doc).encode().replace(json.dumps(BIG).encode(), DIGITS_5000)


def mutated_records(data, records: list[dict]) -> bytes:
    """A records file of `records` with one of them mutated as by
    `mutated_json`, dropped or repeated, each line ended by a drawn line end."""
    lines = [json.dumps(record).encode() for record in records]
    at = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["mutate", "drop", "repeat"]))
    if kind == "mutate":
        lines[at] = mutated_json(data, records[at], RECORD_KEYS)
    elif kind == "drop":
        del lines[at]
    else:
        lines.insert(at, lines[at])
    end = data.draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return b"".join(line + end for line in lines)


def mutated_table(data, rows: list[list[str]]) -> bytes:
    """The CSV bytes of `rows` after one drawn mutation: a cell given an odd
    value, dropped or added, a row dropped or repeated, or the text spoiled."""
    kind = data.draw(st.sampled_from(["set", "drop_cell", "add_cell", "drop_row",
                                      "repeat_row", "truncate", "not_utf8"]))
    rows = copy.deepcopy(rows)
    at = data.draw(st.integers(0, len(rows) - 1))
    col = data.draw(st.integers(0, len(rows[at]) - 1))
    if kind == "set":
        rows[at][col] = data.draw(ODD_CELLS)
    elif kind == "drop_cell":
        del rows[at][col]
    elif kind == "add_cell":
        rows[at].insert(col, data.draw(ODD_CELLS))
    elif kind == "drop_row":
        del rows[at]
    elif kind == "repeat_row":
        rows.insert(at, rows[at])
    text = "".join(",".join(row) + "\n" for row in rows).encode()
    return spoiled(data, text, kind) if kind in ("truncate", "not_utf8") else text


def run_main(argv) -> tuple[int, str]:
    """`main(argv)` in process: its exit code and its stderr."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = exit_code(argv)
    event(f"exit {code}")
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def latency_manifest(tmp_path_factory):
    work = tmp_path_factory.mktemp("replay")
    genome = work / "g.json"
    genome.write_text(genome_to_json(random_genome(np.random.default_rng(0), max_stages=1)))
    out = work / "l.json"
    with redirect_stderr(io.StringIO()):
        assert main(["latency", str(genome), "--fallback-us-per-mac", "0.002",
                     "--out", str(out)]) == 0
    return work, json.loads(Path(str(out) + ".manifest.json").read_text())


class TestReplayProperty:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_manifest_exits_0_2_or_3(self, latency_manifest, data):
        # exit 3 is a latency estimate with no table entry and no fallback
        work, manifest = latency_manifest
        path = work / "mutated.manifest.json"
        path.write_bytes(mutated_json(data, manifest, MANIFEST_KEYS))
        code, err = run_main(["replay", str(path)])
        assert code in (0, 2, 3), err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A work directory holding a valid genome file, and a valid genome,
    archive, list of records and latency table (as CSV rows) to mutate."""
    work = tmp_path_factory.mktemp("readers")
    rng = np.random.default_rng(3)
    genome = random_genome(rng)
    (work / "g.json").write_text(genome_to_json(genome))
    entries = {layer_key(layer): 2.5 for layer in compile_genome(genome).layers}
    return work, {
        "genome": genome_to_dict(genome),
        "archive": [{"genome": genome_to_dict(genome), "zico": 9.5, "penalty": 1.5,
                     "zico_bc": 8.0, "score": 8.0, "latency_us": 123.5}],
        "records": [{"id": f"r{i}", "genome": genome_to_dict(random_genome(rng)),
                     "test_accuracy": 50.0 + i} for i in range(3)],
        "table": [list(CSV_FIELDS)] + [[*map(str, key), repr(us)]
                                       for key, us in sorted(entries.items())],
    }


class TestReaderProperties:
    """Each input format, mutated once, is read to exit 0 or to exit 2 with
    an error message, and no exception escapes; a message about an archive
    or a table starts with its path."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_genome_exits_0_or_2(self, valid_inputs, data):
        work, valid = valid_inputs
        path = work / "mutated.json"
        path.write_bytes(mutated_json(data, valid["genome"], RECORD_KEYS))
        code, err = run_main(["latency", str(path)])
        assert code == 0 or code == 2 and err.startswith("error: "), err

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_archive_exits_0_or_2(self, valid_inputs, data):
        work, valid = valid_inputs
        path = work / "mutated_archive.json"
        path.write_bytes(mutated_json(data, valid["archive"], RECORD_KEYS))
        code, err = run_main(["pareto-plotdata", str(path)])
        assert code == 0 or code == 2 and err.startswith(f"error: {path}"), err

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_table_exits_0_or_2(self, valid_inputs, data):
        work, valid = valid_inputs
        path = work / "mutated.csv"
        path.write_bytes(mutated_table(data, valid["table"]))
        code, err = run_main(["latency", str(work / "g.json"), "--table", str(path)])
        assert code == 0 or code == 2 and err.startswith(f"error: {path}"), err

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_records_load_or_name_the_file(self, valid_inputs, data):
        # in process and never scored: a mutated genome may be legal but huge
        work, valid = valid_inputs
        path = work / "mutated.jsonl"
        path.write_bytes(mutated_records(data, valid["records"]))
        try:
            records = load_records(path)
        except RecordError as exc:
            event("RecordError")
            assert str(exc).startswith(str(path)), str(exc)
        else:
            event(f"{len(records)} records")


class TestSearch:
    def test_runs_and_emits_archive(self, tmp_path):
        out = tmp_path / "archive.json"
        log = tmp_path / "log.jsonl"
        # beta=2 is the segmentation-style setting; any beta >= 0 is legal
        code, _, err = run_cli([*SEARCH_FAST, "--beta", "2", "--seed", "1",
                                "--out", str(out), "--log", str(log)])
        assert code == 0, err.decode()
        archive = json.loads(out.read_text())
        assert archive and all("genome" in e and "latency_us" in e for e in archive)
        for entry in archive:
            assert entry["zico_bc"] == pytest.approx(
                entry["zico"] - 2.0 * entry["penalty"], rel=1e-12)
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        assert {r["generation"] for r in rows} == {0, 1, 2}
        assert all("zico_bc" in r and "rank" in r for r in rows)

    def test_no_variation_archive_is_initial_rank0(self, tmp_path):
        out = tmp_path / "a.json"
        log = tmp_path / "l.jsonl"
        code, _, _ = run_cli([*SEARCH_FAST, "--seed", "2", "--mutation-rate", "0",
                              "--crossover-rate", "0", "--generations", "1",
                              "--out", str(out), "--log", str(log)])
        assert code == 0
        archive = {json.dumps(e["genome"], sort_keys=True)
                   for e in json.loads(out.read_text())}
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        rank0_gen0 = {json.dumps(r["genome"], sort_keys=True) for r in rows
                      if r["generation"] == 0 and r["rank"] == 0}
        assert archive == rank0_gen0

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        outs = []
        for threads, name in ((1, "t1"), (2, "t2"), (8, "t8")):
            out = tmp_path / f"{name}.json"
            log = tmp_path / f"{name}.jsonl"
            code, _, _ = run_cli([*SEARCH_FAST, "--seed", "5",
                                  "--threads", str(threads),
                                  "--out", str(out), "--log", str(log)])
            assert code == 0
            outs.append((out.read_bytes(), log.read_bytes()))
        assert outs[0] == outs[1] == outs[2]

    def test_manifest_environment_leaves_output_and_replay_alone(self, tmp_path):
        args = [*SEARCH_FAST, "--seed", "5", "--threads", "2"]
        code, stdout, _ = run_cli(args)
        assert code == 0
        out = tmp_path / "a.json"
        code, _, _ = run_cli([*args, "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == stdout
        manifest_path = tmp_path / "a.json.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        env = manifest["environment"]
        assert env["numpy"] == np.__version__
        assert env["evaluator_threads"] == 2
        assert set(env["blas"]) == {"name", "version", "core"}
        if env["blas_threads"] is not None:
            assert env["blas_threads"] >= 1
            assert env["blas_threads_in_pool"] == 1
        # replay reads only the configuration: a different environment block
        # (another machine's) still reproduces the output byte for byte
        manifest["environment"] = {"numpy": "0.0", "blas_threads": 64}
        manifest_path.write_text(json.dumps(manifest))
        replay = tmp_path / "replay.json"
        code, _, err = run_cli(["replay", str(manifest_path), "--out", str(replay)])
        assert code == 0, err.decode()
        assert replay.read_bytes() == stdout

    def test_replay_gives_every_option_back(self, tmp_path):
        out, log = tmp_path / "a.json", tmp_path / "a.jsonl"
        args = [*SEARCH_FAST, "--seed", "6", "--latency-ceiling-us", "1234.5",
                "--mutation-rate", "0.7", "--fallback-us-per-mac", "0.0007"]
        code, _, err = run_cli([*args, "--out", str(out), "--log", str(log)])
        assert code == 0, err.decode()
        replay_log = tmp_path / "replay.jsonl"
        assert_replays(out, tmp_path, ["--log", str(replay_log)])
        assert replay_log.read_bytes() == log.read_bytes()

    def test_population_validation(self):
        code, _, err = run_cli([*SEARCH_FAST, "--population", "5"])
        assert code == 2
        assert b"population" in err

    def test_latency_ceiling_filters_archive(self, tmp_path):
        out = tmp_path / "a.json"
        # at 0.01 us/MAC only the 16-channel single-repeat genome (~2432 us)
        # fits under the ceiling; everything else must be excluded
        code, _, err = run_cli([*SEARCH_FAST, "--seed", "4",
                                "--fallback-us-per-mac", "0.01",
                                "--latency-ceiling-us", "3000",
                                "--out", str(out)])
        assert code == 0, err.decode()
        archive = json.loads(out.read_text())
        assert archive, "ceiling chosen to keep the smallest genome feasible"
        assert all(e["latency_us"] <= 3000.0 for e in archive)

    def test_evaluator_failure_exits_3_with_genome(self):
        # zero fallback and no table: latency estimation fails per candidate
        code, _, err = run_cli([*SEARCH_FAST, "--seed", "1",
                                "--fallback-us-per-mac", "0"])
        assert code == 3
        assert b"evaluator failed on genome" in err
        assert b'"family"' in err  # offending genome serialized in the message

    def test_overflowing_score_exits_3_with_genome_and_beta(self, tmp_path):
        out = tmp_path / "a.json"
        code, _, err = run_cli([*SEARCH_FAST, "--beta", "1e308", "--out", str(out)])
        assert code == 3
        assert b"evaluator failed on genome" in err and b"beta 1e+308" in err
        assert b"Traceback" not in err
        assert not out.exists()

    def test_overflowing_latency_exits_3_with_genome(self, tmp_path):
        # a finite fallback rate whose price of a layer is not a finite float
        out = tmp_path / "a.json"
        code, _, err = run_cli([*SEARCH_FAST, "--fallback-us-per-mac", "1e308",
                                "--out", str(out)])
        assert code == 3
        assert b"evaluator failed on genome" in err and b"layer" in err
        assert b"Traceback" not in err
        assert not out.exists()


class TestLatency:
    def test_table_hit_totals(self, genome_file, tmp_path):
        path, genome = genome_file
        # price every layer of this genome at 2.5 us via the real pipeline
        from zicobc.latency import estimate, layer_key
        from zicobc.network import compile_genome
        graph = compile_genome(genome)
        table = LatencyTable(entries={layer_key(l): 2.5 for l in graph.layers})
        table_path = tmp_path / "t.csv"
        save_table(table, table_path)
        code, out, _ = run_cli(["latency", str(path), "--table", str(table_path)])
        assert code == 0
        result = json.loads(out)
        assert result["total_us"] == 2.5 * len(graph.layers)
        assert result["misses"] == 0

    def test_manifest_replays(self, genome_file, tmp_path):
        path, genome = genome_file
        from zicobc.latency import layer_key
        from zicobc.network import compile_genome
        first = compile_genome(genome).layers[0]
        table_path = tmp_path / "t.csv"
        save_table(LatencyTable(entries={layer_key(first): 2.5}), table_path)
        out = tmp_path / "l.json"
        code, _, err = run_cli(["latency", str(path), "--table", str(table_path),
                                "--fallback-us-per-mac", "0.002", "--out", str(out)])
        assert code == 0, err.decode()
        assert_replays(out, tmp_path)

    def test_old_manifest_with_seed_and_threads_replays(self, genome_file, tmp_path):
        path, _ = genome_file
        fresh = tmp_path / "fresh.json"
        assert run_cli(["latency", str(path), "--out", str(fresh)])[0] == 0
        # the older manifest format: a top-level seed, and latency's config
        # carrying the --seed and --threads it never read
        old = {
            "subcommand": "latency",
            "tool_version": "0.1.0",
            "seed": 3,
            "config": {"command": "latency", "genome": str(path), "table": None,
                       "fallback_us_per_mac": 0.001, "seed": 3, "threads": 2},
            "input_digests": {str(path): hashlib.sha256(path.read_bytes()).hexdigest()},
        }
        manifest_path = tmp_path / "old.manifest.json"
        manifest_path.write_text(json.dumps(old))
        replay = tmp_path / "replay.json"
        code, _, err = run_cli(["replay", str(manifest_path), "--out", str(replay)])
        assert code == 0, err.decode()
        assert replay.read_bytes() == fresh.read_bytes()
        # the new manifest drops the options latency no longer has
        written = json.loads((tmp_path / "replay.json.manifest.json").read_text())
        assert "seed" not in written["config"] and "threads" not in written["config"]
        assert written["environment"]["evaluator_threads"] == 1
        assert written["environment"]["blas_threads_in_pool"] is None

    def test_bad_table_exits_2(self, genome_file, tmp_path):
        path, _ = genome_file
        bad = tmp_path / "bad.csv"
        bad.write_text("op,cin,cout,hout,wout,k,groups,stride,us\nconv2d,1,1,1,1,1,1,1,-5\n")
        code, _, err = run_cli(["latency", str(path), "--table", str(bad)])
        assert code == 2
        assert b":2" in err

    def test_miss_without_fallback_exits_3(self, genome_file, tmp_path):
        path, _ = genome_file
        code, _, err = run_cli(["latency", str(path), "--fallback-us-per-mac", "0"])
        assert code == 3
        assert b"no table entry" in err

    def test_overflowing_fallback_exits_3_naming_layer(self, genome_file):
        path, _ = genome_file
        code, out, err = run_cli(["latency", str(path), "--fallback-us-per-mac", "1e308"])
        assert code == 3
        assert b"layer 1 " in err and b"Traceback" not in err
        assert b"Infinity" not in out


class TestCorrelate:
    def test_planted_monotone_suite(self, tmp_path):
        rng = np.random.default_rng(7)
        lines = []
        for i in range(6):
            genome = random_genome(rng, max_stages=1)
            lines.append(json.dumps({
                "id": f"r{i}",
                "genome": genome_to_dict(genome),
                "test_accuracy": 10.0 * i + 5.0,  # any strictly increasing planting
            }))
        records = tmp_path / "bench.jsonl"
        records.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(["correlate", "--records", str(records),
                                "--seed", "1", *FAST])
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 6
        assert -1.0 <= report["tau"] <= 1.0
        assert report["settings"]["batches"] == 2

    def test_planted_monotone_gives_tau_one(self, tmp_path):
        from zicobc.proxy import ScoreSettings, score_genome
        rng = np.random.default_rng(17)
        settings = ScoreSettings(beta=1.0, batches=2, batch_size=2, seed=3)
        rows = []
        seen = set()
        while len(rows) < 6:
            genome = random_genome(rng, max_stages=1)
            key = genome_to_json(genome)
            if key in seen:
                continue
            seen.add(key)
            score = score_genome(genome, settings).zico_bc
            rows.append((score, genome))
        lines = [json.dumps({"id": f"r{i}", "genome": genome_to_dict(g),
                             "test_accuracy": 50.0 + 10.0 * np.tanh(s / 100.0)})
                 for i, (s, g) in enumerate(rows)]
        records = tmp_path / "bench.jsonl"
        records.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(["correlate", "--records", str(records),
                                "--beta", "1", "--seed", "3", *FAST])
        assert code == 0
        report = json.loads(out)
        assert report["tau"] == 1.0
        assert report["rho"] == 1.0

    def test_manifest_replays_through_correlate(self, tmp_path):
        rng = np.random.default_rng(9)
        genomes = [genome_to_dict(random_genome(rng, max_stages=1)) for _ in range(3)]
        records = tmp_path / "bench.jsonl"
        records.write_text("".join(
            json.dumps({"id": f"r{i}", "genome": g, "test_accuracy": 50.0 + i}) + "\n"
            for i, g in enumerate(genomes)))
        out = tmp_path / "report.json"
        code, _, err = run_cli(["correlate", "--records", str(records), "--seed", "2",
                                "--beta", "0.5", *FAST, "--out", str(out)])
        assert code == 0, err.decode()
        assert_replays(out, tmp_path)

    def test_mixed_resolutions_correlate_at_one_set_resolution(self, tmp_path):
        rng = np.random.default_rng(10)
        records = tmp_path / "bench.jsonl"
        records.write_text("".join(
            json.dumps({"id": f"r{i}", "test_accuracy": 50.0 + i, "genome": genome_to_dict(
                random_genome(rng, max_stages=1, resolution=8 * (1 + i % 2)))}) + "\n"
            for i in range(4)))
        argv = ["correlate", "--records", str(records), "--seed", "2", *FAST]
        code, out, err = run_cli(argv)
        assert code == 2 and out == b""
        assert err.startswith(b"error: records 'r0' at 8x8 and 'r1' at 16x16: ")
        code, out, err = run_cli([*argv, "--resolution", "8x8"])
        assert code == 0, err.decode()
        assert json.loads(out)["n"] == 4

    def test_records_required(self):
        code, out, err = run_cli(["correlate", *FAST])
        assert code == 2
        assert out == b""
        assert b"--records" in err and b"Traceback" not in err

    def test_correlate_deterministic_across_threads(self, tmp_path):
        rng = np.random.default_rng(8)
        lines = []
        for i in range(5):
            genome = random_genome(rng, max_stages=1)
            lines.append(json.dumps({"id": f"r{i}",
                                     "genome": genome_to_dict(genome),
                                     "test_accuracy": 50.0 + i}))
        records = tmp_path / "bench.jsonl"
        records.write_text("\n".join(lines) + "\n")
        outs = [run_cli(["correlate", "--records", str(records), "--seed", "2",
                         "--threads", str(t), *FAST])[1] for t in (1, 2, 8)]
        assert outs[0] == outs[1] == outs[2]


class TestParetoPlotdata:
    def test_empty_archive_gives_header_only(self, tmp_path):
        archive = tmp_path / "a.json"
        archive.write_text("[]\n")
        code, out, _ = run_cli(["pareto-plotdata", str(archive)])
        assert code == 0
        assert out == b"depth,mean_width,score,latency\n"

    def test_manifest_replays(self, genome_file, tmp_path):
        _, genome = genome_file
        archive = tmp_path / "a.json"
        archive.write_text(json.dumps([{"genome": genome_to_dict(genome),
                                        "zico_bc": None, "score": 8.25,
                                        "latency_us": 123.5}]))
        out = tmp_path / "points.csv"
        code, _, err = run_cli(["pareto-plotdata", str(archive), "--out", str(out)])
        assert code == 0, err.decode()
        assert_replays(out, tmp_path)

    def test_columns(self, tmp_path):
        entry = {
            "genome": {"family": "resnet_like",
                       "stages": [{"repeats": 2, "channels": 32, "kernel": 3,
                                   "conv_mode": "regular", "stride": 1},
                                  {"repeats": 1, "channels": 64, "kernel": 3,
                                   "conv_mode": "regular", "stride": 2}],
                       "stem_channels": 8, "num_classes": 4,
                       "input_resolution": [8, 8], "expansion": 4},
            "zico": 10.0, "penalty": 2.0, "zico_bc": 8.0, "score": 8.0,
            "latency_us": 123.5,
        }
        archive = tmp_path / "a.json"
        archive.write_text(json.dumps([entry]))
        code, out, _ = run_cli(["pareto-plotdata", str(archive)])
        assert code == 0
        lines = out.decode().splitlines()
        assert lines[0] == "depth,mean_width,score,latency"
        depth, width, score, latency = lines[1].split(",")
        assert depth == "3"
        assert float(width) == pytest.approx((2 * 32 + 64) / 3)
        assert float(score) == 8.0
        assert float(latency) == 123.5


# the shared options each subcommand offers: --seed where it scores,
# --threads where it runs a worker pool, --log where it writes a search log
SHARED_OPTIONS = {
    "score": {"--seed", "--threads", "--out"},
    "search": {"--seed", "--threads", "--out", "--log"},
    "correlate": {"--seed", "--threads", "--out"},
    "latency": {"--out"},
    "pareto-plotdata": {"--out"},
    "replay": {"--out", "--log"},
}


class TestHelp:
    def test_every_subcommand_has_help(self):
        for cmd, offered in SHARED_OPTIONS.items():
            code, out, _ = run_cli([cmd, "--help"])
            assert code == 0
            for option in ("--seed", "--threads", "--out", "--log", "--from-manifest"):
                assert (option.encode() in out) == (option in offered), (cmd, option)

    def test_module_entry_point_writes_the_in_process_bytes(self, genome_file):
        path, _ = genome_file
        args = ["score", str(path), "--seed", "2", *FAST]
        code, out, err = run_module(args, {})
        assert (code, out, err) == run_cli(args)
        assert code == 0 and out

    def test_in_process_entry_point(self, tmp_path, capsys):
        genome = random_genome(np.random.default_rng(1), max_stages=1)
        path = tmp_path / "g.json"
        path.write_text(genome_to_json(genome))
        code = main(["score", str(path), "--seed", "1", *FAST])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["beta"] == 1.0


# (subcommand and its required arguments, the dest of a flag, the class and
# field whose default the flag takes, another value for that field, and the
# flag's default then)
PROXY_FIELDS = [("beta", ScoreSettings, "beta", 2.5, 2.5),
                ("batches", ScoreSettings, "batches", 5, 5),
                ("batch_size", ScoreSettings, "batch_size", 3, 3),
                ("stat_mode", ScoreSettings, "stat_mode", "signed", "signed")]
FLAG_DEFAULTS = [
    *((argv, *field) for argv in (["score", "g.json"], ["search"],
                                  ["correlate", "--records", "r.jsonl"])
      for field in PROXY_FIELDS),
    *((["search"], *field) for field in [
        ("population", SearchConfig, "population", 12, 12),
        ("generations", SearchConfig, "generations", 7, 7),
        ("mutation_rate", SearchConfig, "mutation_rate", 0.25, 0.25),
        ("crossover_rate", SearchConfig, "crossover_rate", 0.75, 0.75),
        ("latency_ceiling_us", SearchConfig, "latency_ceiling_us", 99.5, 99.5),
        ("kernels", GenomeSpace, "kernel_choices", (7,), "7"),
        ("conv_modes", GenomeSpace, "conv_modes", ("depthwise", "group"), "depthwise,group"),
        ("expansions", GenomeSpace, "expansion_choices", (2, 6), "2,6"),
        ("stem_channels", GenomeSpace, "stem_channels", 24, 24),
        ("num_classes", GenomeSpace, "num_classes", 7, 7),
    ]),
]


class TestDefaults:
    """Each default the CLI shares with a library dataclass is read from its
    field, so a changed library default reaches the CLI."""

    @pytest.mark.parametrize("argv, dest, cls, field, value, expected", FLAG_DEFAULTS,
                             ids=[f"{argv[0]}-{dest}" for argv, dest, *_ in FLAG_DEFAULTS])
    def test_flag_default_is_the_field_default(self, argv, dest, cls, field, value,
                                               expected, monkeypatch):
        assert getattr(cls, field) != value
        monkeypatch.setattr(cls, field, value)
        assert getattr(cli.build_parser().parse_args(argv), dest) == expected

    def test_seed_fallback_is_the_field_default(self, monkeypatch):
        monkeypatch.delenv("ZICO_BC_SEED", raising=False)
        monkeypatch.setattr(ScoreSettings, "seed", 41)
        args = cli.build_parser().parse_args(["score", "g.json"])
        cli._resolve_common(args)
        assert args.seed == 41
        code, out, _ = run_cli(["score", "--help"])
        assert code == 0 and b"then 41" in out

    def test_search_resolution_is_the_field_default(self, monkeypatch):
        monkeypatch.setattr(GenomeSpace, "input_resolution", (16, 8))
        spaces = []

        def stopping(space, *args, **kwargs):
            spaces.append(space)
            raise RuntimeSurprise("stopped before the first generation")

        monkeypatch.setattr(cli, "run_search", stopping)
        code, _, err = run_cli([a for a in SEARCH_FAST if a not in ("--resolution", "8x8")])
        assert code == 3, err.decode()
        assert [space.input_resolution for space in spaces] == [(16, 8)]
        code, out, _ = run_cli(["search", "--help"])
        assert code == 0 and b"search uses 16x8" in out
