"""Command line behavior: manifests, exit codes, CSV shape, determinism."""

import csv
import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

from cegraph import ceg, cli, features, ingest
from cegraph.ceg import build_ceg
from cegraph.cli import main
from cegraph.features import ALL_FEATURE_NAMES, EIG_FEATURE_NAMES, featurize_dataset
from cegraph.ingest import load_jsonl, validate
from cegraph.report import render_tsne
from synth import random_module, write_synthetic_log

SRC = Path(__file__).resolve().parent.parent / "src"
META = ("id", "name", "run_id", "method", "llm", "benchmark",
        "evaluation_index", "fitness_raw")


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "run.jsonl"
    write_synthetic_log(path)
    return path


def run(argv):
    return main([str(a) for a in argv])


def test_pipeline_writes_manifest(log_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["pipeline", "--input", log_path, "--out", out])
    assert code == 0
    for name in (
        "features.csv",
        "ceg.json",
        "ceg_pc1.svg",
        "tsne.svg",
        "correlations.csv",
        "heatmap.svg",
    ):
        assert (out / name).is_file(), name
    capsys.readouterr()


BUNDLED_LOG = SRC.parent / "data" / "synthetic_run.jsonl"

# the bytes of the bundled log's artifacts that no BLAS product sets;
# tsne.svg and ceg_pc1.svg are left out, since OpenBLAS's kernel for this
# CPU sets their last bits
PINNED_SHA256 = {
    "features.csv": "065702be0d5ff87ffeed66b6adfacc1f4c2a80a4b203de55ccccb87042cd2445",
    "ceg.json": "bb922d6feacddc6ec17b1516254598e77de91fa1f4f50c8a22fe5e2a0a21aba3",
    "correlations.csv": "e3345c5e892a6e015ecc7fb2d6c2734a17f6b1d6cddb8f53832bc0944eaf62a1",
    "heatmap.svg": "145682b8c68a9b4727652295c46eeda558e99611afb25226ad4739d4ae68bf3a",
}


def test_bundled_log_artifacts_keep_their_bytes(tmp_path, capsys):
    """`pipeline` with default flags on data/synthetic_run.jsonl writes
    these bytes. The artifacts keep their bytes for the same input and
    seed unless a change says why they move: a change that moves them
    updates these pins and says why in CHANGES.md."""
    out = tmp_path / "out"
    assert run(["pipeline", "--input", BUNDLED_LOG, "--out", out]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert got == PINNED_SHA256


# more of the bundled log's bytes that no BLAS product sets: `ceg` output
# under other flags (the token axis plots raw feature values)
FLAG_PINS = {
    "tokens": (("--y-axis", "tokens"), "ceg_token_total.svg",
               "9f2fb2265b40c5d1e8e8846067270da77b3c4e6a7bff12ee46296bb8bb68b368"),
    "run-minimize": (("--y-axis", "tokens", "--norm-scope", "run", "--direction", "minimize"),
                     "ceg.json",
                     "338d946c4951de454c77ba16fae30fae231ada676afd3574bd3b8626885cd734"),
    "normalize-none": (("--y-axis", "tokens", "--normalize", "none"), "ceg.json",
                       "2387fc2e6964f5dfd3885aada22191d990b1e84fc19dca2599d83817294a80b3"),
}


@pytest.mark.parametrize("case", FLAG_PINS)
def test_bundled_log_ceg_outputs_keep_their_bytes(case, tmp_path, capsys):
    flags, name, digest = FLAG_PINS[case]
    out = tmp_path / "out"
    assert run(["ceg", "--input", BUNDLED_LOG, "--out", out, *flags]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_bundled_log_tsne_figure_keeps_its_bytes_on_fixed_coordinates():
    # the scatter drawn at (evaluation index, raw node_count), which no
    # BLAS product sets: colors, shapes, sizes, hollow markers and legend
    dataset, _ = validate(load_jsonl(BUNDLED_LOG))
    table, _ = featurize_dataset(dataset)
    ceg = build_ceg(dataset, table)
    coords = np.column_stack([ceg.evaluation_index,
                              ceg.features_raw[:, ceg.feature_names.index("node_count")]])
    svg = render_tsne(ceg, coords)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == (
        "8fa99eb9af32021c76354a6fd007bf2a889a4dc11aa80b5d52f59550d8d99591")


def test_extract_csv_shape(log_path, tmp_path):
    out = tmp_path / "out"
    assert run(["extract", "--input", log_path, "--out", out]) == 0
    with open(out / "features.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == META + ALL_FEATURE_NAMES
    assert len(rows[0]) == 36
    assert len(rows) == 1 + 66
    ids = {r[0] for r in rows[1:]}
    assert "pp11" in ids
    # the one sample without fitness leaves its cell blank
    fit_col = rows[0].index("fitness_raw")
    blanks = [r[0] for r in rows[1:] if r[fit_col] == ""]
    assert blanks == ["pp11"]


def test_extract_with_eigencentrality(log_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "extract", "--input", log_path, "--out", out,
        "--include-eigencentrality",
    ]) == 0
    with open(out / "features.csv", newline="", encoding="utf-8") as fh:
        header = tuple(next(csv.reader(fh)))
    assert header == META + ALL_FEATURE_NAMES + EIG_FEATURE_NAMES
    assert len(header) == 38


def test_ceg_json_and_default_figure(log_path, tmp_path):
    out = tmp_path / "out"
    assert run(["ceg", "--input", log_path, "--out", out]) == 0
    payload = json.loads((out / "ceg.json").read_text(encoding="utf-8"))
    assert {g["run_id"] for g in payload["graphs"]} == {
        "chain-01", "pop-01", "rs-01"
    }
    assert (out / "ceg_pc1.svg").is_file()


def test_ceg_tokens_y_axis_names_output_file(log_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "ceg", "--input", log_path, "--out", out, "--y-axis", "tokens",
    ]) == 0
    assert (out / "ceg_token_total.svg").is_file()


def test_ceg_feature_y_axis_spelling(log_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "ceg", "--input", log_path, "--out", out,
        "--y-axis", "feature:cc_total",
    ]) == 0
    assert (out / "ceg_cc_total.svg").is_file()


def test_unknown_y_axis_is_validation_failure(log_path, tmp_path, capsys):
    # eigenvector centrality columns exist only under --include-eigencentrality
    listing = tmp_path / "eig.txt"
    listing.write_text("eig_centrality_max\n", encoding="utf-8")
    for argv, message in (
        (["ceg", "--y-axis", "feature:bogus"], "unknown feature names: bogus"),
        (["pipeline", "--feature-set", f"custom:{listing}"],
         "unknown feature names: eig_centrality_max"),
    ):
        out = tmp_path / argv[0]
        out.mkdir()
        assert run(argv + ["--input", log_path, "--out", out]) == 1
        # every name is checked before the first file is written
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert list(out.iterdir()) == []


def test_custom_feature_set_with_a_repeated_name_exits_1(log_path, tmp_path, capsys):
    # a repeated column would appear twice in correlations.csv and the
    # heatmap, and weigh twice in the projections
    listing = tmp_path / "twice.txt"
    listing.write_text("node_count\ncc_total\nnode_count\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    argv = ["pipeline", "--input", log_path, "--out", out, "--feature-set", f"custom:{listing}"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lists more than once: node_count" in captured.err
    assert list(out.iterdir()) == []


def test_tsne_clamps_out_of_range_perplexity(log_path, tmp_path, capsys):
    out = tmp_path / "out"
    # n=66 caps perplexity at (66-1)/3; the default 30 must be pulled down
    assert run(["tsne", "--input", log_path, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "perplexity" in err
    assert (out / "tsne.svg").is_file()


def test_correlate_outputs(log_path, tmp_path):
    out = tmp_path / "out"
    assert run(["correlate", "--input", log_path, "--out", out]) == 0
    with open(out / "correlations.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["group"] + list(ALL_FEATURE_NAMES)
    assert len(rows) == 1 + 3
    labels = {r[0] for r in rows[1:]}
    assert labels == {
        "binpack-120/pop-4p20/lm-beta",
        "sphere-2d/onepluslambda/lm-alpha",
        "sphere-2d/random-search/lm-alpha",
    }
    # constructed anti-monotone feature in the random-search group
    rs = next(r for r in rows[1:] if "random-search" in r[0])
    tok = rows[0].index("token_total")
    assert float(rs[tok]) == -1.0
    assert (out / "heatmap.svg").is_file()


def test_custom_feature_set(log_path, tmp_path):
    listing = tmp_path / "names.txt"
    listing.write_text(
        "# projection inputs\nnode_count\ntoken_total\n\ncc_total\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run([
        "correlate", "--input", log_path, "--out", out,
        "--feature-set", f"custom:{listing}",
    ]) == 0
    with open(out / "correlations.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header == ["group", "node_count", "token_total", "cc_total"]


def test_named_feature_sets(log_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "correlate", "--input", log_path, "--out", out,
        "--feature-set", "complexity6",
    ]) == 0
    with open(out / "correlations.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header == ["group", "cc_total", "cc_mean", "token_total",
                      "token_mean", "param_total", "param_mean"]


def test_normalize_none_and_scope_flags(log_path, tmp_path):
    out = tmp_path / "out"
    assert run([
        "ceg", "--input", log_path, "--out", out,
        "--normalize", "none", "--norm-scope", "run",
        "--direction", "minimize",
    ]) == 0
    payload = json.loads((out / "ceg.json").read_text(encoding="utf-8"))
    raw = {
        g["run_id"]: [n["fitness_norm"] for n in g["nodes"]]
        for g in payload["graphs"]
    }
    # --normalize none passes raw fitness through untouched
    assert raw["rs-01"] == [pytest.approx(0.1 * (i + 1)) for i in range(10)]


def test_exit_codes(tmp_path, log_path, capsys):
    assert run(["pipeline", "--help"]) == 0
    assert run(["pipeline"]) == 2  # missing --input
    capsys.readouterr()
    assert run(["pipeline", "--input", tmp_path / "absent.jsonl",
                "--out", tmp_path / "o"]) == 2
    capsys.readouterr()
    assert run(["pipeline", "--input", log_path, "--out", tmp_path / "o",
                "--no-such-flag"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    assert run(["extract", "--input", bad, "--out", tmp_path / "o2"]) == 1
    capsys.readouterr()
    # each subcommand accepts only its own options
    for argv in (["extract", "--seed", "3"], ["ceg", "--perplexity", "5"],
                 ["tsne", "--y-axis", "pc1"]):
        assert run(argv + ["--input", log_path, "--out", tmp_path / "o3"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o3").exists()


@pytest.mark.parametrize("command, samples, message", [
    ("pipeline", 3, "need at least 4 samples"),
    ("tsne", 3, "need at least 4 samples"),
    ("pipeline", 1, "need at least 2 samples"),
    ("ceg", 1, "need at least 2 samples"),
])
def test_log_too_small_to_project_writes_nothing(tmp_path, capsys, command, samples, message):
    log = tmp_path / "small.jsonl"
    log.write_text("".join(
        json.dumps({"id": f"s{i}", "run_id": "r", "evaluation_index": i,
                    "code": f"x = {i}\n", "fitness_raw": float(i)}) + "\n"
        for i in range(samples)
    ), encoding="utf-8")
    out = tmp_path / "out"
    assert run([command, "--input", log, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "wrote" not in captured.out
    assert list(out.glob("*")) == []


def test_lineage_error_writes_nothing(tmp_path, capsys):
    # build_ceg rejects the run only after featurization succeeded
    log = tmp_path / "mixed.jsonl"
    log.write_text("".join(
        json.dumps({"id": f"s{i}", "run_id": "r", "llm": "ab"[i % 2], "evaluation_index": i,
                    "code": f"x = {i}\n", "fitness_raw": float(i)}) + "\n"
        for i in range(6)
    ), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["pipeline", "--input", log, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: run 'r' mixes group keys")
    assert captured.out == ""
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command, message", [
    ("pipeline", "no sample produced a feature vector"),
    ("extract", "no sample produced a feature vector"),
    ("ceg", "no sample produced a feature vector"),
])
def test_all_unparsable_log_writes_nothing(tmp_path, capsys, command, message):
    log = tmp_path / "broken.jsonl"
    log.write_text("".join(
        json.dumps({"id": f"s{i}", "run_id": "r", "evaluation_index": i,
                    "code": "def broken(:\n", "fitness_raw": float(i)}) + "\n"
        for i in range(5)
    ), encoding="utf-8")
    out = tmp_path / "out"
    assert run([command, "--input", log, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: {message}\n")
    assert captured.out == ""
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command", ["pipeline", "tsne"])
@pytest.mark.parametrize("flag, value, message", [
    ("--iterations", "0", "--iterations must be positive, got 0"),
    ("--perplexity", "nan", "--perplexity must be a number, got nan"),
    ("--seed", "-1", "--seed must be non-negative, got -1"),
], ids=["iterations", "perplexity", "seed"])
def test_bad_projection_flag_writes_nothing(log_path, tmp_path, capsys, command, flag,
                                            value, message):
    out = tmp_path / "out"
    assert run([command, "--input", log_path, "--out", out, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("flags, message", [
    (["--y-axis", "feature:bogus"], "unknown feature names: bogus"),
    (["--iterations", "0"], "--iterations must be positive, got 0"),
    (["--y-axis", "pc2"], "unknown y-axis 'pc2'; use pc1, tokens or feature:<name>"),
    (["--feature-set", "custom:{listing}"], "unknown feature names: eig_centrality_max"),
], ids=["y-axis", "iterations", "y-axis-spelling", "eig-without-flag"])
def test_flags_are_checked_before_the_log_is_read(tmp_path, capsys, flags, message):
    # the log's one sample names a file that is not there, which would
    # stop the load with an i/o error (exit 2)
    log = tmp_path / "log.jsonl"
    log.write_text(json.dumps({"id": "s0", "run_id": "r", "evaluation_index": 0,
                               "code_path": "missing.py"}) + "\n", encoding="utf-8")
    listing = tmp_path / "eig.txt"
    listing.write_text("eig_centrality_max\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["pipeline", "--input", log, "--out", out]
    assert run(argv + [flag.format(listing=listing) for flag in flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_each_choices_is_the_tuple_the_library_checks():
    # a copy typed into OPTIONS could drift from what validate and build_ceg accept
    owners = {"--policy": ingest.POLICIES, "--normalize": ceg.NORMALIZE_MODES,
              "--direction": ceg.DIRECTIONS, "--norm-scope": ceg.NORM_SCOPES}
    assert [flag for flag, kwargs in cli.OPTIONS.items() if "choices" in kwargs] == list(owners)
    for flag, values in owners.items():
        assert cli.OPTIONS[flag]["choices"] is values


def test_unparsable_sample_is_reported_once(tmp_path):
    # run as a process: stderr then shows every report, logging's and the
    # parser's warnings included ("1if" warns: invalid decimal literal)
    log = tmp_path / "broken.jsonl"
    log.write_text("".join(
        json.dumps({"id": f"s{i}", "run_id": "r", "evaluation_index": i,
                    "code": {3: "def broken(:\n", 5: "x = 1if True else 2\n"}.get(
                        i, f"x = {i}\n"),
                    "fitness_raw": float(i)}) + "\n"
        for i in range(8)
    ), encoding="utf-8")
    (diagnostic,) = featurize_dataset(load_jsonl(log))[1].values()
    proc = subprocess.run(
        [sys.executable, "-m", "cegraph.cli", "pipeline", "--input", str(log),
         "--out", str(tmp_path / "out"), "--perplexity", "2", "--iterations", "50"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"skipped 1 unparsable samples\n  skipped sample 's3': {diagnostic}\n"


def test_pipeline_runs_clean_under_dev_mode_with_warnings_as_errors(tmp_path):
    # enough samples for several t-SNE row blocks; a warning or an unclosed
    # file then fails the run or shows on stderr
    rng = random.Random(22)
    log = tmp_path / "log.jsonl"
    log.write_text("".join(
        json.dumps({"id": f"s{i}", "run_id": f"r{i % 3}", "evaluation_index": i,
                    "code": random_module(rng, approx_lines=12),
                    "fitness_raw": float(rng.randint(0, 50))}) + "\n"
        for i in range(300)
    ), encoding="utf-8")
    runs = {}
    for name, flags in (("plain", []), ("dev", ["-X", "dev", "-W", "error"])):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "cegraph.cli", "pipeline", "--input", str(log),
             "--out", str(out), "--iterations", "60"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs[name] = proc.stderr, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(runs["plain"][1]) == 6
    assert runs["dev"] == runs["plain"]


@pytest.fixture(scope="module")
def big_log(tmp_path_factory):
    """A log of 360 samples, 320 of which parse, whose distinct chunks hold
    more than 393,216 characters (3 * 2^17). Every ninth module is cut
    short so that it does not parse, and one sample names a parent that
    does not exist."""
    rng = random.Random(11)
    lines = []
    for i in range(360):
        code = random_module(rng, approx_lines=60)
        if i % 9 == 4:
            code = code[: len(code) // 2] + "\ndef broken(:\n"
        parents = ["ghost"] if i == 7 else [f"s{i - 3:03d}"] if i >= 3 else []
        lines.append(json.dumps({"id": f"s{i:03d}", "run_id": f"r{i % 3}",
                                 "evaluation_index": i, "parent_ids": parents,
                                 "fitness_raw": float(rng.randint(0, 50)), "code": code}))
    path = tmp_path_factory.mktemp("big") / "log.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


_COUNTING_FORKS = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
fork, forks = os.fork, []

def counting_fork():
    forks.append(1)
    return fork()

os.fork = counting_fork
from cegraph.cli import main
code = main(sys.argv[1:])
print(code, len(forks), sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


def test_a_pipeline_run_starts_no_process(big_log, tmp_path):
    # more than 300 samples reach t-SNE, on a host that reports two CPUs:
    # featurization and every t-SNE gradient run in this process
    samples = load_jsonl(big_log).samples
    counts = Counter(chain.from_iterable(features._statements(s.code) for s in samples))
    distinct = dict.fromkeys(chain.from_iterable(
        features._chunks(features._statements(s.code), counts) for s in samples))
    assert sum(map(len, distinct)) > 3 << 17
    proc = subprocess.run(
        [sys.executable, "-c", _COUNTING_FORKS, "pipeline", "--input", str(big_log),
         "--out", str(tmp_path / "out"), "--policy", "drop-dangling-edges",
         "--iterations", "100"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "skipped 40 unparsable samples" in proc.stderr
    assert len(list((tmp_path / "out").iterdir())) == 6
    assert proc.stdout.splitlines()[-1] == "0 0 []"


_NO_MEMORY = ("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"
              " and data type float64")


def _run_out_of_memory(monkeypatch):
    def tsne(*args, **kwargs):
        raise MemoryError(_NO_MEMORY)

    monkeypatch.setattr(cli, "tsne", tsne)


def _fail_heatmap_write(monkeypatch):
    write_text = Path.write_text

    def failing(path, *args, **kwargs):
        if path.name == "heatmap.svg":
            raise OSError(28, "No space left on device")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing)


@pytest.mark.parametrize("fail, message", [
    (_run_out_of_memory, f"error: out of memory: {_NO_MEMORY}"),
    (_fail_heatmap_write, "i/o error: [Errno 28] No space left on device"),
], ids=["memory", "heatmap_write"])
def test_a_run_that_fails_late_leaves_out_as_it_was(log_path, tmp_path, capsys, monkeypatch,
                                                    fail, message):
    out = tmp_path / "out"
    argv = ["pipeline", "--input", log_path, "--out", out, "--iterations", "50"]
    assert run(argv) == 0
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 6
    fail(monkeypatch)
    # each of the six artifacts would differ from the first run's
    assert run(argv + ["--include-eigencentrality", "--feature-set", "complexity6",
                       "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert captured.err.splitlines()[-1] == message
    # the same six files with the same bytes, and no staging directory
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_directory_in_the_way_moves_no_artifact(log_path, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["pipeline", "--input", log_path, "--out", out, "--iterations", "50"]
    assert run(argv) == 0
    capsys.readouterr()
    (out / "tsne.svg").unlink()
    (out / "tsne.svg").mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert len(before) == 5
    # each of the five files would differ from the first run's
    assert run(argv + ["--include-eigencentrality", "--feature-set", "complexity6",
                       "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert captured.err.splitlines()[-1] == (
        f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out / 'tsne.svg'}'"
    )
    # the same five files with the same bytes, the directory, and no
    # staging directory
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, "tsne.svg"])


_OUT_OF_MEMORY = f"""
import sys
from cegraph import cli

def tsne(*args, **kwargs):
    raise MemoryError({_NO_MEMORY!r})

cli.tsne = tsne
raise SystemExit(cli.main(sys.argv[1:]))
"""


def test_out_of_memory_exits_2_without_traceback(log_path, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _OUT_OF_MEMORY, "pipeline", "--input", str(log_path),
         "--out", str(out), "--iterations", "50"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"error: out of memory: {_NO_MEMORY}"
    assert proc.stdout == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("bad_line", ["deep_json", "code_path_not_utf8"])
def test_malformed_log_exits_1_without_traceback(tmp_path, bad_line):
    # run as a process: an escaped exception would print a traceback there
    (tmp_path / "latin.py").write_bytes(b"x = 1\xff\n")
    line = {
        "deep_json": "[" * 100_000 + "]" * 100_000,
        "code_path_not_utf8": json.dumps({"id": "a", "run_id": "r",
                                          "evaluation_index": 0,
                                          "code_path": "latin.py"}),
    }[bad_line]
    log = tmp_path / "bad.jsonl"
    log.write_text(line + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "cegraph.cli", "extract", "--input", str(log),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 1: ")
    assert "Traceback" not in proc.stderr


def test_a_lone_surrogate_in_a_label_exits_1_before_any_work(tmp_path, capsys):
    # legal JSON that no UTF-8 artifact can carry: load names the line and
    # the field, where the first CSV write would name neither
    rows = [{"id": f"s{i}", "run_id": "r", "evaluation_index": i,
             "code": f"x = {i}\n", "fitness_raw": float(i)} for i in range(5)]
    rows[2]["run_id"] = "r\ud800"
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "out"
    assert run(["pipeline", "--input", log, "--out", out, "--perplexity", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: line 3: field 'run_id' holds a lone surrogate U+D800, "
                            "which UTF-8 cannot encode\n")
    assert captured.out == ""
    assert list(out.glob("*")) == []


def test_strict_policy_rejects_dangling_parent(tmp_path, capsys):
    path = tmp_path / "dangle.jsonl"
    rows = [
        {"id": "a", "run_id": "r", "evaluation_index": 0,
         "code": "x = 1\n", "fitness_raw": 0.1},
        {"id": "b", "run_id": "r", "evaluation_index": 1,
         "code": "x = 2\n", "fitness_raw": 0.2, "parent_ids": ["ghost"]},
    ]
    path.write_text(
        "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
    )
    assert run(["extract", "--input", path, "--out", tmp_path / "o"]) == 1
    capsys.readouterr()
    assert run([
        "extract", "--input", path, "--out", tmp_path / "o",
        "--policy", "drop-dangling-edges",
    ]) == 0
    err = capsys.readouterr().err
    assert "dropped 1 dangling parent references" in err
    assert "'ghost'" in err and "parent id not found" in err


def test_pipeline_reruns_byte_identical(log_path, tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["pipeline", "--input", log_path, "--out", out1,
                "--seed", "7"]) == 0
    assert run(["pipeline", "--input", log_path, "--out", out2,
                "--seed", "7"]) == 0
    capsys.readouterr()
    for name in ("features.csv", "ceg.json", "ceg_pc1.svg", "tsne.svg",
                 "correlations.csv", "heatmap.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


_RANDOM_IMPORTED = """
import sys
from cegraph.cli import main
code = main(sys.argv[1:])
print('numpy.random' in sys.modules)
raise SystemExit(code)
"""


def test_pipeline_never_imports_numpy_random(tmp_path):
    # numpy.random's extension modules cost about 6 MB of resident memory
    bundled = SRC.parent / "data" / "synthetic_run.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", _RANDOM_IMPORTED, "pipeline", "--input", str(bundled),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _python(script, **env):
    """stdout of `python -c script` with src on the path, OpenBLAS's and
    OpenMP's variables removed from the environment and env added."""
    clean = {k: v for k, v in os.environ.items() if not k.startswith(("OPENBLAS_", "OMP_"))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(clean, PYTHONPATH=str(SRC), **env), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_THREADS = "import os, cegraph.cli; print(len(os.listdir('/proc/self/task')))"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc/self/task and two usable CPUs")
def test_cli_runs_blas_on_one_thread_unless_the_environment_says_otherwise():
    # on two CPUs OpenBLAS starts a second thread when it loads, which spins idle
    assert _python(_THREADS) == "1\n"
    assert _python(_THREADS, OPENBLAS_NUM_THREADS="2") == "2\n"


def test_importing_the_package_loads_numpy_only_when_a_name_is_read():
    script = ("import sys, cegraph; before = 'numpy' in sys.modules; cegraph.tsne; "
              "print(before, 'numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in __import__('os').environ)")
    assert _python(script) == "False True False\n"


_EXPORTS = """
import importlib, cegraph
assert set(cegraph.__all__) <= set(dir(cegraph))
star = {}
exec("from cegraph import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(cegraph.__all__)
assert len(set(cegraph.__all__)) == len(cegraph.__all__) == 38
for name in cegraph.__all__:
    home = importlib.import_module("cegraph." + cegraph._MODULE_OF[name])
    value = getattr(home, name)
    assert star[name] is value and getattr(cegraph, name) is value, name
    assert getattr(value, "__module__", home.__name__) == home.__name__, name
try:
    cegraph.no_such_name
except AttributeError as e:
    print(e)
"""


def test_every_exported_name_is_bound_by_its_defining_module():
    assert _python(_EXPORTS) == "module 'cegraph' has no attribute 'no_such_name'\n"


def test_subcommands_write_the_pipeline_artifacts(log_path, tmp_path, capsys):
    common = ["--input", log_path, "--include-eigencentrality"]
    ceg = ["--norm-scope", "run", "--direction", "minimize"]
    projection = ["--seed", "3", "--iterations", "300", "--perplexity", "5"]
    features = ["--feature-set", "complexity6"]
    assert run(["pipeline", "--out", tmp_path / "pipeline"]
               + common + ceg + projection + features) == 0
    capsys.readouterr()
    for argv, names in (
        (["extract"], ["features.csv"]),
        (["ceg"] + ceg + features, ["ceg.json", "ceg_pc1.svg"]),
        (["tsne"] + ceg + projection + features, ["tsne.svg"]),
        (["correlate"] + ceg + features, ["correlations.csv", "heatmap.svg"]),
    ):
        out = tmp_path / argv[0]
        assert run(argv + common + ["--out", out]) == 0
        # stdout lists exactly the files written, and nothing else is written
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in names
        ]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        for name in names:
            pipeline_bytes = (tmp_path / "pipeline" / name).read_bytes()
            assert (out / name).read_bytes() == pipeline_bytes, name


def test_deeply_nested_sample_is_skipped_not_fatal(tmp_path, capsys):
    # ast.parse raises RecursionError on this source
    deep = "x = " + "-" * 5000 + "1\n"
    rows = [
        {"id": f"s{i}", "run_id": "r", "evaluation_index": i,
         "code": deep if i == 3 else f"x = {i}\n", "fitness_raw": float(i)}
        for i in range(6)
    ]
    path = tmp_path / "deep.jsonl"
    path.write_text(
        "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
    )
    table, failures = featurize_dataset(load_jsonl(path))
    assert set(failures) == {"s3"}
    assert table.ids == ("s0", "s1", "s2", "s4", "s5")

    out = tmp_path / "out"
    assert run(["extract", "--input", path, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "skipped 1 unparsable samples" in err
    assert "'s3'" in err and "recursion" in err
    with open(out / "features.csv", newline="", encoding="utf-8") as fh:
        ids = [r[0] for r in csv.reader(fh)][1:]
    assert ids == ["s0", "s1", "s2", "s4", "s5"]
