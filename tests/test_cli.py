"""Command line behavior: manifests, exit codes, CSV shape, determinism."""

import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cegraph import cli, embed
from cegraph.cli import main
from cegraph.features import ALL_FEATURE_NAMES, EIG_FEATURE_NAMES, featurize_dataset
from cegraph.ingest import load_jsonl
from synth import write_synthetic_log

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
        (["ceg", "--y-axis", "feature:bogus"], "unknown y-axis feature 'bogus'"),
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
    ("ceg", "no evolution graphs could be built"),
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


# the t-SNE worker process dies (killed for memory, say) mid-run
_DEAD_WORKER = """
import os, sys
from cegraph import embed
from cegraph.cli import main

embed._usable_cpus = lambda: 2
embed._SPLIT_MIN_POINTS = 4
parent, run_group = os.getpid(), embed._run_group

def dying_in_worker(*args):
    if os.getpid() != parent:
        os._exit(1)
    run_group(*args)

embed._run_group = dying_in_worker
raise SystemExit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("worker", ["tsne"])
def test_a_dead_worker_exits_2_without_traceback(log_path, tmp_path, worker):
    proc = subprocess.run(
        [sys.executable, "-c", _DEAD_WORKER, "pipeline", "--input", str(log_path),
         "--out", str(tmp_path / "out"), "--iterations", "50"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == "error: t-SNE worker process exited with code 1"


_NO_MEMORY = ("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"
              " and data type float64")


def _kill_tsne_worker(monkeypatch):
    monkeypatch.setattr(embed, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(embed, "_SPLIT_MIN_POINTS", 4)
    parent, run_group = os.getpid(), embed._run_group

    def dying_in_worker(*args):
        if os.getpid() != parent:
            os._exit(1)
        run_group(*args)

    monkeypatch.setattr(embed, "_run_group", dying_in_worker)


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
    (_kill_tsne_worker, "error: t-SNE worker process exited with code 1"),
    (_run_out_of_memory, f"error: out of memory: {_NO_MEMORY}"),
    (_fail_heatmap_write, "i/o error: [Errno 28] No space left on device"),
], ids=["tsne_worker", "memory", "heatmap_write"])
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
