"""featurize_dataset's process pool: the same results as the serial path.

Whether the pool runs depends on the host's usable CPUs and the log's size,
so each test picks its path by replacing the private CPU-count helper.
"""

import json
import os
import random
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from cegraph import features
from cegraph.cli import main
from cegraph.ingest import CodeSample, Dataset, load_jsonl
from synth import random_module

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def big_log(tmp_path_factory):
    """A log of about 300k characters of code, above the pool's threshold.
    Every ninth module is cut short so that it does not parse, and one
    sample names a parent that does not exist."""
    rng = random.Random(11)
    lines, chars, i = [], 0, 0
    while chars <= features._PARALLEL_MIN_CHARS + 40_000:
        code = random_module(rng, approx_lines=120)
        if i % 9 == 4:
            code = code[: len(code) // 2] + "\ndef broken(:\n"
        parents = ["ghost"] if i == 7 else [f"s{i - 3:03d}"] if i >= 3 else []
        lines.append(json.dumps({"id": f"s{i:03d}", "run_id": f"r{i % 3}",
                                 "evaluation_index": i, "parent_ids": parents,
                                 "fitness_raw": float(rng.randint(0, 50)), "code": code}))
        chars += len(code)
        i += 1
    path = tmp_path_factory.mktemp("pool") / "log.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class CountingPool(ProcessPoolExecutor):
    """A ProcessPoolExecutor that records the worker count of each pool."""

    started: list[int] = []

    def __init__(self, max_workers, **kwargs):
        CountingPool.started.append(max_workers)
        super().__init__(max_workers, **kwargs)


@pytest.fixture
def pool_spy(monkeypatch):
    import concurrent.futures

    CountingPool.started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return CountingPool.started


def test_pooled_and_serial_results_are_identical(monkeypatch, pool_spy, big_log):
    dataset = load_jsonl(big_log)
    assert sum(len(s.code) for s in dataset.samples) >= features._PARALLEL_MIN_CHARS

    monkeypatch.setattr(features, "_usable_cpus", lambda: 1)
    serial, serial_failures = features.featurize_dataset(dataset, include_eigenvector=True)
    assert pool_spy == []
    monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
    pooled, pooled_failures = features.featurize_dataset(dataset, include_eigenvector=True)
    assert pool_spy == [2]

    assert len(serial_failures) >= 3 and len(serial.ids) >= 20
    assert pooled.ids == serial.ids
    assert pooled.names == serial.names
    assert pooled.values.tobytes() == serial.values.tobytes()
    assert list(pooled_failures.items()) == list(serial_failures.items())


def test_small_log_stays_serial(monkeypatch, pool_spy):
    monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
    code = "x = 1\n"
    samples = tuple(CodeSample(f"s{i}", f"s{i}", "r", "", "", "", i, (), None, code)
                    for i in range(64))
    table, _ = features.featurize_dataset(Dataset(samples))
    assert len(table.ids) == 64
    assert pool_spy == []


def test_pipeline_output_is_the_same_on_both_paths(monkeypatch, pool_spy, big_log,
                                                   tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["pipeline", "--input", str(big_log), "--out", str(out),
            "--policy", "drop-dangling-edges", "--iterations", "100"]
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(features, "_usable_cpus", lambda: cpus)
        assert main(argv) == 0
        captured = capsys.readouterr()
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        results.append((captured.out, captured.err, artifacts))
    assert pool_spy == [2]
    assert "skipped" in results[0][1] and "dropped" in results[0][1]
    assert len(results[0][2]) == 6
    assert results[1] == results[0]


_DYING_WORKER = """
import os
from concurrent.futures.process import BrokenProcessPool

from cegraph import features
from cegraph.ingest import CodeSample, Dataset

code = "x = 1\\n" * 3000
samples = tuple(CodeSample(f"s{i}", f"s{i}", "r", "", "", "", i, (), None, code)
                for i in range(24))
features._usable_cpus = lambda: 2
features.featurize = lambda code, include_eigenvector=False: os._exit(1)
try:
    features.featurize_dataset(Dataset(samples))
except BrokenProcessPool:
    print("BrokenProcessPool")
"""


def test_a_dying_worker_raises_instead_of_hanging():
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "BrokenProcessPool\n"


def test_pool_modules_are_imported_only_when_a_pool_runs():
    script = (
        "import sys\n"
        "import cegraph.cli\n"
        "from cegraph.features import featurize_dataset\n"
        "from cegraph.ingest import CodeSample, Dataset\n"
        "featurize_dataset(Dataset((CodeSample('a', 'a', 'r', '', '', '', 0, (), None,"
        " 'x = 1\\n'),)))\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
