"""featurize_dataset's process pool: the same results as the serial path.

Whether the pool runs depends on the host's usable CPUs and the log's size,
so each test picks its path by replacing the private CPU-count helper.
"""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from cegraph import features
from cegraph.cli import main
from conftest import running
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

# every statement differs, so the distinct chunks reach the pool's threshold
samples = tuple(CodeSample(f"s{i}", f"s{i}", "r", "", "", "", i, (), None,
                           "".join(f"x{i}_{j} = 1\\n" for j in range(3000)))
                for i in range(24))

def dying(text):
    os._exit(1)

features._usable_cpus = lambda: 2
features._parse_chunk = dying
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


_KILLED_PARENT = """
import os, time
from cegraph import features
from cegraph.ingest import CodeSample, Dataset

def stuck(text):
    os.write(1, f"{os.getpid()}\\n".encode())  # one write: lines do not interleave
    time.sleep(600)

samples = tuple(CodeSample(f"s{i}", f"s{i}", "r", "", "", "", i, (), None, f"x{i} = 1\\n")
                for i in range(4 * features._CHUNKSIZE))
features._usable_cpus = lambda: 2
features._PARALLEL_MIN_CHARS = 1
features._parse_chunk = stuck
features.featurize_dataset(Dataset(samples))
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_pool_workers_exit_when_their_parent_is_killed():
    # its own process group, killed whole at the end or after 60 s, so a
    # worker that outlives its parent is not left running
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT], stdout=subprocess.PIPE,
                            text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                            start_new_session=True)
    timeout = threading.Timer(60.0, os.killpg, (proc.pid, signal.SIGKILL))
    timeout.start()
    try:
        workers = {int(proc.stdout.readline()) for _ in range(2)}
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 20.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
    finally:
        timeout.cancel()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.stdout.close()


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


def _featurized(path):
    """featurize_dataset's results for the log at path, and the worker count
    of each pool this process started."""
    table, failures = features.featurize_dataset(load_jsonl(path))
    return table.ids, table.values.tobytes(), list(failures.items()), CountingPool.started


def test_a_daemonic_process_runs_serially(monkeypatch, pool_spy, big_log):
    # multiprocessing.Pool workers are daemonic and may not start processes
    monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        *got, started = pool.apply(_featurized, (big_log,))
    assert started == []
    *want, started = _featurized(big_log)
    assert started == [2]
    assert got == want


# os.fork raises from its refused-th call on, as it does when the process
# or memory limit is reached
_REFUSED_FORK = """
import multiprocessing, os, sys
from cegraph import features
from cegraph.ingest import load_jsonl

path, refused = sys.argv[1], int(sys.argv[2])
fork, forks = os.fork, []

def refusing_fork():
    forks.append(1)
    if len(forks) >= refused:
        raise BlockingIOError(11, "Resource temporarily unavailable")
    return fork()

features._usable_cpus = lambda: 1
want, want_failures = features.featurize_dataset(load_jsonl(path))
features._usable_cpus = lambda: 2
os.fork = refusing_fork
got, got_failures = features.featurize_dataset(load_jsonl(path))
same = (got.ids == want.ids and got.values.tobytes() == want.values.tobytes()
        and list(got_failures.items()) == list(want_failures.items()))
print(len(forks), same, multiprocessing.active_children())
"""


@pytest.mark.parametrize("refused", [1, 2])
def test_a_refused_fork_runs_serially(big_log, refused):
    # a refused second fork leaves the first worker behind until it is killed
    proc = subprocess.run([sys.executable, "-c", _REFUSED_FORK, str(big_log), str(refused)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{refused} True []\n"


_REFUSED_PIPELINE = """
import os, sys
from cegraph import embed, features
from cegraph.cli import main

def refused_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")

features._usable_cpus = lambda: 2
embed._SPLIT_MIN_POINTS = 4  # the t-SNE worker is refused too
os.fork = refused_fork
raise SystemExit(main(sys.argv[1:]))
"""


def test_pipeline_with_a_refused_fork_writes_the_serial_artifacts(monkeypatch, big_log,
                                                                  tmp_path, capsys):
    argv = ["pipeline", "--input", str(big_log), "--policy", "drop-dangling-edges",
            "--iterations", "100"]
    monkeypatch.setattr(features, "_usable_cpus", lambda: 1)
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    serial = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-c", _REFUSED_PIPELINE, *argv,
                           "--out", str(tmp_path / "refused")],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == serial.err
    assert proc.stdout == serial.out.replace(str(tmp_path / "serial"),
                                             str(tmp_path / "refused"))
    artifacts = [{p.name: p.read_bytes() for p in sorted((tmp_path / side).iterdir())}
                 for side in ("serial", "refused")]
    assert len(artifacts[0]) == 6
    assert artifacts[1] == artifacts[0]
