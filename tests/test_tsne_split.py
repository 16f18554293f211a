"""tsne's two-process gradient: the same bits as the serial path.

Whether the worker runs depends on n and the host's usable CPUs, so each
test picks its path by replacing the private threshold and CPU-count
helper; the tests also run on a one-CPU host.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import running
from cegraph import embed, features

SRC = Path(__file__).resolve().parent.parent / "src"


class CountingHelper(embed._Helper):
    """An embed._Helper that records the row split of each worker."""

    started: list[tuple[int, int]] = []

    def __init__(self, context, n):
        super().__init__(context, n)
        CountingHelper.started.append((self.lo, n))


@pytest.fixture
def helpers(monkeypatch):
    CountingHelper.started = []
    monkeypatch.setattr(embed, "_Helper", CountingHelper)
    return CountingHelper.started


@pytest.fixture
def split(monkeypatch, helpers):
    """Every tsne call with n >= 4 forks a worker."""
    monkeypatch.setattr(embed, "_SPLIT_MIN_POINTS", 4)
    monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
    return helpers


def _inputs(n, seed=0):
    X = np.random.default_rng(seed + n).normal(size=(n, 3))
    X[-1] = X[0]
    return X, min(5.0, (n - 1) / 3.0)


# every n mod 8, odd and even n, and an odd split (the worker takes the
# larger half)
@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 14, 15, 67])
def test_split_tsne_bitwise_equal_to_dense_reference(split, n):
    X, perplexity = _inputs(n)
    got = embed.tsne(X, perplexity=perplexity, seed=n, iterations=300).coords
    assert split == [(n // 2, n)]
    want = oracles.tsne_reference(X, perplexity, n, iterations=300)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 14, 15, 41])
def test_kl_and_gradient_bitwise_equal_to_dense_reference(split, n):
    X, perplexity = _inputs(n, seed=5)
    P = np.empty((n, n))
    embed._joint_probabilities(X, perplexity, P)
    for Y in (np.random.default_rng(n).normal(size=(n, 2)),
              np.random.default_rng(n).normal(0.0, 1e-4, size=(n, 2))):
        kl, grad = embed.kl_divergence_and_grad(P, Y)
        want_kl, want_grad = oracles.kl_divergence_and_grad_reference(P, Y)
        assert kl == want_kl
        assert grad.tobytes() == want_grad.tobytes()


# blocks of 1 to 3 rows: each process runs several blocks of exaggerated
# affinities, and most row ranges end on a shorter one
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("n", [13, 67])
@pytest.mark.parametrize("cpus", [1, 2])
def test_row_blocks_keep_the_bits(monkeypatch, helpers, cpus, n, rows):
    monkeypatch.setattr(embed, "_BLOCK_BYTES", 8 * n * rows)
    monkeypatch.setattr(embed, "_SPLIT_MIN_POINTS", 4)
    monkeypatch.setattr(features, "_usable_cpus", lambda: cpus)
    X, perplexity = _inputs(n, seed=3)
    got = embed.tsne(X, perplexity=perplexity, seed=n, iterations=300).coords
    assert helpers == ([(n // 2, n)] if cpus == 2 else [])
    want = oracles.tsne_reference(X, perplexity, n, iterations=300)
    assert got.tobytes() == want.tobytes()


def test_path_is_chosen_from_n_and_usable_cpus(monkeypatch, helpers):
    X, perplexity = _inputs(12)
    results = []
    for threshold, cpus in ((13, 2), (12, 1), (12, 2)):
        monkeypatch.setattr(embed, "_SPLIT_MIN_POINTS", threshold)
        monkeypatch.setattr(features, "_usable_cpus", lambda: cpus)
        results.append(embed.tsne(X, perplexity=perplexity, iterations=40).coords.tobytes())
    assert helpers == [(6, 12)]
    assert results[0] == results[1] == results[2]


def test_large_inputs_take_the_split_by_default(monkeypatch, helpers):
    monkeypatch.setattr(features, "_usable_cpus", lambda: 2)
    n = embed._SPLIT_MIN_POINTS
    X = np.random.default_rng(1).normal(size=(n, 4))
    embed.tsne(X, perplexity=30.0, iterations=1)
    embed.tsne(X[:-1], perplexity=30.0, iterations=1)
    assert helpers == [(n // 2, n)]


class FakeClock:
    """perf_counter for embed: each gradient advances it by the cost its
    path has in the current cycle."""

    def __init__(self, costs):
        self.now, self.costs, self.split = 0.0, costs, []

    def perf_counter(self):
        return self.now


def test_the_faster_path_runs_and_keeps_the_bits(split, monkeypatch):
    # cycle 0: the split is faster; cycle 1: the serial path is
    clock = FakeClock({0: {True: 1.0, False: 2.0}, 1: {True: 3.0, False: 2.0}})
    monkeypatch.setattr(embed, "time", clock)
    gradient = embed._gradient

    def timed(work, Y, exaggeration, helper=None):
        clock.split.append(helper is not None)
        clock.now += clock.costs[(len(clock.split) - 1) // embed._CYCLE][helper is not None]
        return gradient(work, Y, exaggeration, helper)

    monkeypatch.setattr(embed, "_gradient", timed)
    X, perplexity = _inputs(21)
    got = embed.tsne(X, perplexity=perplexity, seed=4, iterations=300).coords
    assert clock.split == ([True] * 10 + [False] * 10 + [True] * 180
                           + [True] * 10 + [False] * 90)
    want = oracles.tsne_reference(X, perplexity, 4, iterations=300)
    assert got.tobytes() == want.tobytes()


def test_split_is_exact_while_other_processes_compete_for_the_cpus(split, monkeypatch):
    # more runnable processes than cores: the worker and this process are
    # descheduled mid-phase and fall back to blocking waits, so a result
    # read before the other process finished writing it shows as a change
    # in the coordinates. The worker runs every iteration, though it is
    # slower here
    monkeypatch.setattr(embed, "_WINDOW", 1000)
    X, perplexity = _inputs(40, seed=9)
    want = oracles.tsne_reference(X, perplexity, 2, iterations=300)
    busy = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
            for _ in range(os.cpu_count() or 1)]
    try:
        deadline = time.monotonic() + 8.0
        runs = 0
        while runs < 3 or (time.monotonic() < deadline and runs < 40):
            got = embed.tsne(X, perplexity=perplexity, seed=2, iterations=300).coords
            assert got.tobytes() == want.tobytes()
            runs += 1
    finally:
        for p in busy:
            p.kill()
            p.wait(timeout=10)
    assert len(split) == runs


_DYING_WORKER = """
import multiprocessing, os, time
import numpy as np
from cegraph import embed, features

features._usable_cpus = lambda: 2
embed._SPLIT_MIN_POINTS = 4
parent = os.getpid()
run_rows = embed._run_rows

def dying(work, command, lo, hi):
    if os.getpid() != parent:
        os._exit(1)
    run_rows(work, command, lo, hi)

embed._run_rows = dying
start = time.monotonic()
try:
    embed.tsne(np.random.default_rng(0).normal(size=(30, 3)), perplexity=5.0)
except RuntimeError as exc:
    print(exc)
print(multiprocessing.active_children(), time.monotonic() - start < 20)
"""


def test_a_dying_worker_raises_instead_of_hanging():
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "t-SNE worker process exited with code 1\n[] True\n"


_DYING_PARENT = """
import os
import numpy as np
from cegraph import embed, features

features._usable_cpus = lambda: 2
embed._SPLIT_MIN_POINTS = 4
embed._WINDOW = 1000  # the worker runs every iteration
gradient = embed._gradient
calls = []

def dying(work, Y, exaggeration, helper=None):
    calls.append(1)
    if len(calls) == 50:
        print(helper._process.pid, flush=True)
        os._exit(0)
    return gradient(work, Y, exaggeration, helper)

embed._gradient = dying
embed.tsne(np.random.default_rng(0).normal(size=(30, 3)), perplexity=5.0)
"""


_REFUSED_FORK = """
import multiprocessing, os
import numpy as np
from cegraph import embed, features

forks = []

def refused_fork():
    forks.append(1)
    raise BlockingIOError(11, "Resource temporarily unavailable")

embed._SPLIT_MIN_POINTS = 4
X = np.random.default_rng(0).normal(size=(30, 3))
features._usable_cpus = lambda: 1
want = embed.tsne(X, perplexity=5.0, iterations=100).coords
features._usable_cpus = lambda: 2
os.fork = refused_fork
got = embed.tsne(X, perplexity=5.0, iterations=100).coords
print(len(forks), got.tobytes() == want.tobytes(), multiprocessing.active_children())
"""


def test_a_refused_fork_runs_serially():
    proc = subprocess.run([sys.executable, "-c", _REFUSED_FORK], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 True []\n"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_the_worker_exits_when_its_parent_dies():
    proc = subprocess.run([sys.executable, "-c", _DYING_PARENT], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    worker = int(proc.stdout)
    deadline = time.monotonic() + 20.0
    while running(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(worker)


def test_split_modules_are_imported_only_when_the_split_runs():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import cegraph\n"
        "cegraph.tsne(np.random.default_rng(0).normal(size=(30, 3)), perplexity=5.0,"
        " iterations=20)\n"
        "print(sorted({'multiprocessing', 'mmap'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _tsne_coords(X, perplexity):
    return embed.tsne(X, perplexity=perplexity, iterations=40).coords


def test_a_daemonic_process_runs_serially(split):
    # multiprocessing.Pool workers are daemonic and may not start processes
    X, perplexity = _inputs(12)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply(_tsne_coords, (X, perplexity))
    assert split == []
    assert got.tobytes() == _tsne_coords(X, perplexity).tobytes()
    assert split == [(6, 12)]
