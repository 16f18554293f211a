"""tsne's two-process gradient: the same bits as the serial path.

Whether the worker runs depends on n and the host's usable CPUs, so each
test picks its path by replacing the private threshold and CPU-count
helper; the tests also run on a one-CPU host. The t-SNE worker is the only
process cegraph forks: featurization runs in the calling process.
"""

import json
import multiprocessing
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import running
from cegraph import embed, features
from cegraph.cli import main
from cegraph.ingest import load_jsonl
from synth import random_module

SRC = Path(__file__).resolve().parent.parent / "src"


class CountingHelper(embed._Helper):
    """An embed._Helper that records the row split of each worker."""

    started: list[tuple[int, int]] = []

    def __init__(self, context, n):
        super().__init__(context, n)
        CountingHelper.started.append((self.work.lo, n))


@pytest.fixture
def helpers(monkeypatch):
    CountingHelper.started = []
    monkeypatch.setattr(embed, "_Helper", CountingHelper)
    return CountingHelper.started


@pytest.fixture
def split(monkeypatch, helpers):
    """Every tsne call with n >= 4 forks a worker, and blocks of 256 bytes
    cut the rows into several (2 at n=8, 67 of one row at n=67)."""
    monkeypatch.setattr(embed, "_SPLIT_MIN_POINTS", 4)
    monkeypatch.setattr(embed, "_BLOCK_BYTES", 256)
    monkeypatch.setattr(embed, "_usable_cpus", lambda: 2)
    return helpers


def worker_rows(n):
    """The worker's rows: from the first row block boundary that shares the
    blocks' packed areas (rows r:e hold (e - r) * (n - r) entries) most
    evenly between the rows before it and the rows from it on."""
    starts = list(embed._row_blocks(n)) + [n]
    area = [(e - r) * (n - r) for r, e in zip(starts, starts[1:])]
    cut = min(range(1, len(area)), key=lambda k: abs(sum(area[:k]) - sum(area[k:])))
    return starts[cut], n


def _inputs(n, seed=0):
    X = np.random.default_rng(seed + n).normal(size=(n, 3))
    X[-1] = X[0]
    return X, min(5.0, (n - 1) / 3.0)


# every n mod 8, odd and even n, an odd number of blocks (n=9: 3 blocks
# of 3 rows) and a short last block (n=10: 4 blocks of 3 rows)
@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 14, 15, 67])
def test_split_tsne_bitwise_equal_to_dense_reference(split, n):
    X, perplexity = _inputs(n)
    got = embed.tsne(X, perplexity=perplexity, seed=n, iterations=300).coords
    assert split == [worker_rows(n)]
    assert split[0][0] in embed._row_blocks(n)
    want = oracles.tsne_reference(X, perplexity, n, iterations=300)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 14, 15, 41])
def test_kl_and_gradient_bitwise_equal_to_dense_reference(split, n):
    X, perplexity = _inputs(n, seed=5)
    P = np.empty((n, n))
    embed._joint_probabilities(X, perplexity, P, np.empty_like(P))
    P = oracles.unpacked(P)
    for Y in (np.random.default_rng(n).normal(size=(n, 2)),
              np.random.default_rng(n).normal(0.0, 1e-4, size=(n, 2))):
        kl, grad = embed.kl_divergence_and_grad(P, Y)
        want_kl, want_grad = oracles.kl_divergence_and_grad_reference(P, Y)
        assert kl == want_kl
        assert grad.tobytes() == want_grad.tobytes()


# blocks of 1 to 3 rows: each process runs several blocks, and most row
# ranges end on a shorter one
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("n", [13, 67])
@pytest.mark.parametrize("cpus", [1, 2])
def test_row_blocks_keep_the_bits(monkeypatch, helpers, cpus, n, rows):
    monkeypatch.setattr(embed, "_BLOCK_BYTES", 8 * n * rows)
    monkeypatch.setattr(embed, "_SPLIT_MIN_POINTS", 4)
    monkeypatch.setattr(embed, "_usable_cpus", lambda: cpus)
    X, perplexity = _inputs(n, seed=3)
    got = embed.tsne(X, perplexity=perplexity, seed=n, iterations=300).coords
    assert helpers == ([worker_rows(n)] if cpus == 2 else [])
    want = oracles.tsne_reference(X, perplexity, n, iterations=300)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(4, 40), st.floats(-4.0, 3.0), st.sampled_from([1.0, 12.0]),
       st.integers(0, 2**32 - 1))
def test_blocks_have_the_same_bits_in_either_process(data, n, scale, exaggeration, seed):
    # a block's kernel, its total and its gradient terms have the same bits
    # whichever process computes them: a worker that takes the second group
    # of blocks gives the serial path's kernel, total and gradient, which
    # are the dense oracle's
    rows = data.draw(st.integers(1, n // 2))
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(n, 2)) * 10.0**scale
    Y[-1] = Y[0]
    P = rng.random((n, n))
    P += P.T
    P /= P.sum()
    with mock.patch.object(embed, "_BLOCK_BYTES", 8 * n * rows):
        serial = embed._Work(n)
        embed._pack(P, serial)
        want = embed._gradient(serial, Y, exaggeration)
        helper = embed._Helper(multiprocessing.get_context("fork"), n)
        try:
            embed._pack(P, helper.work)
            got = embed._gradient(helper.work, Y, exaggeration, helper)
        finally:
            helper.close()
        _, oracle = oracles.kl_divergence_and_grad_reference(exaggeration * P, Y)
        assert (helper.work.lo, n) == worker_rows(n)
        kernels = [oracles.unpacked(work.num).tobytes() for work in (helper.work, serial)]
    assert 0 < helper.work.lo < n
    assert kernels[0] == kernels[1]
    assert helper.work.ctrl[1] == serial.ctrl[1]
    assert got.tobytes() == want.tobytes() == oracle.tobytes()


# OpenBLAS runs a product of at most this many multiply-adds on one thread
_ONE_THREAD = 1 << 18


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 20_000))
@example(181)
@example(182)
@example(299)
@example(300)
@example(392)
@example(400)
@example(19_660)
@example(20_000)
def test_blocks_and_groups_by_arithmetic(n):
    blocks = embed._row_blocks(n)
    ends = list(blocks[1:]) + [n]
    assert blocks.start == 0 and all(r < e for r, e in zip(blocks, ends))
    pairs, area = 0, []
    for r, e in zip(blocks, ends):
        h, w = e - r, n - r
        # the kernel (h, 5) @ (5, w), the rows' (h, w) @ (w, 3) and the
        # later rows' (w - h, h) @ (h, 3)
        assert h * w * 5 <= _ONE_THREAD
        assert h * w * 3 <= _ONE_THREAD
        assert (w - h) * h * 3 <= _ONE_THREAD
        # the pairs i < j stored in the block: within its square, and
        # between its rows and the later ones
        pairs += h * (h - 1) // 2 + h * (w - h)
        area.append(h * w)
    assert pairs == n * (n - 1) // 2
    first, second = embed._groups(n)
    assert first == range(len(first)) and second == range(len(first), len(blocks))
    assert len(first) >= 1 and bool(second) == (len(blocks) > 1)
    if n >= embed._SPLIT_MIN_POINTS:
        # the larger group holds at most 60% of the packed entries (60% at
        # n=300, where 4 blocks hold 22500, 16875, 11250 and 5625)
        shares = sum(area[k] for k in first), sum(area[k] for k in second)
        assert 5 * max(shares) <= 3 * sum(area)


_ON_CPUS = """
import hashlib, os
os.sched_setaffinity(0, {cpus})
import numpy as np  # after the affinity is set: OpenBLAS sizes its threads on load
from cegraph import embed
for n in (392, 400, 900, 1000):
    X = np.random.default_rng(n).normal(size=(n, 28))
    Y = embed.tsne(X, perplexity=30.0, seed=1, iterations=30).coords
    print(n, hashlib.sha256(Y.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_tsne_has_the_same_bits_on_one_and_on_two_cpus():
    # from about 900 points, whole matrix products round differently on one
    # and on two BLAS threads; at 392 and 400 points the groups hold 2 and 4
    # of 6 blocks; 30 iterations run both paths of the split
    cpus = sorted(os.sched_getaffinity(0))[:2]
    env = {k: v for k, v in os.environ.items() if not k.startswith(("OPENBLAS_", "OMP_"))}
    env["PYTHONPATH"] = str(SRC)
    runs = [subprocess.run([sys.executable, "-c", _ON_CPUS.format(cpus=chosen)],
                           capture_output=True, text=True, env=env, timeout=120)
            for chosen in (cpus[:1], cpus)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout.count("\n") == 4
    assert runs[0].stdout == runs[1].stdout


def test_path_is_chosen_from_n_and_usable_cpus(monkeypatch, helpers):
    monkeypatch.setattr(embed, "_BLOCK_BYTES", 256)
    X, perplexity = _inputs(12)
    results = []
    for threshold, cpus in ((13, 2), (12, 1), (12, 2)):
        monkeypatch.setattr(embed, "_SPLIT_MIN_POINTS", threshold)
        monkeypatch.setattr(embed, "_usable_cpus", lambda: cpus)
        results.append(embed.tsne(X, perplexity=perplexity, iterations=40).coords.tobytes())
    # 6 blocks of 2 rows; the first 2 hold 24 + 20 of the 84 packed entries
    assert helpers == [(4, 12)]
    assert results[0] == results[1] == results[2]


def test_large_inputs_take_the_split_by_default(monkeypatch, helpers):
    monkeypatch.setattr(embed, "_usable_cpus", lambda: 2)
    n = embed._SPLIT_MIN_POINTS
    X = np.random.default_rng(1).normal(size=(n, 4))
    embed.tsne(X, perplexity=30.0, iterations=1)
    embed.tsne(X[:-1], perplexity=30.0, iterations=1)
    # 4 blocks of 75 rows, of 22500, 16875, 11250 and 5625 packed entries
    assert helpers == [(75, n)]


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
from cegraph import embed

embed._usable_cpus = lambda: 2
embed._SPLIT_MIN_POINTS = 4
parent = os.getpid()
run_group = embed._run_group

def dying(work, command, group):
    if os.getpid() != parent:
        os._exit(1)
    run_group(work, command, group)

embed._run_group = dying
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
from cegraph import embed

embed._usable_cpus = lambda: 2
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
from cegraph import embed

forks = []

def refused_fork():
    forks.append(1)
    raise BlockingIOError(11, "Resource temporarily unavailable")

embed._SPLIT_MIN_POINTS = 4
X = np.random.default_rng(0).normal(size=(30, 3))
embed._usable_cpus = lambda: 1
want = embed.tsne(X, perplexity=5.0, iterations=100).coords
embed._usable_cpus = lambda: 2
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
    assert split == [(4, 12)]


@pytest.fixture(scope="module")
def big_log(tmp_path_factory):
    """A log whose distinct chunks hold more than 393,216 characters
    (3 * 2^17). Every ninth module is cut short so that it does not parse,
    and one sample names a parent that does not exist."""
    rng = random.Random(11)
    lines, chars, i = [], 0, 0
    while chars <= (3 << 17) + 40_000:
        code = random_module(rng, approx_lines=120)
        if i % 9 == 4:
            code = code[: len(code) // 2] + "\ndef broken(:\n"
        parents = ["ghost"] if i == 7 else [f"s{i - 3:03d}"] if i >= 3 else []
        lines.append(json.dumps({"id": f"s{i:03d}", "run_id": f"r{i % 3}",
                                 "evaluation_index": i, "parent_ids": parents,
                                 "fitness_raw": float(rng.randint(0, 50)), "code": code}))
        chars += len(code)
        i += 1
    path = tmp_path_factory.mktemp("big") / "log.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


_PIPELINE = ["pipeline", "--policy", "drop-dangling-edges", "--iterations", "100"]


def test_pipeline_output_is_the_same_on_one_and_two_cpus(monkeypatch, split, big_log,
                                                        tmp_path, capsys):
    out = tmp_path / "out"
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(embed, "_usable_cpus", lambda: cpus)
        assert main(_PIPELINE + ["--input", str(big_log), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        results.append((captured.out, captured.err, artifacts))
    ((lo, n),) = split
    assert 0 < lo < n
    assert "skipped" in results[0][1] and "dropped" in results[0][1]
    assert len(results[0][2]) == 6
    assert results[1] == results[0]


_REFUSED_PIPELINE = """
import os, sys
from cegraph import embed
from cegraph.cli import main

def refused_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")

embed._usable_cpus = lambda: 2
embed._SPLIT_MIN_POINTS = 4
os.fork = refused_fork
raise SystemExit(main(sys.argv[1:]))
"""


def test_pipeline_with_a_refused_fork_writes_the_serial_artifacts(monkeypatch, big_log,
                                                                  tmp_path, capsys):
    argv = _PIPELINE + ["--input", str(big_log)]
    monkeypatch.setattr(embed, "_usable_cpus", lambda: 1)
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


_FEATURIZE = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs on any host
fork, forks = os.fork, []

def counting_fork():
    forks.append(1)
    return fork()

os.fork = counting_fork
import cegraph.cli
from cegraph.features import featurize_dataset
from cegraph.ingest import load_jsonl
table, failures = featurize_dataset(load_jsonl(sys.argv[1]))
print(len(table.ids), len(failures), len(forks),
      sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules)))
"""


def test_a_large_log_is_featurized_in_this_process(big_log):
    samples = load_jsonl(big_log).samples
    counts = Counter(chain.from_iterable(features._statements(s.code) for s in samples))
    distinct = dict.fromkeys(chain.from_iterable(features._chunks(s.code, counts)
                                                 for s in samples))
    assert sum(map(len, distinct)) > 3 << 17
    proc = subprocess.run([sys.executable, "-c", _FEATURIZE, str(big_log)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    parsed, failed, forks, modules = proc.stdout.split(maxsplit=3)
    assert int(parsed) >= 20 and int(failed) >= 3
    assert (forks, modules) == ("0", "[]\n")
