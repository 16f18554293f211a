"""tsne with its gradient split into row blocks: the same bits as the dense
oracle.

embed._row_blocks cuts the packed affinities and kernel into blocks of
about _BLOCK_BYTES; inputs of up to 181 points fit in one block, so each
test here shrinks the blocks to run several. The bitwise tests in
test_embed.py run single-block sizes.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cegraph import embed

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def split(monkeypatch):
    """Blocks of 256 bytes cut the rows into several (2 at n=8, 67 of one
    row at n=67)."""
    monkeypatch.setattr(embed, "_BLOCK_BYTES", 256)


@contextmanager
def pinned(cpus):
    """This thread runs on the first cpus of its usable CPUs."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < cpus:
        pytest.skip(f"needs {cpus} usable CPUs")
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(usable)[:cpus])
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


def _inputs(n, seed=0):
    X = np.random.default_rng(seed + n).normal(size=(n, 3))
    X[-1] = X[0]
    return X, min(5.0, (n - 1) / 3.0)


# every n mod 8, odd and even n, an odd number of blocks (n=9: 3 blocks
# of 3 rows) and a short last block (n=10: 4 blocks of 3 rows)
@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 14, 15, 67])
def test_split_tsne_bitwise_equal_to_dense_reference(split, n):
    assert len(embed._row_blocks(n)) >= 2
    X, perplexity = _inputs(n)
    got = embed.tsne(X, perplexity=perplexity, seed=n, iterations=300).coords
    want = oracles.tsne_reference(X, perplexity, n, iterations=300)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 13, 14, 15, 41])
def test_kl_and_gradient_bitwise_equal_to_dense_reference(split, n):
    X, perplexity = _inputs(n, seed=5)
    work = embed._Work(n)
    embed._joint_probabilities(X, perplexity, work)
    P = oracles.unpacked(work.P, n)
    for Y in (np.random.default_rng(n).normal(size=(n, 2)),
              np.random.default_rng(n).normal(0.0, 1e-4, size=(n, 2))):
        kl, grad = embed.kl_divergence_and_grad(P, Y)
        want_kl, want_grad = oracles.kl_divergence_and_grad_reference(P, Y)
        assert kl == want_kl
        assert grad.tobytes() == want_grad.tobytes()


# blocks of 1 to 3 rows, so that most runs of rows end on a shorter block,
# with this thread on one CPU and on two
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("n", [13, 67])
@pytest.mark.parametrize("cpus", [1, 2])
def test_row_blocks_keep_the_bits(monkeypatch, cpus, n, rows):
    monkeypatch.setattr(embed, "_BLOCK_BYTES", 8 * n * rows)
    X, perplexity = _inputs(n, seed=3)
    with pinned(cpus):
        got = embed.tsne(X, perplexity=perplexity, seed=n, iterations=300).coords
    want = oracles.tsne_reference(X, perplexity, n, iterations=300)
    assert got.tobytes() == want.tobytes()


# OpenBLAS runs a product of at most this many multiply-adds on one thread
_ONE_THREAD = 1 << 18


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 20_000))
@example(181)
@example(182)
@example(400)
@example(19_660)
@example(20_000)
def test_row_blocks_by_arithmetic(n):
    blocks = embed._row_blocks(n)
    ends = list(blocks[1:]) + [n]
    assert blocks.start == 0 and all(r < e for r, e in zip(blocks, ends))
    pairs = 0
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
    assert pairs == n * (n - 1) // 2


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
    # a library caller's BLAS runs a thread per usable CPU; from about 900
    # points, whole matrix products round differently on one and on two
    # threads, but each row block's product stays on one
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
