"""Projections and rank statistics: PCA, exact t-SNE, Spearman correlation.

Everything here is deterministic given its arguments. PCA diagonalizes the
sample covariance (ddof=1) with a symmetric eigensolver and fixes the sign
of each component so its largest-magnitude coefficient is positive. t-SNE
is the exact O(n^2) formulation: per-point bandwidths found by one
bisection on the Shannon entropy that steps all rows at once, early
exaggeration, momentum switch, seeded initialization from a dedicated
generator. The optimization loop computes only the gradient, in two
(n, n) buffers allocated once per call, the affinities and the kernel.
Both are symmetric, so each fixed block of rows stores and computes only
its columns from its own first row on: each pair's kernel and gradient
term is computed once. The KL value is not evaluated inside the loop. On
two or more CPUs a large input's gradient is computed by two processes,
each over a group of blocks that holds about half the pairs, with the
same bits as one process gives, whatever the number of CPUs.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import signal
import time
from dataclasses import dataclass

import numpy as np

from .ceg import feature_columns


@dataclass(frozen=True, eq=False)
class PcaResult:
    components: np.ndarray  # (k, d) rows are unit-norm directions
    explained_variance_ratio: np.ndarray  # (k,)
    projected: np.ndarray  # (n, k)
    mean: np.ndarray  # (d,)


def _finite(X) -> np.ndarray:
    """X as a C-contiguous float array, so that results do not depend on
    its layout; ValueError if it holds a NaN or an infinity."""
    X = np.ascontiguousarray(X, dtype=float)
    bad = X.size - np.count_nonzero(np.isfinite(X))
    if bad:
        raise ValueError(f"X holds {bad} non-finite entries")
    return X


def pca(X, k: int) -> PcaResult:
    """Principal components of a row-sample matrix X with shape (n, d).

    Requires finite X, n >= 2 and 1 <= k <= min(n - 1, d). Eigenvalues
    below 0 from round-off are clamped; ratios are taken over all d
    eigenvalues.
    """
    X = _finite(X)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k={k} out of range for {n} samples, {d} features")

    # canonical row order: reductions see the same summands in the same
    # sequence no matter how callers ordered their samples, so the mean,
    # covariance, and eigendecomposition are bitwise permutation-invariant
    order = np.lexsort(X.T[::-1])
    Xs = X[order]
    mean = Xs.mean(axis=0)
    centered_s = Xs - mean
    cov = (centered_s.T @ centered_s) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]

    components = eigvecs[:, :k].T.copy()
    for i in range(k):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]

    total = float(eigvals.sum())
    if total > 0.0:
        ratio = eigvals[:k] / total
    else:
        ratio = np.zeros(k)
    projected = (X - mean) @ components.T
    return PcaResult(
        components=components,
        explained_variance_ratio=ratio,
        projected=projected,
        mean=mean,
    )


def _row_blocks(n: int) -> range:
    """The first rows of the fixed row blocks in which every O(n^2) step
    of exact t-SNE runs. They depend on n alone, so the serial and the
    split path, and the dense oracle of the tests, cut each product the
    same way: an (n, n) buffer larger than _BLOCK_BYTES is cut into an
    even number of blocks of about that size."""
    count = -(-8 * n * n // _BLOCK_BYTES)
    if count > 1:
        count += count % 2
    return range(0, n, -(-n // count))


def _groups(n: int) -> tuple[range, range]:
    """The indices of the row blocks of each of the two groups that the
    split runs in two processes: contiguous, and cut at the boundary that
    shares the blocks' packed areas most evenly (the first such boundary
    on a tie). A block of rows r:r+h holds h * (n - r) entries (_packed),
    so the first group takes fewer blocks than the second. Like the
    blocks, the groups depend on n alone; with one block the second group
    is empty."""
    blocks = _row_blocks(n)
    ends = list(blocks[1:]) + [n]
    area = list(itertools.accumulate((end - r) * (n - r) for r, end in zip(blocks, ends)))
    cut = min(range(1, len(blocks)), key=lambda k: abs(2 * area[k - 1] - area[-1]), default=1)
    return range(cut), range(cut, len(blocks))


def _packed(M: np.ndarray, r: int, h: int) -> np.ndarray:
    """The block of rows r:r+h of a symmetric matrix in the packed layout of
    the C-contiguous (n, n) buffer M: their columns r:n (the block's h x h
    square on the diagonal and everything right of it), as one
    C-contiguous (h, n - r) array at the start of the block's own rows.
    Over the blocks of _row_blocks(n), each pair i < j is stored once,
    in the block of row i."""
    n = M.shape[0]
    return M.reshape(-1)[r * n:r * n + h * (n - r)].reshape(h, n - r)


def _total(M: np.ndarray, h: int) -> float:
    """The sum over the symmetric matrix that the packed (h, w) block M
    stands for in its rows and columns: the square once and the entries
    right of it twice, since they also stand for their mirror images."""
    total = M[:, :h].sum()
    return total + 2.0 * M[:, h:].sum() if M.shape[1] > h else total


def _off_diagonal(M: np.ndarray) -> np.ndarray:
    """The entries of the C-contiguous (n, n) array M off its diagonal, in
    row order, as an (n - 1, n) view."""
    n = M.shape[0]
    return M.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1]


def _joint_probabilities(X: np.ndarray, perplexity: float, P: np.ndarray,
                         scratch: np.ndarray) -> None:
    """Symmetrized joint probabilities with per-point bandwidth search,
    written to the C-contiguous (n, n) buffer P in the packed layout of
    _packed; the C-contiguous (n, n) buffer scratch holds the distances
    meanwhile and is left undefined.

    The squared distances are sums of exact squared differences, one
    feature after another, so they need no matrix product and their bits
    do not depend on the BLAS thread count. Bisection on
    beta = 1/(2 sigma^2) targets Shannon entropy log2(perplexity) within
    1e-5, at most 50 steps per point. All rows step together; a row leaves
    the active set once it converges, keeping the probabilities of the
    last beta it tried. P first holds the squared distances, then the
    rows' probabilities, and the rows step one block at a time, so the
    search allocates no (n, n) array of its own.
    """
    n = X.shape[0]
    blocks = _row_blocks(n)
    diff = np.empty((blocks.step, n))
    # the squared distances into P, a block of rows at a time, as the sums
    # of (x_i - x_j)^2 over the features in order
    for r in blocks:
        D = P[r:r + blocks.step]
        t = diff[:len(D)]
        D.fill(0.0)
        for x in X.T:
            np.subtract(x[r:r + blocks.step, None], x, out=t)
            np.multiply(t, t, out=t)
            D += t
    del diff
    # row i of the distances without D[i, i], copied to scratch; each row
    # is C-contiguous, so its sum reduces exactly as a 1-d sum over that
    # row does
    Doff = scratch.reshape(-1)[:n * (n - 1)].reshape(n, n - 1)
    Doff.reshape(n - 1, n)[...] = _off_diagonal(P)
    # the rows' probabilities, in the memory of P that the distances left
    Poff = P.reshape(-1)[:n * (n - 1)].reshape(n, n - 1)
    target = math.log2(perplexity)
    beta = np.ones(n)
    betamin = np.full(n, -np.inf)
    betamax = np.full(n, np.inf)
    entropy = np.empty(n)
    active = np.arange(n)
    for _ in range(50):
        b = beta[active]
        # a block of the active rows at a time, so that their pi and
        # entropy terms take no (n, n) buffer; each row's sums reduce the
        # same way in any block
        for c in range(0, active.size, blocks.step):
            rows = active[c:c + blocks.step]
            # the kernel exp(-beta D), normalized in place to the rows' pi
            pi = Doff[rows]
            pi *= -b[c:c + blocks.step, None]
            np.exp(pi, out=pi)
            s = pi.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                pi /= s[:, None]
                pi[s <= 0.0] = 0.0
            terms = np.log2(pi, out=np.zeros_like(pi), where=pi > 0.0)
            terms *= pi
            entropy[c:c + len(rows)] = -terms.sum(axis=1)
            Poff[rows] = pi
        # summing the zeros too may move h by an ulp from a sum over the
        # nonzero terms alone; h only steers the branch, P keeps pi itself
        h = entropy[:active.size]
        going = np.abs(h - target) >= 1e-5
        active, b, h = active[going], b[going], h[going]
        if active.size == 0:
            break
        up = h > target
        lo = np.where(up, b, betamin[active])
        hi = np.where(up, betamax[active], b)
        beta[active] = np.where(
            up,
            np.where(hi == np.inf, b * 2.0, (b + hi) / 2.0),
            np.where(lo == -np.inf, b / 2.0, (b + lo) / 2.0),
        )
        betamin[active] = lo
        betamax[active] = hi
    # the rows' probabilities into place in scratch, then each block's
    # symmetrized mean into P: no block overlaps its source, so numpy
    # makes no temporary
    _off_diagonal(scratch)[...] = Poff.reshape(n - 1, n)
    scratch.flat[:: n + 1] = 0.0
    for r in blocks:
        rows = slice(r, r + blocks.step)
        Pr = _packed(P, r, len(scratch[rows]))
        np.add(scratch[rows, r:], scratch.T[rows, r:], out=Pr)
        Pr /= 2.0 * n
        np.maximum(Pr, 1e-12, out=Pr)


# tsne splits each gradient's O(n^2) steps between this process and one
# forked worker once n reaches this many points. Measured on t-SNE's loop
# alone (28-d input, 2-core host, two rounds), the split runs at 1.15-1.35x
# the serial speed at n=200 and 256, where the worker's one block of 2
# holds a third of the pairs, 1.3-1.7x at n=300 and 1.5-1.6x at n=400;
# below n=182 there is one row block, and the worker would get none. The
# worker spins while it waits for its next command, so the CPU time rises
# with the split
_SPLIT_MIN_POINTS = 300
# semaphore polls (about 0.2 us each) before a wait blocks; the blocking
# wait checks every _WAIT_S that the other process is still alive
_SPINS = 10_000
_WAIT_S = 0.05
# with a worker, every cycle of _CYCLE iterations starts with _WINDOW
# iterations on each path and runs the rest on the path whose median
# gradient took less time; both paths give the same bits. The split loses
# when another program keeps a CPU busy (0.4x the serial speed at n=400,
# with the worker often descheduled mid-hand-off). A median, so that one
# stall of a few ms does not pick the path
_WINDOW = 10
_CYCLE = 200
# the size of one row block of an (n, n) buffer (_row_blocks). A block
# holds at most _BLOCK_BYTES / 8 + n entries; its kernel product takes 5
# multiply-adds per entry and its two gradient products 3, so below
# n = 19660 each stays under the 2^18 multiply-adds up to which OpenBLAS
# runs a product on one thread. So the bits do not depend on the CPU
# count, and no BLAS thread competes with the split
_BLOCK_BYTES = 1 << 18
# the commands a worker runs, posted in _Work.ctrl[0]
_STOP, _KERNEL, _GRADIENT = 0, 1, 2


class _Work:
    """The buffers of one exact t-SNE gradient, views of one flat float
    array from alloc(size): the (n, n) affinities P and kernel num, both
    symmetric and stored in the packed layout of _packed; the (n, 5)
    factors A = [sq, 1, y0, y1, 1] and B = [1, sq, -2 y0, -2 y1, 1] of
    1 + |y_i - y_j|^2; acc, one (n, 3) accumulator of [PQ @ Y, rowsum(PQ)]
    per group of blocks (_groups); the blocks' kernel totals; and ctrl,
    which holds the posted command, the kernel total Z and the
    exaggeration. Each block's views are made once, in parts. The
    scratch, two blocks for _gradient_group, and tmp come from np.empty:
    each process writes its own copy of them."""

    def __init__(self, n: int, alloc=np.empty):
        blocks = _row_blocks(n)
        shapes = [(n, n)] * 2 + [(n, 5)] * 2 + [(2, n, 3), (len(blocks),), (3,)]
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        parts = np.split(alloc(int(ends[-1])), ends[:-1])
        views = [part.reshape(shape) for part, shape in zip(parts, shapes)]
        self.P, self.num, self.A, self.B, self.acc, self.totals, self.ctrl = views
        self.A[:, [1, 4]] = 1.0
        self.B[:, [0, 4]] = 1.0
        self.groups = _groups(n)
        # the first row of the second group
        self.lo = blocks[self.groups[1].start] if self.groups[1] else n
        self.scratch = np.empty((2, blocks.step * n))
        self.tmp = np.empty((n, 3))
        # per block: its first row r, its height h and its packed (h, n - r)
        # views of P, num and the two scratch blocks
        self.parts = []
        for r in blocks:
            h = min(blocks.step, n - r)
            size = h * (n - r)
            self.parts.append((r, h, _packed(self.P, r, h), _packed(self.num, r, h),
                               *(s[:size].reshape(h, n - r) for s in self.scratch)))


def _pack(P: np.ndarray, work: _Work) -> None:
    """The symmetric (n, n) array P into work.P's packed layout."""
    for r, h, Pr, *_ in work.parts:
        Pr[...] = P[r:r + h, r:]


def _kernel_group(work: _Work, group: int) -> None:
    """The Student-t kernel num = 1 / (1 + |y_i - y_j|^2), with a zero
    diagonal, on the blocks of one group, and each block's total."""
    for k in work.groups[group]:
        r, h, _, num, _, _ = work.parts[k]
        # 1 + sq_i + sq_j - 2 y_i . y_j as one product with K = 5
        np.matmul(work.A[r:r + h], work.B[r:].T, out=num)
        np.maximum(num, 1.0, out=num)
        np.divide(1.0, num, out=num)
        num.flat[:: num.shape[1] + 1] = 0.0
        work.totals[k] = _total(num, h)


def _gradient_group(work: _Work, group: int) -> None:
    """Accumulate PQ @ [Y, 1] into work.acc[group] from the blocks of one
    group, in block order, with PQ = (e * P - Q) * num, Q = max(num / Z,
    1e-12) and e the exaggeration. A block of rows r:r+h adds its PQ rows
    times [Y, 1] to its own rows, and, since PQ is symmetric, the
    transpose of its part right of the square times its rows' [Y, 1] to
    the later rows. The group's first block writes the accumulator's rows
    r:n, so it needs no zeroing. PQ is formed in the scratch, so it takes
    no (n, n) buffer."""
    Z, exaggeration = work.ctrl[1], work.ctrl[2]
    acc, Y1 = work.acc[group], work.A[:, 2:]
    blocks = work.groups[group]
    for k in blocks:
        r, h, P, num, g, scaled = work.parts[k]
        w = num.shape[1]
        np.divide(num, Z, out=g)
        np.maximum(g, 1e-12, out=g)
        # 1.0 * P is P bit for bit
        if exaggeration != 1.0:
            P = np.multiply(P, exaggeration, out=scaled)
        np.subtract(P, g, out=g)
        g *= num
        out = acc[r:] if k == blocks.start else work.tmp[:w]
        np.matmul(g, Y1[r:], out=out[:h])
        if w > h:
            np.matmul(g[:, h:].T, Y1[r:r + h], out=out[h:])
        if k != blocks.start:
            acc[r:] += out


def _run_group(work: _Work, command: int, group: int) -> None:
    if command == _KERNEL:
        _kernel_group(work, group)
    else:
        _gradient_group(work, group)


def _gradient(work: _Work, Y: np.ndarray, exaggeration: float,
              helper: _Helper | None = None) -> np.ndarray:
    """KL gradient with respect to Y for the affinities exaggeration * work.P.

    On return work.num holds the Student-t kernel with a zero diagonal, in
    the packed layout, and work.ctrl[1] its total Z, the sum of the
    blocks' totals. Each pair's kernel and gradient term is computed once,
    one block at a time (_row_blocks). The result is 4 * (s2 * Y - s01),
    where [s01, s2] = [PQ @ Y, rowsum(PQ)] is the sum of the two groups'
    accumulators (_groups). With a helper, the worker runs the second group
    while this process runs the first; without one, this process runs both,
    each into its own accumulator, so both paths give the same bits.
    """
    work.A[:, 2:4] = Y
    np.multiply(Y, -2.0, out=work.B[:, 2:4])
    np.sum(np.square(Y), axis=1, out=work.A[:, 0])
    work.B[:, 1] = work.A[:, 0]
    for command in (_KERNEL, _GRADIENT):
        if command == _GRADIENT:
            work.ctrl[1:] = work.totals.sum(), exaggeration
        if helper:
            helper.post(command)
        _run_group(work, command, 0)
        if helper:
            helper.wait()
        else:
            _run_group(work, command, 1)
    s, lo = work.acc[0], work.lo
    if lo < len(Y):
        s[lo:] += work.acc[1, lo:]
    return 4.0 * (s[:, 2:] * Y - s[:, :2])


def _acquire(sem, alive) -> bool:
    """Take sem, polling it first; False once alive() says the process
    that would release it is gone. The poll avoids waking a sleeping
    process, about 0.2 ms each time, at four hand-offs per iteration.
    Semaphore calls also synchronize memory between the processes."""
    for _ in range(_SPINS):
        if sem.acquire(False):
            return True
    while not sem.acquire(timeout=_WAIT_S):
        if not alive():
            return sem.acquire(False)
    return True


def _serve(work: _Work, go, done, parent: int) -> None:
    """The worker: run each posted command on the second group of blocks
    until told to stop or the parent is gone."""
    # an interrupt reaches the whole process group; the parent handles it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while _acquire(go, lambda: os.getppid() == parent):
        command = int(work.ctrl[0])
        if command == _STOP:
            return
        _run_group(work, command, 1)
        done.release()


class _Helper:
    """One forked worker process that runs the second group of row blocks
    (_groups), rows work.lo:n, of buffers in shared anonymous memory."""

    def __init__(self, context, n: int):
        import mmap

        # the pages stay untouched until after the fork, so the worker
        # inherits none of the values written to them
        self.work = _Work(n, lambda size: np.frombuffer(mmap.mmap(-1, 8 * size)))
        self._go, self._done = context.Semaphore(0), context.Semaphore(0)
        self._process = context.Process(
            target=_serve,
            args=(self.work, self._go, self._done, os.getpid()),
            daemon=True,
        )
        self._process.start()

    def post(self, command: int) -> None:
        self.work.ctrl[0] = command
        self._go.release()

    def wait(self) -> None:
        if not _acquire(self._done, self._process.is_alive):
            raise RuntimeError(
                f"t-SNE worker process exited with code {self._process.exitcode}"
            )

    def close(self) -> None:
        self.post(_STOP)
        self._process.join(timeout=10.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_workers(workers: int, start):
    """start(context) with a fork context, or None, which means: run
    serially. None when there are fewer than 2 workers, the platform cannot
    fork, or this process is daemonic (a multiprocessing.Pool worker, which
    may not start processes); also when start raises OSError, as a refused
    fork does."""
    if workers < 2:
        return None
    # imported here: the serial paths, and `import cegraph`, do without it
    import multiprocessing

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return None
    # fork, not spawn: a spawned worker re-imports numpy and cegraph and
    # re-runs the caller's __main__. Forking is safe: the only other thread,
    # OpenBLAS's, is stopped by its own atfork handler
    try:
        return start(multiprocessing.get_context("fork"))
    except OSError:
        return None


def kl_divergence_and_grad(P: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P || Q) under the Student-t kernel and its analytic gradient, for
    symmetric affinities P (only the entries of the packed layout are read).

    grad_i = 4 * sum_j (p_ij - q_ij) * (1 + |y_i - y_j|^2)^-1 * (y_i - y_j)

    The KL terms are summed one packed block at a time, each block as
    _total sums it, then over the blocks.
    """
    work = _Work(Y.shape[0])
    _pack(P, work)
    grad = _gradient(work, Y, 1.0)
    Z = work.ctrl[1]
    kl = np.empty(len(work.parts))
    for k, (_, h, Pr, num, t, _) in enumerate(work.parts):
        np.divide(num, Z, out=t)
        np.maximum(t, 1e-12, out=t)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(Pr, t, out=t)
            np.log(t, out=t)
        t *= Pr
        t[Pr <= 1e-12] = 0.0
        kl[k] = _total(t, h)
    return float(kl.sum()), grad


@dataclass(frozen=True, eq=False)
class TsneResult:
    coords: np.ndarray  # (n, 2)
    perplexity: float
    seed: int
    iterations: int


def tsne(X, perplexity: float = 30.0, seed: int = 0, iterations: int = 1000) -> TsneResult:
    """Exact 2-d t-SNE. Requires finite X, n >= 4 and
    1 <= perplexity <= (n - 1) / 3.

    Early exaggeration x12 for the first 250 iterations, learning rate 200
    modulated by the usual sign-agreement gains, momentum 0.5 switching to
    0.8 at iteration 250. Initial layout is rng.normal(0, 1e-4) from
    np.random.default_rng(seed), so results are bit-reproducible for fixed
    inputs.
    """
    X = _finite(X)
    n = X.shape[0]
    if n < 4:
        raise ValueError("need at least 4 samples")
    if not 1.0 <= perplexity <= (n - 1) / 3.0:
        raise ValueError(
            f"perplexity {perplexity} out of range [1, {(n - 1) / 3.0:.2f}] for n={n}"
        )
    if iterations < 1:
        raise ValueError("iterations must be positive")

    # the worker forks before P exists, so it does not hold a copy of it
    cpus = _usable_cpus() if n >= _SPLIT_MIN_POINTS else 1
    helper = _fork_workers(cpus, lambda context: _Helper(context, n))
    try:
        work = helper.work if helper else _Work(n)
        _joint_probabilities(X, perplexity, work.P, work.num)
        rng = np.random.default_rng(seed)
        Y = rng.normal(0.0, 1e-4, size=(n, 2))
        velocity = np.zeros_like(Y)
        gains = np.ones_like(Y)
        lr = 200.0

        took = np.empty(2 * _WINDOW)
        faster = helper
        for it in range(iterations):
            step = it % _CYCLE
            split = helper if step < _WINDOW else faster if step >= 2 * _WINDOW else None
            exaggeration, momentum = (12.0, 0.5) if it < 250 else (1.0, 0.8)
            start = time.perf_counter()
            grad = _gradient(work, Y, exaggeration, split)
            if helper and step < 2 * _WINDOW:
                took[step] = time.perf_counter() - start
                if step == 2 * _WINDOW - 1:
                    split_won = np.median(took[:_WINDOW]) < np.median(took[_WINDOW:])
                    faster = helper if split_won else None
            # adaptive per-coordinate gains keep lr=200 stable on small inputs
            same = np.sign(grad) == np.sign(velocity)
            gains = np.where(same, gains * 0.8, gains + 0.2)
            np.clip(gains, 0.01, None, out=gains)
            velocity = momentum * velocity - lr * (gains * grad)
            Y = Y + velocity
            Y = Y - Y.mean(axis=0)
    finally:
        if helper:
            helper.close()

    return TsneResult(coords=Y, perplexity=perplexity, seed=seed, iterations=iterations)


def _rank(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    n = len(values)
    # the runs of equal values in sorted order: run k covers positions
    # starts[k] .. ends[k] and shares rank (starts[k] + ends[k]) / 2 + 1
    new_run = np.empty(n, dtype=bool)
    new_run[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    sizes = np.diff(starts, append=n)
    ends = starts + sizes - 1
    ranks = np.empty(n, dtype=float)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, sizes)
    return ranks


def spearman(x, y) -> float | None:
    """Spearman rank correlation with pairwise deletion of missing values.

    NaN (or None) marks a missing value. Fewer than 3 complete pairs gives
    None; a constant rank vector gives 0.0.
    """
    x = np.asarray([np.nan if v is None else v for v in x], dtype=float)
    y = np.asarray([np.nan if v is None else v for v in y], dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    ok = np.isfinite(x) & np.isfinite(y)
    if int(ok.sum()) < 3:
        return None
    rx = _rank(x[ok])
    ry = _rank(y[ok])
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    n = len(rx)
    if len(np.unique(rx)) == n and len(np.unique(ry)) == n:
        # tie-free ranks: the difference formula is algebraically the same
        # Pearson value but exact in floating point
        d2 = float(((rx - ry) ** 2).sum())
        r = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    else:
        r = float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Spearman correlations between raw feature values and normalized
    fitness, one row per (benchmark, method, llm) group. None marks a
    group/feature cell with fewer than 3 valid nodes."""

    groups: tuple[tuple[str, str, str], ...]
    feature_names: tuple[str, ...]
    values: tuple[tuple[float | None, ...], ...]

    def get(self, group, feature: str) -> float | None:
        return self.values[self.groups.index(tuple(group))][
            self.feature_names.index(feature)
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("group",) + self.feature_names)
        for key, row in zip(self.groups, self.values):
            label = "/".join(key)
            writer.writerow(
                [label] + ["" if v is None else repr(v) for v in row]
            )
        return buf.getvalue()


def correlation_table(graphs, feature_names=None) -> CorrelationTable:
    """Pool nodes per group across runs and correlate each feature's raw
    values with normalized fitness."""
    names, cols = feature_columns(graphs, feature_names or None)

    pooled: dict[tuple[str, str, str], list] = {}
    for g in graphs:
        pooled.setdefault(g.group_key, []).extend(g.nodes)

    groups = tuple(sorted(pooled))
    rows = []
    for key in groups:
        nodes = pooled[key]
        fitness = [n.fitness_norm for n in nodes]
        row = []
        for col in cols:
            feat = [float(n.features_raw[col]) for n in nodes]
            row.append(spearman(feat, fitness))
        rows.append(tuple(row))
    return CorrelationTable(groups=groups, feature_names=names, values=tuple(rows))
