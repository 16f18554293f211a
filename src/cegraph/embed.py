"""Projections and rank statistics: PCA, exact t-SNE, Spearman correlation.

Everything here is deterministic given its arguments. PCA diagonalizes the
sample covariance (ddof=1) with a symmetric eigensolver and fixes the sign
of each component so its largest-magnitude coefficient is positive. t-SNE
is the exact O(n^2) formulation: per-point bandwidths found by a
bisection on the Shannon entropy that steps one block of rows at a time,
early exaggeration, momentum switch, and an initial layout drawn from the
standard library's seeded `random.Random`, so a run needs no
`numpy.random`. The optimization loop computes only the gradient.
The affinities and the kernel are symmetric, so each fixed block of rows
stores and computes only its columns from its own first row on, in packed
storage of about n^2 / 2 entries each, allocated once per call: each
pair's kernel and gradient term is computed once. The exaggeration e is
taken out of the gradient's sum, so P is never scaled: each pair's term
takes one multiplication by 1 / (e Z) instead of a division by the
kernel total Z. The KL value is not evaluated inside the loop. On two or
more CPUs a large input's gradient is computed by this process and a
forked worker, which shares its buffers and takes its commands over a
pipe, each over a group of blocks that holds about half the pairs, with
the same bits as one process gives, whatever the number of CPUs.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import random
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
    same way: n rows of n floats, if they take more than _BLOCK_BYTES, are
    cut into an even number of blocks of about that size."""
    count = -(-8 * n * n // _BLOCK_BYTES)
    if count > 1:
        count += count % 2
    return range(0, n, -(-n // count))


def _groups(n: int) -> tuple[range, range]:
    """The indices of the row blocks of each of the two groups that the
    split runs in two processes: contiguous, and cut at the boundary that
    shares the blocks' packed areas most evenly (the first such boundary
    on a tie). A block of rows r:r+h stores h * (n - r) entries (_Work),
    so the first group takes fewer blocks than the second. Like the
    blocks, the groups depend on n alone; with one block the second group
    is empty."""
    blocks = _row_blocks(n)
    ends = list(blocks[1:]) + [n]
    area = list(itertools.accumulate((end - r) * (n - r) for r, end in zip(blocks, ends)))
    cut = min(range(1, len(blocks)), key=lambda k: abs(2 * area[k - 1] - area[-1]), default=1)
    return range(cut), range(cut, len(blocks))


def _total(M: np.ndarray, h: int) -> float:
    """The sum over the symmetric matrix that the packed (h, w) block M
    stands for in its rows and columns: the square once and the entries
    right of it twice, since they also stand for their mirror images. It
    is taken as twice the whole block, one contiguous reduction, less the
    square."""
    return 2.0 * M.sum() - M[:, :h].sum()


def _bisect(D: np.ndarray, target: float) -> np.ndarray:
    """The conditional probabilities of the rows of D, each row the squared
    distances from one point to all the others, from a bisection on
    beta = 1/(2 sigma^2) that targets Shannon entropy `target` within
    1e-5, at most 50 steps per row. The rows step together; a row leaves
    the active set once it converges, keeping the probabilities of the
    last beta it tried. Each row's sums reduce over that one C-contiguous
    row, so its bits do not depend on the other rows of D."""
    m = D.shape[0]
    P = np.empty_like(D)
    beta = np.ones(m)
    betamin = np.full(m, -np.inf)
    betamax = np.full(m, np.inf)
    active = np.arange(m)
    for _ in range(50):
        b = beta[active]
        # the kernel exp(-beta D), normalized in place to the rows' pi
        pi = D[active]
        pi *= -b[:, None]
        np.exp(pi, out=pi)
        s = pi.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            pi /= s[:, None]
            pi[s <= 0.0] = 0.0
        terms = np.log2(pi, out=np.zeros_like(pi), where=pi > 0.0)
        terms *= pi
        P[active] = pi
        # summing the zeros too may move h by an ulp from a sum over the
        # nonzero terms alone; h only steers the branch, P keeps pi itself
        h = -terms.sum(axis=1)
        # freed before the next step's pi, so that at most three blocks live
        del pi, terms
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
    return P


def _joint_probabilities(X: np.ndarray, perplexity: float, work: _Work) -> None:
    """Symmetrized joint probabilities with per-point bandwidth search,
    written to work.P one row block at a time; only block-sized arrays are
    allocated.

    A block's squared distances, in the scratch, are sums of exact squared
    differences, one feature after another, so their bits do not depend on
    the BLAS thread count. Its rows get a bisection of their own (_bisect).
    Of its conditional rows cond, cond + cond.T goes into the block's
    square, cond right of it into the rest of its packed rows, and the
    part left of it, transposed, is added into the earlier blocks' rows.
    So each pair i < j holds cond[i, j] + cond[j, i] before all of P is
    divided by 2n and floored at 1e-12.
    """
    n = X.shape[0]
    target = math.log2(perplexity)
    for k, (r, h, Pr, *_) in enumerate(work.parts):
        D = work.scratch[0, :h * n].reshape(h, n)
        t = work.scratch[1, :h * n].reshape(h, n)
        D.fill(0.0)
        for x in X.T:
            np.subtract(x[r:r + h, None], x, out=t)
            np.multiply(t, t, out=t)
            D += t
        # the conditional rows replace the distances, each searched without
        # its diagonal entry, as one C-contiguous row; the diagonal keeps its
        # distance, an exact 0 for finite X
        keep = np.arange(n) != np.arange(r, r + h)[:, None]
        Doff = work.scratch[1, :h * (n - 1)]
        Doff[...] = D[keep]
        cond = D
        cond[keep] = _bisect(Doff.reshape(h, n - 1), target).reshape(-1)
        np.add(cond[:, r:r + h], cond[:, r:r + h].T, out=Pr[:, :h])
        Pr[:, h:] = cond[:, r + h:]
        for r0, h0, P0, *_ in work.parts[:k]:
            P0[:, r - r0:r - r0 + h] += cond[:, r0:r0 + h0].T
    work.P /= 2.0 * n
    np.maximum(work.P, 1e-12, out=work.P)


# tsne splits each gradient's O(n^2) steps between this process and one
# forked worker once n reaches this many points. Measured on t-SNE's loop
# alone (28-d input, 2-core host, two rounds), the split runs at 1.15-1.35x
# the serial speed at n=200 and 256, where the worker's one block of 2
# holds a third of the pairs, 1.3-1.7x at n=300 and 1.5-1.6x at n=400;
# below n=182 there is one row block, and the worker would get none
_SPLIT_MIN_POINTS = 300
# a reader polls its pipe this long before it blocks in os.read: waking a
# blocked process costs about 0.2 ms, and a longer poll slows the split when
# both processes share one CPU
_SPIN_S = 0.0005
# with a worker, every cycle of _CYCLE iterations starts with _WINDOW
# iterations on each path and runs the rest on the path whose median
# gradient took less time; both paths give the same bits. The split loses
# when another program keeps a CPU busy (0.4x the serial speed at n=400,
# with the worker often descheduled mid-hand-off). A median, so that one
# stall of a few ms does not pick the path
_WINDOW = 10
_CYCLE = 200
# about the size of one row block (_row_blocks), counted as full rows of n
# floats. A block holds at most _BLOCK_BYTES / 8 + n entries; its kernel
# product takes 5 multiply-adds per entry and its two gradient products 3,
# so below n = 19660 each stays under the 2^18 multiply-adds up to which
# OpenBLAS runs a product on one thread. So a library caller's bits do not
# depend on its BLAS thread or CPU count. The CLI process runs BLAS on its
# main thread alone (cli.py sets OPENBLAS_NUM_THREADS), so no BLAS thread
# competes with the split
_BLOCK_BYTES = 1 << 18
# the commands a worker runs, each sent as one byte
_KERNEL, _GRADIENT = 1, 2


class _Work:
    """The buffers of one exact t-SNE gradient, views of one flat float
    array from alloc(size): the affinities P and the kernel num, both
    symmetric and packed, each a flat array in which the blocks of
    _row_blocks(n) follow each other, the block of rows r:r+h as one
    C-contiguous (h, n - r) array of their columns r:n, so that each pair
    i < j is stored once, in the block of row i; the (n, 5) factors
    A = [sq, 1, y0, y1, 1] and B = [1, sq, -2 y0, -2 y1, 1] of
    1 + |y_i - y_j|^2; acc, one (n, 3) accumulator of [PQ @ Y, rowsum(PQ)]
    per group of blocks (_groups); the blocks' kernel totals; and ctrl,
    which holds the kernel total Z and the exaggeration. Each block's
    views are made once, in parts. The scratch, two blocks of n columns
    for _joint_probabilities, whose first also holds a block's PQ in
    _gradient_group and its KL terms in kl_divergence_and_grad, and tmp
    come from np.empty: each process writes its own copy of them."""

    def __init__(self, n: int, alloc=np.empty):
        blocks = _row_blocks(n)
        heights = [min(blocks.step, n - r) for r in blocks]
        packed = sum(h * (n - r) for r, h in zip(blocks, heights))
        shapes = [(packed,)] * 2 + [(n, 5)] * 2 + [(2, n, 3), (len(blocks),), (2,)]
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
        # views of P, num and the first scratch block
        self.parts = []
        start = 0
        for r, h in zip(blocks, heights):
            size = h * (n - r)
            P, num = (a[start:start + size].reshape(h, n - r) for a in (self.P, self.num))
            self.parts.append((r, h, P, num, self.scratch[0, :size].reshape(h, n - r)))
            start += size


def _pack(P: np.ndarray, work: _Work) -> None:
    """The symmetric (n, n) array P into work.P's packed layout."""
    for r, h, Pr, *_ in work.parts:
        Pr[...] = P[r:r + h, r:]


def _kernel_group(work: _Work, group: int) -> None:
    """The Student-t kernel num = 1 / (1 + |y_i - y_j|^2), with a zero
    diagonal, on the blocks of one group, and each block's total."""
    for k in work.groups[group]:
        r, h, _, num, _ = work.parts[k]
        # 1 + sq_i + sq_j - 2 y_i . y_j as one product with K = 5
        np.matmul(work.A[r:r + h], work.B[r:].T, out=num)
        np.maximum(num, 1.0, out=num)
        np.divide(1.0, num, out=num)
        num.flat[:: num.shape[1] + 1] = 0.0
        work.totals[k] = _total(num, h)


def _gradient_group(work: _Work, group: int) -> None:
    """Accumulate PQ @ [Y, 1] into work.acc[group] from the blocks of one
    group, in block order, with PQ = (P - max(c * num, 1e-12 / e)) * num,
    c = 1 / (e * Z) and e the exaggeration. That is (e * P - Q) * num / e,
    with Q = max(num / Z, 1e-12): one multiplication per pair instead of a
    division by Z, and e, taken out of the sum, is applied once by
    _gradient, so no pass scales P. A block of rows r:r+h adds its PQ rows
    times [Y, 1] to its own rows, and, since PQ is symmetric, the
    transpose of its part right of the square times its rows' [Y, 1] to
    the later rows. The group's first block writes the accumulator's rows
    r:n, so it needs no zeroing. PQ is formed in the scratch, so it takes
    no (n, n) buffer."""
    Z, exaggeration = work.ctrl
    c, floor = 1.0 / (exaggeration * Z), 1e-12 / exaggeration
    acc, Y1 = work.acc[group], work.A[:, 2:]
    blocks = work.groups[group]
    for k in blocks:
        r, h, P, num, g = work.parts[k]
        w = num.shape[1]
        np.multiply(num, c, out=g)
        np.maximum(g, floor, out=g)
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
    the packed layout, and work.ctrl[0] its total Z, the sum of the
    blocks' totals. Each pair's kernel and gradient term is computed once,
    one block at a time (_row_blocks). The result is 4e * (s2 * Y - s01),
    with e the exaggeration, where [s01, s2] = [PQ @ Y, rowsum(PQ)] is the
    sum of the two groups' accumulators (_groups), and PQ, from
    _gradient_group, is the textbook (e * P - Q) * num divided by e. With a helper, the worker runs the second group
    while this process runs the first; without one, this process runs both,
    each into its own accumulator, so both paths give the same bits.
    """
    work.A[:, 2:4] = Y
    np.multiply(Y, -2.0, out=work.B[:, 2:4])
    np.sum(np.square(Y), axis=1, out=work.A[:, 0])
    work.B[:, 1] = work.A[:, 0]
    for command in (_KERNEL, _GRADIENT):
        if command == _GRADIENT:
            work.ctrl[:] = work.totals.sum(), exaggeration
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
    return (4.0 * exaggeration) * (s[:, 2:] * Y - s[:, :2])


def _receive(fd: int) -> bytes:
    """One byte from the pipe fd, b"" once it has no writer left. The pipe
    is polled for up to _SPIN_S before the read blocks."""
    import select  # here, like mmap: the serial path does without it

    ready = select.poll()
    ready.register(fd, select.POLLIN)
    deadline = time.perf_counter() + _SPIN_S
    while not ready.poll(0) and time.perf_counter() < deadline:
        pass
    return os.read(fd, 1)


class _Helper:
    """One forked worker process that runs the second group of row blocks
    (_groups), rows work.lo:n, of buffers in shared anonymous memory. It
    reads each command as one byte from one pipe and answers it with one
    byte on another. Each process closes the other's pipe ends, so a read
    of b"" means the other process is gone: the worker then exits, and this
    process raises RuntimeError. Pipe calls also synchronize memory."""

    def __init__(self, n: int):
        import mmap

        # the pages stay untouched until after the fork, so the worker
        # inherits none of the values written to them
        self.work = _Work(n, lambda size: np.frombuffer(mmap.mmap(-1, 8 * size)))
        self._code = None
        fds = list(os.pipe())
        try:
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        commands, self._commands, self._answers, answers = fds
        if self.pid == 0:
            code = 1
            try:
                # an interrupt reaches the whole process group; the parent handles it
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(self._commands)
                os.close(self._answers)
                while command := _receive(commands):
                    _run_group(self.work, command[0], 1)
                    os.write(answers, command)
                code = 0
            finally:
                # never unwind into the caller's frames and run their cleanup
                os._exit(code)
        os.close(commands)
        os.close(answers)

    def post(self, command: int) -> None:
        try:
            os.write(self._commands, bytes((command,)))
        except BrokenPipeError:
            self._exited()

    def wait(self) -> None:
        if not _receive(self._answers):
            self._exited()

    def _exited(self) -> None:
        self._code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        raise RuntimeError(f"t-SNE worker process exited with code {self._code}")

    def close(self) -> None:
        """Close the pipes, which ends the worker, and reap it if need be."""
        os.close(self._commands)
        os.close(self._answers)
        if self._code is None:
            os.waitpid(self.pid, 0)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_workers(workers: int, n: int) -> _Helper | None:
    """A _Helper for n points, or None, which means: run serially. None
    when there are fewer than 2 workers or the platform cannot fork; also
    when starting the worker raises OSError, as a refused fork does."""
    if workers < 2 or not hasattr(os, "fork"):
        return None
    # forking is safe: the CLI process runs BLAS on its main thread alone, and
    # a library caller's OpenBLAS threads stop in OpenBLAS's atfork handler
    try:
        return _Helper(n)
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
    Z = work.ctrl[0]
    kl = np.empty(len(work.parts))
    for k, (_, h, Pr, num, t) in enumerate(work.parts):
        np.divide(num, Z, out=t)
        np.maximum(t, 1e-12, out=t)
        # where Pr is 0 the log is -inf and its product with Pr nan; the
        # next line zeroes those terms
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
    0.8 at iteration 250. The initial layout is 2n draws of
    random.Random(seed).gauss(0, 1e-4), filled row by row, so results are
    bit-reproducible for fixed inputs on one machine and Python version.
    The seed must be a non-negative integer.
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
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

    # the worker forks before P exists, so it does not hold a copy of it
    cpus = _usable_cpus() if n >= _SPLIT_MIN_POINTS else 1
    helper = _fork_workers(cpus, n)
    try:
        work = helper.work if helper else _Work(n)
        _joint_probabilities(X, perplexity, work)
        gauss = random.Random(int(seed)).gauss
        Y = np.array([gauss(0.0, 1e-4) for _ in range(2 * n)]).reshape(n, 2)
        velocity = np.zeros_like(Y)
        gains = np.ones_like(Y)
        lr = 200.0
        # the update step's scratch, so that it allocates no (n, 2) array
        t, u = np.empty_like(Y), np.empty_like(Y)
        same = np.empty(Y.shape, dtype=bool)

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
            # adaptive per-coordinate gains keep lr=200 stable on small inputs:
            # gains * 0.8 where grad and velocity agree in sign, else gains + 0.2
            np.equal(np.sign(grad, out=t), np.sign(velocity, out=u), out=same)
            np.multiply(gains, 0.8, out=t)
            gains += 0.2
            np.copyto(gains, t, where=same)
            np.maximum(gains, 0.01, out=gains)
            # velocity = momentum * velocity - lr * (gains * grad)
            np.multiply(gains, grad, out=t)
            t *= lr
            velocity *= momentum
            velocity -= t
            Y += velocity
            Y -= np.add.reduce(Y, axis=0) / n
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
