"""Projections and rank statistics: PCA, exact t-SNE, Spearman correlation.

Everything here is deterministic given its arguments. PCA diagonalizes the
sample covariance (ddof=1) with a symmetric eigensolver and fixes the sign
of each component so its largest-magnitude coefficient is positive. t-SNE
is the exact O(n^2) formulation: per-point bandwidths found by one
bisection on the Shannon entropy that steps all rows at once, early
exaggeration, momentum switch, seeded initialization from a dedicated
generator. The optimization loop computes only the gradient, in two (n, n)
buffers allocated once per call; the KL value is not evaluated inside it.
On two or more CPUs a large input's gradient is computed by two processes,
each over half of the rows, with the same bits as one process gives.
"""

from __future__ import annotations

import csv
import io
import math
import os
import signal
import time
from dataclasses import dataclass

import numpy as np

from . import features
from .ceg import feature_columns


@dataclass(frozen=True, eq=False)
class PcaResult:
    components: np.ndarray  # (k, d) rows are unit-norm directions
    explained_variance_ratio: np.ndarray  # (k,)
    projected: np.ndarray  # (n, k)
    mean: np.ndarray  # (d,)


def pca(X, k: int) -> PcaResult:
    """Principal components of a row-sample matrix X with shape (n, d).

    Requires n >= 2 and 1 <= k <= min(n - 1, d). Eigenvalues below 0 from
    round-off are clamped; ratios are taken over all d eigenvalues.
    """
    X = np.ascontiguousarray(X, dtype=float)  # results must not depend on layout
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


def _joint_probabilities(X: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint probabilities with per-point bandwidth search.

    Bisection on beta = 1/(2 sigma^2) targets Shannon entropy log2(perplexity)
    within 1e-5, at most 50 steps per point. All rows step together; a row
    leaves the active set once it converges, keeping the probabilities of
    the last beta it tried.
    """
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    D = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (X @ X.T), 0.0)
    offdiag = ~np.eye(n, dtype=bool)
    # row i of D without D[i, i]; each row stays C-contiguous, so its sum
    # reduces exactly as a 1-d sum over that row does
    Doff = D[offdiag].reshape(n, n - 1)
    del D
    target = math.log2(perplexity)
    beta = np.ones(n)
    betamin = np.full(n, -np.inf)
    betamax = np.full(n, np.inf)
    Poff = np.zeros((n, n - 1))
    active = np.arange(n)
    for _ in range(50):
        b = beta[active]
        w = np.exp(-Doff[active] * b[:, None])
        s = w.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            pi = w / s[:, None]
            pi[s <= 0.0] = 0.0
            h = -np.where(pi > 0.0, pi * np.log2(pi), 0.0).sum(axis=1)
        Poff[active] = pi
        # summing the zeros too may move h by an ulp from a sum over the
        # nonzero terms alone; h only steers the branch, P keeps pi itself
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
    P = np.zeros((n, n))
    P[offdiag] = Poff.ravel()
    P = (P + P.T) / (2.0 * n)
    return np.maximum(P, 1e-12)


# tsne splits each gradient's O(n^2) elementwise passes between this
# process and one forked worker once n reaches this many points. Measured
# on t-SNE alone (1000 iterations, 2-core host, two rounds), the split runs
# at 0.75-0.83x the serial speed at n=200, breaks even near n=256
# (1.02-1.05x), and gains 7-9% at n=288-320 and 22-33% at n=400. Below
# n=256 the hand-offs, four per iteration, cost more than the halved passes
# save. The worker spins through the parent's whole steps, so the CPU time
# rises by 25-80%; the threshold sits above break-even so that no run pays
# that for a gain within noise
_SPLIT_MIN_POINTS = 300
# semaphore polls (about 0.2 us each) before a wait blocks; the blocking
# wait checks every _WAIT_S that the other process is still alive
_SPINS = 10_000
_WAIT_S = 0.05
# with a worker, every cycle of _CYCLE iterations starts with _WINDOW
# iterations on each path and runs the rest on the path whose median
# gradient took less time; both paths give the same bits. The split loses
# when another program keeps a CPU busy (0.4x the serial speed at n=400,
# with the worker often descheduled mid-hand-off) or when OpenBLAS runs
# the larger products on threads of their own that compete with the two
# processes (0.5x at n=1000). A median, so that one stall of a few ms
# does not pick the path
_WINDOW = 10
_CYCLE = 200
# the commands a worker runs, posted in _Work.ctrl[0]
_STOP, _KERNEL, _GRADIENT = 0, 1, 2


class _Work:
    """The buffers of one exact t-SNE gradient, views of one flat float
    array: the affinity matrices P[k], the (n, n) buffers num and g, the
    (n, 2) factors a = [sq, 1] and b = [1, sq] of sq_i + sq_j, and ctrl,
    which holds the posted command and num.sum()."""

    def __init__(self, n: int, n_p: int, flat: np.ndarray | None = None):
        shapes = [(n, n)] * (n_p + 2) + [(n, 2), (n, 2), (2,)]
        if flat is None:
            flat = np.empty(_Work.size(n, n_p))
        views, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[offset:offset + size].reshape(shape))
            offset += size
        *self.P, self.num, self.g, self.a, self.b, self.ctrl = views
        self.a[:, 1] = 1.0
        self.b[:, 0] = 1.0

    @staticmethod
    def size(n: int, n_p: int) -> int:
        return (n_p + 2) * n * n + 4 * n + 2


def _kernel_rows(work: _Work, lo: int, hi: int) -> None:
    """Rows lo:hi of the Student-t kernel. On entry g holds Y @ Y.T; on
    return g holds 2 Y @ Y.T and num holds 1 / (1 + |y_i - y_j|^2) with a
    zero diagonal. a @ b.T is sq_i + sq_j: both products are exact and the
    sum is rounded once, so it is the broadcast sum bit for bit, without
    numpy's one inner loop per row."""
    n = work.num.shape[0]
    g, num = work.g[lo:hi], work.num[lo:hi]
    g *= 2.0
    np.matmul(work.a[lo:hi], work.b.T, out=num)
    num -= g
    np.maximum(num, 0.0, out=num)
    num += 1.0
    np.divide(1.0, num, out=num)
    num.flat[lo :: n + 1] = 0.0


def _gradient_rows(work: _Work, P: np.ndarray, lo: int, hi: int) -> None:
    """Rows lo:hi of diag(rowsum(PQ)) - PQ, written to g, with
    PQ = (P - Q) * num and Q = max(num / num.sum(), 1e-12)."""
    n = work.num.shape[0]
    g, num = work.g[lo:hi], work.num[lo:hi]
    np.divide(num, work.ctrl[1], out=g)
    np.maximum(g, 1e-12, out=g)
    np.subtract(P[lo:hi], g, out=g)
    g *= num
    # diag(rowsum) - PQ: 0 - x rather than -x off the diagonal, so that zero
    # entries keep the sign the dense formula gives them
    diag = g.sum(axis=1) - g.flat[lo :: n + 1]
    np.subtract(0.0, g, out=g)
    g.flat[lo :: n + 1] = diag


def _run_rows(work: _Work, command: int, lo: int, hi: int) -> None:
    if command == _KERNEL:
        _kernel_rows(work, lo, hi)
    else:
        _gradient_rows(work, work.P[command - _GRADIENT], lo, hi)


def _gradient(work: _Work, Y: np.ndarray, k: int, helper: _Helper | None = None) -> np.ndarray:
    """KL gradient with respect to Y for the affinities work.P[k].

    On return work.num holds the Student-t kernel with a zero diagonal.
    Every step repeats the operation order of the dense formula
    4 * (diag(rowsum(PQ)) - PQ) @ Y with PQ = (P - Q) * num, so the result
    is bitwise the same as evaluating that formula directly. With a helper,
    the worker runs the row kernels on its rows while this process runs
    them on the rest; Y @ Y.T, num.sum() and g @ Y stay whole here, since
    their bits depend on how the matrix is split.
    """
    n = Y.shape[0]
    rows = helper.lo if helper else n
    sq = np.sum(Y * Y, axis=1)
    work.a[:, 0] = sq
    work.b[:, 1] = sq
    np.matmul(Y, Y.T, out=work.g)
    for command in (_KERNEL, _GRADIENT + k):
        if command != _KERNEL:
            work.ctrl[1] = work.num.sum()
        if helper:
            helper.post(command)
        _run_rows(work, command, 0, rows)
        if helper:
            helper.wait()
    return 4.0 * (work.g @ Y)


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


def _serve(work: _Work, lo: int, hi: int, go, done, parent: int) -> None:
    """The worker: run each posted command on rows lo:hi until told to
    stop or the parent is gone."""
    # an interrupt reaches the whole process group; the parent handles it
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while _acquire(go, lambda: os.getppid() == parent):
        command = int(work.ctrl[0])
        if command == _STOP:
            return
        _run_rows(work, command, lo, hi)
        done.release()


class _Helper:
    """One forked worker process that runs the row kernels on rows lo:n of
    buffers in shared anonymous memory."""

    def __init__(self, context, n: int, n_p: int):
        import mmap

        # the pages stay untouched until after the fork, so the worker
        # inherits none of the values written to them
        memory = mmap.mmap(-1, 8 * _Work.size(n, n_p))
        self.work = _Work(n, n_p, np.frombuffer(memory, dtype=float))
        self.lo = n // 2
        self._go, self._done = context.Semaphore(0), context.Semaphore(0)
        self._process = context.Process(
            target=_serve,
            args=(self.work, self.lo, n, self._go, self._done, os.getpid()),
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


def kl_divergence_and_grad(P: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P || Q) under the Student-t kernel and its analytic gradient.

    grad_i = 4 * sum_j (p_ij - q_ij) * (1 + |y_i - y_j|^2)^-1 * (y_i - y_j)
    """
    work = _Work(Y.shape[0], 1)
    work.P[0][...] = P
    grad = _gradient(work, Y, 0)
    num = work.num
    Q = np.maximum(num / num.sum(), 1e-12)
    mask = P > 1e-12
    kl = float((P[mask] * np.log(P[mask] / Q[mask])).sum())
    return kl, grad


@dataclass(frozen=True, eq=False)
class TsneResult:
    coords: np.ndarray  # (n, 2)
    perplexity: float
    seed: int
    iterations: int


def tsne(X, perplexity: float = 30.0, seed: int = 0, iterations: int = 1000) -> TsneResult:
    """Exact 2-d t-SNE. Requires n >= 4 and 1 <= perplexity <= (n - 1) / 3.

    Early exaggeration x12 for the first 250 iterations, learning rate 200
    modulated by the usual sign-agreement gains, momentum 0.5 switching to
    0.8 at iteration 250. Initial layout is rng.normal(0, 1e-4) from
    np.random.default_rng(seed), so results are bit-reproducible for fixed
    inputs.
    """
    X = np.ascontiguousarray(X, dtype=float)  # results must not depend on layout
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
    cpus = features._usable_cpus() if n >= _SPLIT_MIN_POINTS else 1
    helper = features._fork_workers(cpus, lambda context: _Helper(context, n, 2))
    try:
        work = helper.work if helper else _Work(n, 2)
        P = _joint_probabilities(X, perplexity)
        np.multiply(P, 12.0, out=work.P[0])
        work.P[1][...] = P
        del P
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
            start = time.perf_counter()
            grad = _gradient(work, Y, 0 if it < 250 else 1, split)
            if helper and step < 2 * _WINDOW:
                took[step] = time.perf_counter() - start
                if step == 2 * _WINDOW - 1:
                    split_won = np.median(took[:_WINDOW]) < np.median(took[_WINDOW:])
                    faster = helper if split_won else None
            momentum = 0.5 if it < 250 else 0.8
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
