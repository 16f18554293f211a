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
kernel total Z, and Q's floor pass runs only where a bound on the
kernel, from the largest |y_i|^2, shows that it may bind (_floor_binds).
The KL value is not evaluated inside the loop, which runs in the calling
process; every block's products stay on one BLAS thread, so its bits do
not depend on the number of CPUs. Spearman's correlation ranks each
group's features in one call and keeps the per-cell arithmetic; a cell
is undefined (None) below 3 complete pairs or for a constant side.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

import numpy as np


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
    of exact t-SNE runs. They depend on n alone, so the library and the
    dense oracle of the tests cut each product the same way: n rows of n
    floats, if they take more than _BLOCK_BYTES, are cut into an even
    number of blocks of about that size."""
    count = -(-8 * n * n // _BLOCK_BYTES)
    if count > 1:
        count += count % 2
    return range(0, n, -(-n // count))


def _total(M: np.ndarray, square: np.ndarray) -> float:
    """The sum over the symmetric matrix that the packed block M stands for
    in its rows and columns: `square`, the view of M's first h columns,
    once and the entries right of it twice, since they also stand for their
    mirror images. It is taken as twice the whole block, one contiguous
    reduction, less the square."""
    return 2.0 * M.sum() - square.sum()


def _bisect(D: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row of D, the squared distances from one point to all the
    others, the last beta = 1/(2 sigma^2) that a bisection on Shannon
    entropy `target` (within 1e-5, at most 50 steps) tried, and that beta's
    normaliser s = sum e, e = exp(-beta d). As in van der Maaten and
    Hinton's Hbeta (2008), the entropy is log2 s + beta sum(e d) / (s ln 2),
    one log per row, with e d read as 0 where e is 0 (d = inf); s = 0 reads
    as -inf, so that beta backs off. The rows step together; a row leaves
    the active set once it converges. Each row's sums reduce over that one
    C-contiguous row, so its bits do not depend on the other rows of D."""
    m = D.shape[0]
    beta, s = np.ones(m), np.empty(m)
    betamin, betamax = np.zeros(m), np.full(m, np.inf)
    active = np.arange(m)
    for step in range(50):
        b = beta[active]
        e = D[active]
        e *= -b[:, None]
        np.exp(e, out=e)
        s[active] = sa = e.sum(axis=1)
        ed = D[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            ed *= e
            ed[e == 0.0] = 0.0
            h = np.log2(sa) + b * ed.sum(axis=1) / (sa * math.log(2.0))
        h[sa == 0.0] = -np.inf
        # freed before the next step's e, so that at most two blocks live
        del e, ed
        going = np.abs(h - target) >= 1e-5
        active, b, h = active[going], b[going], h[going]
        if active.size == 0 or step == 49:
            break
        # the midpoint of the bounds, or twice beta while no upper bound is
        # known; with no lower bound known, (0 + beta) / 2 is beta / 2
        up = h > target
        lo = np.where(up, b, betamin[active])
        hi = np.where(up, betamax[active], b)
        beta[active] = np.where(hi == np.inf, b * 2.0, (lo + hi) / 2.0)
        betamin[active], betamax[active] = lo, hi
    return beta, s


def _joint_probabilities(X: np.ndarray, perplexity: float, work: _Work) -> None:
    """Symmetrized joint probabilities with per-point bandwidth search,
    written to work.P in one pass over the row blocks, from the last to
    the first; only block-sized arrays are allocated.

    A block's squared distances, in the scratch, are sums of exact squared
    differences, one feature after another, so their bits do not depend on
    the BLAS thread count; points about 1e155 apart get an infinite one.
    Its rows get a bisection of their own (_bisect), which gives each row i
    its beta_i and normaliser s_i. Every later row has them already, so the
    block fills its own packed rows and no others: pair i < j gets
    exp(-beta_i d_ij) / s_i + exp(-beta_j d_ij) / s_j, each term by the
    multiply, exp and divide that the bisection ran on the same d_ij, beta
    and s, so the two conditional probabilities of the pair. A term is 0
    where its normaliser is 0, and so is the diagonal. Then all of P is
    divided by 2n and floored at 1e-12.
    """
    n = X.shape[0]
    target = math.log2(perplexity)
    beta, s = np.empty(n), np.empty(n)
    for r, h, Pr, *_ in reversed(work.parts):
        D = work.scratch[0, :h * n].reshape(h, n)
        t = work.scratch[1, :h * n].reshape(h, n)
        D.fill(0.0)
        with np.errstate(over="ignore"):
            for x in X.T:
                np.subtract(x[r:r + h, None], x, out=t)
                np.multiply(t, t, out=t)
                D += t
        # each row without its diagonal entry, as one C-contiguous row
        keep = np.arange(n) != np.arange(r, r + h)[:, None]
        Doff = np.compress(keep.ravel(), D, out=work.scratch[1, :h * (n - 1)])
        beta[r:r + h], s[r:r + h] = _bisect(Doff.reshape(h, n - 1), target)
        # row i's terms go to Pr and column j's to t; an infinite distance
        # on the diagonal makes both of its terms 0
        D.reshape(-1)[r::n + 1] = np.inf
        t = work.scratch[1, :Pr.size].reshape(Pr.shape)
        for out, b, z in ((Pr, beta[r:r + h, None], s[r:r + h, None]), (t, beta[r:], s[r:])):
            np.multiply(D[:, r:], -b, out=out)
            np.exp(out, out=out)
            np.divide(out, z, out=out, where=z > 0.0)
        Pr += t
    work.P /= 2.0 * n
    np.maximum(work.P, 1e-12, out=work.P)


# about the size of one row block (_row_blocks), counted as full rows of n
# floats. A block holds at most _BLOCK_BYTES / 8 + n entries; its kernel
# product takes 5 multiply-adds per entry and its two gradient products 3,
# so below n = 19660 each stays under the 2^18 multiply-adds up to which
# OpenBLAS runs a product on one thread. So a library caller's bits do not
# depend on its BLAS thread or CPU count
_BLOCK_BYTES = 1 << 18


class _Work:
    """The buffers of one exact t-SNE gradient: the affinities P and the
    kernel num, both symmetric and packed, each a flat array in which the
    blocks of _row_blocks(n) follow each other, the block of rows r:r+h as
    one C-contiguous (h, n - r) array of their columns r:n, so that each
    pair i < j is stored once, in the block of row i; the (n, 5) factors
    A = [sq, 1, y0, y1, 1] and B = [1, sq, -2 y0, -2 y1, 1] of
    1 + |y_i - y_j|^2; acc, the (n, 3) accumulator of [PQ @ Y, rowsum(PQ)];
    and the blocks' kernel totals. Each block's views are made once, in
    parts, and those of _gradient's two passes in kernel and pq, so that
    neither pass makes a view. The scratch holds two blocks of n columns: a
    block's distances and the rows that _bisect searches (then the later
    rows' terms) for _joint_probabilities; the first also holds a block's
    PQ in _gradient and its KL terms in kl_divergence_and_grad. tmp holds a
    later block's share of the accumulator."""

    def __init__(self, n: int):
        blocks = _row_blocks(n)
        heights = [min(blocks.step, n - r) for r in blocks]
        packed = sum(h * (n - r) for r, h in zip(blocks, heights))
        self.P, self.num = np.empty(packed), np.empty(packed)
        # the columns of ones; _gradient writes the others
        self.A, self.B = np.ones((n, 5)), np.ones((n, 5))
        self.acc, self.tmp = np.empty((n, 3)), np.empty((n, 3))
        self.totals = np.empty(len(blocks))
        self.scratch = np.empty((2, blocks.step * n))
        # per block: its first row r, its height h and its packed (h, n - r)
        # views of P, num and the first scratch block
        self.parts, self.kernel, self.pq = [], [], []
        Y1 = self.A[:, 2:]
        start = 0
        for r, h in zip(blocks, heights):
            w = n - r
            P, num = (a[start:start + w * h].reshape(h, w) for a in (self.P, self.num))
            g = self.scratch[0, :w * h].reshape(h, w)
            self.parts.append((r, h, P, num, g))
            # the kernel pass: the block's factors, num, num's diagonal
            # (every (w + 1)-th entry) and its square, for _total
            self.kernel.append((self.A[r:r + h], self.B[r:].T, num,
                                num.reshape(-1)[::w + 1], num[:, :h]))
            # the PQ pass: the first block writes the accumulator itself, a
            # later one its share to tmp, then adds that to its rows of acc;
            # the last block has no columns right of its square
            out = self.acc if r == 0 else self.tmp[:w]
            right = (g[:, h:].T, Y1[r:r + h], out[h:]) if w > h else None
            into = (self.acc[r:], out) if r else None
            self.pq.append((P, num, g, Y1[r:], out[:h], right, into))
            start += w * h


def _pack(P: np.ndarray, work: _Work) -> None:
    """The symmetric (n, n) array P into work.P's packed layout."""
    for r, h, Pr, *_ in work.parts:
        Pr[...] = P[r:r + h, r:]


def _floor_binds(c: float, floor: float, sq_max: float) -> bool:
    """Whether Q's floor may set some pair's max(c * num, floor) in
    _gradient, with sq_max the largest |y_i|^2; False only where it cannot.

    A pair's 1 + |y_i - y_j|^2 comes from five terms, 1 + sq_i + sq_j -
    2 y_i . y_j, whose magnitudes sum to at most 1 + 4 sq_max, so each
    off-diagonal kernel entry is at least 1 / (1 + 4 sq_max) up to the
    rounding of that K = 5 product (a few ulps, however BLAS orders or
    fuses it), of the reciprocal and of the product by c, one ulp each.
    The factor 2 covers all of them many times over, and the rounding of
    the bound itself. So where c >= 2 floor (1 + 4 sq_max), every
    off-diagonal c * num is at least the floor, and the diagonal, whose
    kernel is 0, adds nothing either way. An infinite or NaN bound or c
    keeps the floor."""
    return not 2.0 * floor * (1.0 + 4.0 * sq_max) <= c < math.inf


def _gradient(work: _Work, Y: np.ndarray, exaggeration: float) -> np.ndarray:
    """KL gradient with respect to Y for the affinities exaggeration * work.P.

    Each pair's kernel and gradient term is computed once, one block at a
    time (_row_blocks), in two passes over the blocks, on views that _Work
    made once. The first writes the Student-t kernel
    num = 1 / (1 + |y_i - y_j|^2), with a zero diagonal, to work.num, and
    each block's total to work.totals, whose sum is the kernel total Z.
    The second accumulates PQ @ [Y, 1] into work.acc in block order, with
    PQ = (P - max(c * num, 1e-12 / e)) * num, c = 1 / (e * Z) and e the
    exaggeration. That is the textbook (e * P - Q) * num divided by e, with
    Q = max(num / Z, 1e-12): one multiplication per pair instead of a
    division by Z, and no pass scales P. The floor pass runs only where a
    bound on the kernel shows that it may bind (_floor_binds); elsewhere
    it would leave every off-diagonal c * num as it is. The diagonal's
    kernel is 0, so its PQ is a zero either way; it differs only in sign,
    where P's diagonal lies below the floor, and then only if every other
    term of its row is a zero too. tsne's P is floored at 1e-12 >= 1e-12 /
    e, so there skipping the pass changes no bit. A block of rows r:r+h
    adds its PQ rows times [Y, 1] to its own rows, and, since PQ is
    symmetric, the transpose of its part right of the square times its
    rows' [Y, 1] to the later rows; the first block writes the whole
    accumulator, so it needs no zeroing. PQ is formed in the scratch, so
    it takes no (n, n) buffer. The result is 4e * (s2 * Y - s01), where
    [s01, s2] = [PQ @ Y, rowsum(PQ)] is the accumulator.
    """
    A, B, acc, totals = work.A, work.B, work.acc, work.totals
    A[:, 2:4] = Y
    np.multiply(Y, -2.0, out=B[:, 2:4])
    sq = np.sum(np.square(Y), axis=1, out=A[:, 0])
    B[:, 1] = sq
    for k, (a, bt, num, diag, square) in enumerate(work.kernel):
        # 1 + sq_i + sq_j - 2 y_i . y_j as one product with K = 5
        np.matmul(a, bt, out=num)
        np.maximum(num, 1.0, out=num)
        np.divide(1.0, num, out=num)
        diag.fill(0.0)
        totals[k] = _total(num, square)
    c, floor = 1.0 / (exaggeration * totals.sum()), 1e-12 / exaggeration
    floored = _floor_binds(c, floor, sq.max())
    for P, num, g, rows, head, right, into in work.pq:
        np.multiply(num, c, out=g)
        if floored:
            np.maximum(g, floor, out=g)
        np.subtract(P, g, out=g)
        g *= num
        np.matmul(g, rows, out=head)
        if right is not None:
            gt, own, tail = right
            np.matmul(gt, own, out=tail)
        if into is not None:
            mine, share = into
            mine += share
    return (4.0 * exaggeration) * (acc[:, 2:] * Y - acc[:, :2])


def kl_divergence_and_grad(P: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P || Q) under the Student-t kernel and its analytic gradient, for
    symmetric affinities P (only the entries of the packed layout are read).

    grad_i = 4 * sum_j (p_ij - q_ij) * (1 + |y_i - y_j|^2)^-1 * (y_i - y_j)

    Y is centred first, which moves neither value but their rounding: the
    kernel forms 1 + |y_i - y_j|^2 as 1 + |y_i|^2 + |y_j|^2 - 2 y_i . y_j,
    whose |y|^2 terms cancel, so an entry is good only to about
    eps |y|^2 / (1 + d^2) of itself. Centred, a 20-point cluster at
    (1e7, 1e7) gets the textbook gradient to about 1e-15 of its largest
    entry, where uncentred it deviated by 2e-2 to 4e-2. Centring cannot
    help points that lie far from each other: for two 10-point clusters
    1e7 apart the gradient still deviates by 2e-3 to 7e-3 (1e-2 to 2e-2
    uncentred). The KL terms are summed one packed block at a time, each
    block as _total sums it, then over the blocks.
    """
    work = _Work(Y.shape[0])
    _pack(P, work)
    grad = _gradient(work, Y - np.add.reduce(Y, axis=0) / len(Y), 1.0)
    Z = work.totals.sum()
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
        kl[k] = _total(t, t[:, :h])
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

    work = _Work(n)
    _joint_probabilities(X, perplexity, work)
    gauss = random.Random(int(seed)).gauss
    Y = np.array([gauss(0.0, 1e-4) for _ in range(2 * n)]).reshape(n, 2)
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    lr = 200.0
    # the update step's scratch, so that it allocates no (n, 2) array
    t, u = np.empty_like(Y), np.empty_like(Y)
    same = np.empty(Y.shape, dtype=bool)
    for it in range(iterations):
        exaggeration, momentum = (12.0, 0.5) if it < 250 else (1.0, 0.8)
        grad = _gradient(work, Y, exaggeration)
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

    return TsneResult(coords=Y, perplexity=perplexity, seed=seed, iterations=iterations)


def _ranks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks (1-based) along each row of the 2-d array M, ties
    sharing the mean of their positions, as one C-contiguous array of M's
    shape; and, per row, whether its values are distinct."""
    m = M.shape[1]
    order = np.argsort(M, axis=1, kind="stable")
    ordered = np.take_along_axis(M, order, axis=1)
    # the runs of equal values in sorted order: a run from position s to
    # position e shares rank (s + e) / 2 + 1. new_run[:, j] marks a run
    # starting at j, and a run ending at j - 1 (j = m ends the last run)
    new_run = np.ones((M.shape[0], m + 1), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new_run[:, 1:m])
    at = np.arange(m)
    starts = np.maximum.accumulate(np.where(new_run[:, :m], at, 0), axis=1)
    ends = np.where(new_run[:, 1:], at, m)[:, ::-1]
    ends = np.minimum.accumulate(ends, axis=1)[:, ::-1]
    ranks = np.empty(M.shape)
    np.put_along_axis(ranks, order, (starts + ends) / 2.0 + 1.0, axis=1)
    return ranks, new_run.all(axis=1)


def _rank_correlation(rx: np.ndarray, ry: np.ndarray, distinct: bool) -> float | None:
    """Spearman's correlation from the average ranks rx and ry of at least
    3 complete pairs, each a contiguous 1-d array; `distinct` says that
    neither holds a tie. A constant rank vector gives None (undefined)."""
    n = len(rx)
    if distinct:
        # tie-free ranks: the difference formula is algebraically the same
        # Pearson value but exact in floating point
        d2 = float(((rx - ry) ** 2).sum())
        r = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    else:
        sx = rx.std()
        sy = ry.std()
        if sx == 0.0 or sy == 0.0:
            return None
        r = float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))
    return max(-1.0, min(1.0, r))


def _spearman_rows(F: np.ndarray, y: np.ndarray) -> list[float | None]:
    """Spearman's correlation of each row of the 2-d float array F with y,
    with pairwise deletion of non-finite values; None where the cell is
    undefined (see _rank_correlation). The rows finite wherever y is share
    y's complete pairs, so they and y are ranked together in one call; any
    other row is ranked with y on its own pairs."""
    ok = np.isfinite(y)
    shared = np.isfinite(F[:, ok]).all(axis=1)
    out: list[float | None] = [None] * len(F)
    if shared.any() and np.count_nonzero(ok) >= 3:
        R, distinct = _ranks(np.vstack([F[shared][:, ok], y[ok]]))
        for i, row in enumerate(np.flatnonzero(shared)):
            out[row] = _rank_correlation(R[i], R[-1], distinct[i] and distinct[-1])
    for row in np.flatnonzero(~shared):
        pair = ok & np.isfinite(F[row])
        if np.count_nonzero(pair) >= 3:
            (rx, ry), distinct = _ranks(np.vstack([F[row, pair], y[pair]]))
            out[row] = _rank_correlation(rx, ry, distinct.all())
    return out


def spearman(x, y) -> float | None:
    """Spearman rank correlation with pairwise deletion of missing values.

    NaN (or None) marks a missing value. Fewer than 3 complete pairs, or a
    constant rank vector, gives None.
    """
    x = np.asarray([np.nan if v is None else v for v in x], dtype=float)
    y = np.asarray([np.nan if v is None else v for v in y], dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    return _spearman_rows(x[None], y)[0]


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Spearman correlations between raw feature values and normalized
    fitness, one row per (benchmark, method, llm) group. None marks an
    undefined cell: fewer than 3 valid nodes, or a constant side on them."""

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


def correlation_table(table, feature_names=None) -> CorrelationTable:
    """Pool the nodes of each group's runs, a range of the CegTable's
    rows, and correlate each feature's raw values with normalized
    fitness, each cell as spearman gives it; a group's selected features
    are ranked in one call (_spearman_rows). feature_names None selects
    every column; any other list is checked by column_index."""
    if not table.run_ids:
        raise ValueError("no evolution graphs given")
    names = table.feature_names if feature_names is None else tuple(feature_names)
    cols = table.column_index(names)
    groups = table.group_bounds().tolist()
    bounds = table.run_bounds[groups].tolist()
    rows = [
        tuple(_spearman_rows(table.features_raw[lo:hi].T[cols], table.fitness_norm[lo:hi]))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return CorrelationTable(groups=tuple(table.group_keys[r] for r in groups[:-1]),
                            feature_names=names, values=tuple(rows))
