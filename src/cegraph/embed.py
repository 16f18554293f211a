"""Projections and rank statistics: PCA, exact t-SNE, Spearman correlation.

Everything here is deterministic given its arguments. PCA diagonalizes the
sample covariance (ddof=1) with a symmetric eigensolver and fixes the sign
of each component so its largest-magnitude coefficient is positive. t-SNE
is the exact O(n^2) formulation: per-point bandwidths found by one
bisection on the Shannon entropy that steps all rows at once, early
exaggeration, momentum switch, seeded initialization from a dedicated
generator. The optimization loop computes only the gradient, in two (n, n)
buffers allocated once per call; the KL value is not evaluated inside it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

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


def _gradient(P: np.ndarray, Y: np.ndarray, num: np.ndarray, g: np.ndarray) -> np.ndarray:
    """KL gradient with respect to Y, computed in the (n, n) buffers num and g.

    On return num holds the Student-t kernel 1 / (1 + |y_i - y_j|^2) with a
    zero diagonal. Every step repeats the operation order of the dense
    formula 4 * (diag(rowsum(PQ)) - PQ) @ Y with PQ = (P - Q) * num, so the
    result is bitwise the same as evaluating that formula directly.
    """
    n = Y.shape[0]
    sq = np.sum(Y * Y, axis=1)
    np.matmul(Y, Y.T, out=g)
    g *= 2.0
    np.add(sq[:, None], sq[None, :], out=num)
    num -= g
    np.maximum(num, 0.0, out=num)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=g)
    np.maximum(g, 1e-12, out=g)
    np.subtract(P, g, out=g)
    g *= num
    # diag(rowsum) - PQ: 0 - x rather than -x off the diagonal, so that zero
    # entries keep the sign the dense formula gives them
    rowsum = g.sum(axis=1)
    diag = rowsum - g.diagonal()
    np.subtract(0.0, g, out=g)
    g.flat[:: n + 1] = diag
    return 4.0 * (g @ Y)


def kl_divergence_and_grad(P: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P || Q) under the Student-t kernel and its analytic gradient.

    grad_i = 4 * sum_j (p_ij - q_ij) * (1 + |y_i - y_j|^2)^-1 * (y_i - y_j)
    """
    n = Y.shape[0]
    num = np.empty((n, n))
    grad = _gradient(P, Y, num, np.empty((n, n)))
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

    P = _joint_probabilities(X, perplexity)
    P_exaggerated = P * 12.0
    num = np.empty((n, n))
    work = np.empty((n, n))
    rng = np.random.default_rng(seed)
    Y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    lr = 200.0

    for it in range(iterations):
        grad = _gradient(P_exaggerated if it < 250 else P, Y, num, work)
        momentum = 0.5 if it < 250 else 0.8
        # adaptive per-coordinate gains keep lr=200 stable on small inputs
        same = np.sign(grad) == np.sign(velocity)
        gains = np.where(same, gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - lr * (gains * grad)
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)

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
