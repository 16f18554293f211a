"""PCA, exact t-SNE, Spearman correlation, and the correlation table."""

import json
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cegraph import embed
from cegraph.ceg import build_ceg
from cegraph.embed import (
    _joint_probabilities,
    _ranks,
    correlation_table,
    kl_divergence_and_grad,
    pca,
    spearman,
    tsne,
)
from cegraph.features import featurize_dataset
from cegraph.ingest import load_jsonl, validate


# ---------------------------------------------------------------- PCA


def test_pca_rank_one_line():
    X = np.array([[t, 2.0 * t, 3.0 * t] for t in range(1, 11)])
    res = pca(X, k=1)
    assert res.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)
    # direction proportional to (1,2,3)/norm, largest coefficient positive
    v = res.components[0]
    assert v[2] > 0
    assert np.allclose(v / v[0], [1.0, 2.0, 3.0])


def test_pca_square_equal_ratios():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    res = pca(X, k=2)
    assert res.explained_variance_ratio == pytest.approx([0.5, 0.5], abs=1e-12)


def test_pca_ratios_sum_to_one_at_full_rank():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(12, 5))
    res = pca(X, k=5)
    assert float(res.explained_variance_ratio.sum()) == pytest.approx(1.0, abs=1e-9)
    diffs = np.diff(res.explained_variance_ratio)
    assert np.all(diffs <= 1e-12)


def test_pca_reconstruction_full_rank():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 6)) * 3.0 + 1.5
    res = pca(X, k=6)
    back = res.projected @ res.components + res.mean
    assert float(np.abs(back - X).max()) <= 1e-6


def test_pca_components_orthonormal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(15, 7))
    res = pca(X, k=4)
    G = res.components @ res.components.T
    assert float(np.abs(G - np.eye(4)).max()) <= 1e-9


def test_pca_sign_convention():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(9, 4))
    res = pca(X, k=3)
    for row in res.components:
        assert row[int(np.argmax(np.abs(row)))] > 0


def test_pca_row_permutation_invariance_is_bitwise():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(14, 5))
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(14)
        a = pca(X, k=3)
        b = pca(X[perm], k=3)
        assert np.array_equal(
            a.explained_variance_ratio, b.explained_variance_ratio
        )
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.projected[perm], b.projected)


def test_pca_zero_variance_input():
    X = np.ones((4, 3))
    res = pca(X, k=1)
    assert res.explained_variance_ratio[0] == 0.0
    assert np.all(res.projected == 0.0)


def test_pca_preconditions():
    X = np.zeros((5, 3))
    with pytest.raises(ValueError):
        pca(np.zeros((1, 3)), k=1)
    with pytest.raises(ValueError):
        pca(X, k=0)
    with pytest.raises(ValueError):
        pca(X, k=4)  # k > d
    with pytest.raises(ValueError):
        pca(np.zeros((3, 5)), k=3)  # k > n - 1
    with pytest.raises(ValueError):
        pca(np.zeros(6), k=1)


# ---------------------------------------------------------------- t-SNE


def two_clusters(n_per=10, d=5, gap=100.0, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_per, d))
    b = rng.normal(0.0, 1.0, size=(n_per, d))
    b[:, 0] += gap
    return np.vstack([a, b])


def test_joint_probabilities_shape_and_mass():
    X = two_clusters()
    work = embed._Work(20)
    _joint_probabilities(X, 5.0, work)
    P = oracles.unpacked(work.P, 20)
    assert np.array_equal(P, P.T)
    assert float(P.sum()) == pytest.approx(1.0, abs=1e-6)
    assert float(P.min()) >= 1e-12
    # cross-cluster affinities collapse to the clamp floor
    assert float(P[:10, 10:].max()) == pytest.approx(1e-12)


@st.composite
def affinity_inputs(draw):
    """Random points at scales 1e-4..1e4, some rows duplicated, and any
    perplexity t-SNE accepts for them. Large scales underflow whole rows of
    the bandwidth search; small ones make rows nearly uniform."""
    n = draw(st.integers(4, 60))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * 10.0 ** draw(st.floats(-4.0, 4.0))
    dups = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=n // 2))
    for dst, src in dups:
        X[dst] = X[src]
    perplexity = draw(st.floats(1.0, (n - 1) / 3.0))
    return X, perplexity


@settings(max_examples=150, deadline=None)
@given(affinity_inputs(), st.integers(1, 60))
def test_joint_probabilities_bitwise_equal_to_per_row_bisection(case, rows):
    # blocks of 1 to n rows: the rows' bits do not depend on their block
    X, perplexity = case
    with mock.patch.object(embed, "_BLOCK_BYTES", 8 * len(X) * rows):
        work = embed._Work(len(X))
        # NaN shows any packed entry left unwritten
        work.P.fill(np.nan)
        _joint_probabilities(X, perplexity, work)
        got = oracles.unpacked(work.P, len(X))
    want = oracles.joint_probabilities_reference(X, perplexity)
    assert got.tobytes() == want.tobytes()


def _off_diagonal_distances(X):
    """Each point's squared distances to all the others, one row each."""
    n = len(X)
    D = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for x in X.T:
            D += (x[:, None] - x) ** 2
    return D[~np.eye(n, dtype=bool)].reshape(n, n - 1)


def _check_direct_entropy(D, target):
    """_bisect's rows against the direct entropy -sum p log2 p of
    p = exp(-beta d) / s, on each row whose entropy from the normaliser,
    log2 s + beta sum(e d) / (s ln 2), meets the target as _bisect tests
    it; returns which rows those are. Beyond 1e-5, the direct entropy may
    miss the target by what rounding each e = exp(-beta d) to a float moves
    it, sum p |log2 e + beta d / ln 2|, and by what rounding e d and s ln 2
    to the spacing of the subnormals, 2^-1074, moves the identity. The
    direct entropy sums over p > 0 (0 log 0 = 0): an entry e > 0 can still
    give p = e / s = 0."""
    beta, s = embed._bisect(D.copy(), target)
    e = np.exp(D * -beta[:, None])
    # s is the normaliser of the beta returned with it
    assert s.tobytes() == e.sum(axis=1).tobytes()
    with np.errstate(divide="ignore", invalid="ignore"):
        ed = e * D
        ed[e == 0.0] = 0.0
        term = beta * ed.sum(axis=1) / (s * math.log(2.0))
        h = np.log2(s) + term
        rounding = 2.0 ** -1074 * (beta * D.shape[1] + term) / (s * math.log(2.0))
    converged = np.abs(h - target) < 1e-5
    for i in np.flatnonzero(converged):
        nz = e[i] > 0.0
        p = e[i, nz] / s[i]
        direct = -np.sum(p[p > 0.0] * np.log2(p[p > 0.0]))
        kernel = np.sum(p * np.abs(np.log2(e[i, nz]) + beta[i] * D[i, nz] / math.log(2.0)))
        assert abs(direct - target) <= 1e-5 + kernel + rounding[i] + 1e-9, (i, s[i])
    return beta, s, converged


def _subnormal(D, beta, s, depth):
    """The rows of D with s > 0, each shifted by (ln s + depth) / beta, or
    by 0 if that is negative. A shift c moves no entropy, but it scales s
    by e^-(beta c), to about e^-depth: subnormal for a depth above 708."""
    some = s > 0.0
    shift = (np.log(s[some]) + depth) / beta[some]
    return D[some] + np.maximum(shift, 0.0)[:, None]


# 18 points on a line at perplexity 3: row 10's smallest e = exp(-beta d)
# is 5e-324, and with s = 2.04 its p = e / s rounds to 0
_P_UNDERFLOWS = np.array([[0.02188094103258567], [-0.4704973844631159], [0.02188094103258567],
                          [1.0401632042407074], [-1.0178974670568337], [-0.10122418104230829],
                          [-0.2040682687192639], [-0.17215354643398081], [-0.6482526511269385],
                          [0.2788381858113699], [0.21369469660405993], [0.21300369012303136],
                          [0.13373224472790626], [-0.1700319061522041], [-2.170384185081197],
                          [0.006757832332424079], [1.290592737310129], [-2.198010021274828]])


@settings(max_examples=150, deadline=None)
@given(affinity_inputs(), st.booleans(), st.floats(700.0, 740.0))
@example(case=(_P_UNDERFLOWS, 3.0), far=False, depth=700.0)
def test_bisection_meets_the_direct_entropy(case, far, depth):
    # duplicate points give exact zeros and a point 1e200 away infinite
    # distances; the rows go in as drawn and with subnormal normalisers
    X, perplexity = case
    if far:
        X[0] = 1e200
    target = math.log2(perplexity)
    D = _off_diagonal_distances(X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta, s, _ = _check_direct_entropy(D, target)
        _check_direct_entropy(_subnormal(D, beta, s, depth), target)
        work = embed._Work(len(X))
        _joint_probabilities(X, perplexity, work)
    assert not np.isnan(work.P).any()


def test_bisection_converges_on_ordinary_rows():
    # the check above reads only the rows that _bisect reports as
    # converged. On ordinary rows that is every row. Shifted to normalisers
    # near e^-720, the rounding of e d and s ln 2 to the subnormals' spacing
    # keeps some rows off 1e-5 (7 of these 40)
    D = _off_diagonal_distances(np.random.default_rng(4).normal(size=(40, 5)))
    beta, s, converged = _check_direct_entropy(D, math.log2(5.0))
    assert converged.all()
    _, s, converged = _check_direct_entropy(_subnormal(D, beta, s, 720.0), math.log2(5.0))
    assert np.all(s < np.finfo(float).tiny) and converged.mean() >= 0.5


@pytest.mark.parametrize("scale, far", [(5.0, False), (20.0, False), (5.0, True)])
def test_perplexity_one_keeps_every_row(scale, far):
    # at N(0, scale^2 I) in 28-d, exp(-d) underflows for every pair, so the
    # first normalisers are 0. Read as entropy 0 they would meet perplexity
    # 1's target of 0 and leave those rows' conditional probabilities all
    # zero; read as -inf they make beta back off. A point 1e200 away has
    # only infinite distances, so its row stays at the floor
    n = 6
    X = np.random.default_rng(0).normal(0.0, scale, size=(n, 28))
    if far:
        X[0] = 1e200
    work = embed._Work(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _joint_probabilities(X, 1.0, work)
    rows = (2 * n * oracles.unpacked(work.P, n)).sum(axis=1)
    if far:
        assert rows[0] == pytest.approx(2 * n * n * 1e-12)
        rows = rows[1:]
    assert np.all(rows >= 1.0 - 1e-12), rows


def test_joint_probabilities_peak_memory():
    # no (n, n) array, and nothing besides the packed P and the scratch of
    # the _Work but a few blocks: each block's distances, its rows' kernel
    # e = exp(-beta d) and their products e d (at n=300, a quarter of the
    # rows); measured 0.58 x 8n^2
    n = 300
    X = np.random.default_rng(0).normal(size=(n, 28))
    work = embed._Work(n)
    tracemalloc.start()
    try:
        _joint_probabilities(X, 30.0, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * 8 * n * n


def _tsne_peak(n):
    X = np.random.default_rng(0).normal(size=(n, 28))
    tracemalloc.start()
    try:
        tsne(X, perplexity=30.0, iterations=20)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tsne_peak_memory():
    # the affinities and the kernel, about n^2 / 2 packed entries each,
    # besides a few blocks of rows: measured 2.64 x 8n^2 at n=300, where a
    # block is a quarter of the rows
    n = 300
    assert _tsne_peak(n) <= 3.0 * 8 * n * n


def test_tsne_peak_memory_at_1000_points():
    # a block is 32 of 1000 rows, so the two packed halves dominate:
    # measured 1.22 x 8n^2, where two (n, n) buffers alone would take 2
    n = 1000
    assert _tsne_peak(n) <= 1.5 * 8 * n * n


@pytest.mark.parametrize("project", [lambda X: pca(X, 1), tsne], ids=["pca", "tsne"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_projections_reject_non_finite_input(project, bad):
    X = np.random.default_rng(0).normal(size=(20, 3))
    X[4, 1] = bad
    with pytest.raises(ValueError, match=r"^X holds 1 non-finite entries$"):
        project(X)


@pytest.mark.parametrize("n, d, scale, perplexity, seed", [
    (20, 5, 1.0, 5.0, 0),
    (37, 3, 1e3, 11.5, 4),
    (9, 2, 1e-3, 1.0, 7),
])
def test_tsne_bitwise_equal_to_dense_reference(n, d, scale, perplexity, seed):
    # 300 iterations: both the exaggerated and the late momentum phase run
    X = np.random.default_rng(seed).normal(size=(n, d)) * scale
    X[-1] = X[0]
    got = tsne(X, perplexity=perplexity, seed=seed, iterations=300).coords
    want = oracles.tsne_reference(X, perplexity, seed, iterations=300)
    assert got.tobytes() == want.tobytes()


def test_kl_and_gradient_bitwise_equal_to_dense_reference():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 4))
    work = embed._Work(30)
    _joint_probabilities(X, 6.0, work)
    P = oracles.unpacked(work.P, 30)
    for Y in (rng.normal(size=(30, 2)), rng.normal(0.0, 1e-4, size=(30, 2))):
        kl, grad = kl_divergence_and_grad(P, Y)
        want_kl, want_grad = oracles.kl_divergence_and_grad_reference(P, Y)
        assert kl == want_kl
        assert grad.tobytes() == want_grad.tobytes()


def test_kl_of_zero_affinities_warns_nothing():
    # a zero entry gives a log of 0 and a product 0 * -inf, whose term is
    # then set to 0; neither may warn
    n = 6
    P = np.full((n, n), 1.0 / (n * (n - 1)))
    np.fill_diagonal(P, 0.0)
    Y = np.random.default_rng(5).normal(size=(n, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kl, grad = kl_divergence_and_grad(P, Y)
        want_kl, want_grad = oracles.kl_divergence_and_grad_reference(P, Y)
    assert kl == want_kl
    assert grad.tobytes() == want_grad.tobytes()


def test_kl_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(6, 3))
    work = embed._Work(6)
    _joint_probabilities(X, 1.5, work)
    P = oracles.unpacked(work.P, 6)
    Y = rng.normal(size=(6, 2))
    kl, grad = kl_divergence_and_grad(P, Y)
    assert kl >= 0.0
    h = 1e-5
    num = np.zeros_like(Y)
    for i in range(6):
        for j in range(2):
            Yp = Y.copy()
            Yp[i, j] += h
            Ym = Y.copy()
            Ym[i, j] -= h
            kp, _ = kl_divergence_and_grad(P, Yp)
            km, _ = kl_divergence_and_grad(P, Ym)
            num[i, j] = (kp - km) / (2.0 * h)
    rel = np.abs(num - grad) / np.maximum(np.abs(grad), 1e-8)
    assert float(rel.max()) < 1e-4


def _textbook_gradient(P, Y, exaggeration, num):
    """4 sum_j (e p_ij - max(num_ij / Z, 1e-12)) num_ij (y_i - y_j), with Z
    the sum of the kernel num, on whole (n, n) arrays."""
    Q = np.maximum(num / num.sum(), 1e-12)
    diff = Y[:, None, :] - Y[None, :, :]
    return 4.0 * np.sum(((exaggeration * P - Q) * num)[:, :, None] * diff, axis=1)


def _gradient_error(P, Y, exaggeration):
    """The largest deviation of embed._gradient from the textbook formula,
    over the largest textbook entry. The formula takes the library's own
    kernel, which equals the oracle's bit for bit (above): its product form
    1 + |y_i|^2 + |y_j|^2 - 2 y_i . y_j rounds |y|^2, so at coordinates of
    1e2-1e3 a gradient from it deviates from one with the exact kernel by
    up to about 1e-11 of its largest entry (3000 random layouts)."""
    n = len(Y)
    work = embed._Work(n)
    embed._pack(P, work)
    got = embed._gradient(work, Y, exaggeration)
    want = _textbook_gradient(P, Y, exaggeration, oracles.unpacked(work.num, n))
    return np.abs(got - want).max() / np.abs(want).max()


def _random_affinities(rng, n):
    P = rng.random((n, n))
    P += P.T
    np.fill_diagonal(P, 0.0)
    return P / P.sum()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(4, 60), st.floats(-4.0, 3.0), st.sampled_from([1.0, 12.0]),
       st.integers(0, 2**32 - 1))
def test_gradient_is_the_textbook_formula(data, n, scale, exaggeration, seed):
    # the gradient takes e out of the sum and multiplies by 1 / (e Z): the
    # same function as the formula, to rounding, with blocks of 1 to n rows
    rows = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(n, 2)) * 10.0**scale
    with mock.patch.object(embed, "_BLOCK_BYTES", 8 * n * rows):
        assert _gradient_error(_random_affinities(rng, n), Y, exaggeration) <= 1e-12


@pytest.mark.parametrize("exaggeration", [1.0, 12.0])
def test_gradient_keeps_the_floor_of_q_between_distant_clusters(exaggeration):
    # 30 points within about 1e-8 of the origin and a one-point cluster 1e7
    # away, where the kernel is about 1e-14 and num / Z about 1e-17: Q's
    # floor of 1e-12 sets each pair across, and dropping it moves the
    # gradient by 8e-10 of its largest entry at e = 1 and 7e-11 at e = 12.
    # The far cluster is one point since within a cluster 1e7 from the
    # origin the kernel's product form cannot resolve distances of order 1
    rng = np.random.default_rng(1)
    Y = np.vstack([rng.normal(size=(30, 2)) * 1e-8, [[1e7, 0.0]]])
    num = 1.0 / (1.0 + np.sum((Y[:, None, :] - Y[None, :, :]) ** 2, axis=-1))
    np.fill_diagonal(num, 0.0)
    assert (num[:30, 30] / num.sum()).max() < 1e-14
    assert _gradient_error(_random_affinities(rng, 31), Y, exaggeration) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(4, 60), st.floats(-4.0, 7.0), st.sampled_from([1.0, 12.0]),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_floor_guard_keeps_the_bits(data, n, scale, exaggeration, floored_p, far, seed):
    # the gradient skips Q's floor pass where _floor_binds shows it cannot
    # bind; it must equal the oracle, which floors every pair, bit for bit,
    # and where it skips, no off-diagonal c * num may lie below the floor.
    # A point moved 1e7 times further out makes the floor bind at times
    rows = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    Y = rng.normal(size=(n, 2)) * 10.0**scale
    if far:
        Y[-1] *= 1e7
    P = _random_affinities(rng, n)
    if floored_p:
        P = np.maximum(P, 1e-12)
    with mock.patch.object(embed, "_BLOCK_BYTES", 8 * n * rows):
        work = embed._Work(n)
        embed._pack(P, work)
        got = embed._gradient(work, Y, exaggeration)
        _, want = oracles._kl_and_grad(P, Y, exaggeration)
        num = oracles.unpacked(work.num, n)
    assert got.tobytes() == want.tobytes()
    c, floor = 1.0 / (exaggeration * work.totals.sum()), 1e-12 / exaggeration
    if not embed._floor_binds(c, floor, work.A[:, 0].max()):
        assert (num[~np.eye(n, dtype=bool)] * c >= floor).all()


def test_floor_guard_skips_only_where_the_floor_cannot_bind():
    # a t-SNE layout within |y| = 50 leaves the floor far from binding; the
    # 30 points and the one 1e7 away of
    # test_gradient_keeps_the_floor_of_q_between_distant_clusters (Z about
    # 870) need it, and a NaN or an infinity keeps it
    floor = 1e-12
    assert not embed._floor_binds(1e-4, floor, 2500.0)
    assert embed._floor_binds(1.0 / 870, floor, 1e14)
    for c, sq_max in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (math.inf, math.inf),
                      (1.0, math.inf)):
        assert embed._floor_binds(c, floor, sq_max)


def test_gradient_of_a_cluster_far_from_the_origin_is_the_textbook_formula():
    # kl_divergence_and_grad centres Y, so the kernel's |y|^2 terms are
    # small; uncentred, its gradient deviated by 2e-2 of its largest entry
    rng = np.random.default_rng(0)
    Y = rng.normal(size=(20, 2)) + 1e7
    P = _random_affinities(rng, 20)
    num = 1.0 / (1.0 + np.sum((Y[:, None, :] - Y[None, :, :]) ** 2, axis=-1))
    np.fill_diagonal(num, 0.0)
    _, got = kl_divergence_and_grad(P, Y)
    want = _textbook_gradient(P, Y, 1.0, num)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_tsne_separates_distant_clusters():
    # pinned instance: the update rule runs hot at n=20 (lr 200 with the
    # x4 gradient factor), so some inits shear a cluster apart; with the
    # seed fixed the outcome is a stable, wide-margin property
    X = two_clusters()
    res = tsne(X, perplexity=5.0, seed=0)
    Y = res.coords
    assert Y.shape == (20, 2)
    assert np.all(np.isfinite(Y))
    intra = 0.0
    for block in (Y[:10], Y[10:]):
        D = np.linalg.norm(block[:, None] - block[None, :], axis=-1)
        intra = max(intra, float(D.max()))
    inter = float(
        np.linalg.norm(Y[:10][:, None] - Y[10:][None, :], axis=-1).min()
    )
    assert inter > intra


def test_tsne_fixed_seed_bitwise_deterministic():
    X = two_clusters(seed=9)
    a = tsne(X, perplexity=4.0, seed=12, iterations=400)
    b = tsne(X, perplexity=4.0, seed=12, iterations=400)
    assert a.coords.tobytes() == b.coords.tobytes()


def test_tsne_different_seed_differs():
    X = two_clusters(seed=9)
    a = tsne(X, perplexity=4.0, seed=1, iterations=300)
    b = tsne(X, perplexity=4.0, seed=2, iterations=300)
    assert not np.array_equal(a.coords, b.coords)


def test_tsne_square_smoke():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    res = tsne(X, perplexity=1.0, seed=0)
    assert np.all(np.isfinite(res.coords))


def test_tsne_preconditions():
    X = np.zeros((10, 3))
    with pytest.raises(ValueError):
        tsne(np.zeros((3, 2)), perplexity=1.0)
    with pytest.raises(ValueError):
        tsne(X, perplexity=0.5)
    with pytest.raises(ValueError):
        tsne(X, perplexity=3.1)  # > (n-1)/3 = 3
    with pytest.raises(ValueError):
        tsne(X, perplexity=2.0, iterations=0)
    # random.Random would fold -3 onto 3 and hash a float
    for seed in (-3, 1.5, "0", None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            tsne(X, perplexity=2.0, seed=seed)


@pytest.mark.parametrize("n, d", [(66, 28), (200, 22), (400, 28)])
def test_projections_do_not_depend_on_memory_layout(n, d):
    X = np.random.default_rng(n).normal(size=(n, d))
    padded = np.zeros((n, 2 * d))
    padded[:, ::2] = X
    want_pca = pca(X, 2).projected.tobytes()
    want_tsne = tsne(X, perplexity=10.0, seed=3, iterations=60).coords.tobytes()
    for view in (np.asfortranarray(X), padded[:, ::2]):
        assert pca(view, 2).projected.tobytes() == want_pca
        assert tsne(view, perplexity=10.0, seed=3, iterations=60).coords.tobytes() == want_tsne


# ---------------------------------------------------------------- Spearman


def test_spearman_monotone_pairs():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0
    assert spearman([1, 2, 3], [2, 1, 3]) == 0.5


def test_spearman_matches_closed_form_on_permutations():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(3, 30)
        x = list(range(n))
        y = x[:]
        rng.shuffle(x)
        rng.shuffle(y)
        assert spearman(x, y) == oracles.spearman_no_ties(x, y)


def test_spearman_ties_match_rank_pearson_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(3, 20)
        x = [rng.randint(0, 5) for _ in range(n)]
        y = [rng.randint(0, 5) for _ in range(n)]
        got = spearman(x, y)
        want = oracles.spearman_with_ties(x, y)
        if want is None:  # a constant side: undefined
            assert got is None
        else:
            assert got == pytest.approx(max(-1.0, min(1.0, want)), abs=1e-12)


# few distinct values, so that most draws hold long runs of ties
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, -5e-324,
                         1.7976931348623157e308, -1.7976931348623157e308,
                         math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_TIED | st.floats(allow_nan=False), max_size=60))
def test_rank_equals_loop_oracle_bitwise(values):
    got = _ranks(np.array(values, dtype=float)[None])[0][0]
    assert got.tobytes() == np.array(oracles.rank_with_ties(values), dtype=float).tobytes()


# integers, so that each transform below is strictly increasing in floats too
_RANKED = st.none() | st.just(math.nan) | st.integers(-40, 40)
_INCREASING = [lambda v: v**3, lambda v: 2.0**v, lambda v: 3 * v - 7]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 25))
def test_spearman_invariant_under_increasing_transform_with_missing(data, n):
    x = data.draw(st.lists(_RANKED, min_size=n, max_size=n))
    y = data.draw(st.lists(_RANKED, min_size=n, max_size=n))
    g = data.draw(st.sampled_from(_INCREASING))
    h = data.draw(st.sampled_from(_INCREASING))

    def transformed(values, f):
        return [v if v is None or v != v else f(v) for v in values]

    base = spearman(x, y)
    assert spearman(transformed(x, g), y) == base
    assert spearman(x, transformed(y, h)) == base
    assert spearman(transformed(x, g), transformed(y, h)) == base


def test_spearman_strictly_increasing_transform_invariance():
    rng = random.Random(13)
    x = [rng.uniform(-5, 5) for _ in range(25)]
    y = [rng.uniform(-5, 5) for _ in range(25)]
    base = spearman(x, y)
    transforms = [
        lambda v: v**3 + 2.0 * v,
        math.exp,
        lambda v: 10.0 * v - 3.0,
        lambda v: math.atan(v),
        lambda v: v + math.tanh(v),
    ]
    for g in transforms:
        for h in transforms:
            assert spearman([g(v) for v in x], [h(v) for v in y]) == base


def test_spearman_pairwise_deletion():
    x = [1.0, None, 3.0, 4.0, float("nan"), 6.0]
    y = [2.0, 5.0, 6.0, None, 1.0, 12.0]
    # surviving pairs: (1,2), (3,6), (6,12) which are strictly monotone
    assert spearman(x, y) == 1.0


def test_spearman_too_few_pairs_is_none():
    assert spearman([1, 2], [2, 1]) is None
    assert spearman([1, None, 3], [1, 2, 3]) is None
    assert spearman([], []) is None


def test_spearman_constant_input_is_undefined():
    assert spearman([5, 5, 5, 5], [1, 2, 3, 4]) is None
    assert spearman([1, 2, 3, 4], [7, 7, 7, 7]) is None
    # constant on the complete pairs only
    assert spearman([5, 5, 5, 1], [1, 2, 3, None]) is None


def test_spearman_length_mismatch():
    with pytest.raises(ValueError):
        spearman([1, 2, 3], [1, 2])


# ------------------------------------------------------- correlation table


def ceg_from(tmp_path, objs):
    path = tmp_path / "log.jsonl"
    path.write_text(
        "\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8"
    )
    ds, _ = validate(load_jsonl(path))
    table, failures = featurize_dataset(ds)
    assert not failures
    return build_ceg(ds, table)


def make_objs(fitnesses, run_id="r", code_of=None, **common):
    code_of = code_of or (lambda i: f"x = {i}\n" + "y = 0\n" * i)
    objs = []
    for i, f in enumerate(fitnesses):
        obj = {
            "id": f"{run_id}-s{i}",
            "run_id": run_id,
            "evaluation_index": i,
            "code": code_of(i),
            "fitness_raw": f,
        }
        obj.update(common)
        objs.append(obj)
    return objs


def test_correlation_monotone_feature_is_one(tmp_path):
    # node_count strictly grows with i, fitness too
    ceg = ceg_from(tmp_path, make_objs([0.1, 0.2, 0.3, 0.4, 0.5]))
    table = correlation_table(ceg, feature_names=("node_count",))
    assert table.get(ceg.group_keys[0], "node_count") == 1.0


def test_correlation_anti_monotone_feature_is_minus_one(tmp_path):
    ceg = ceg_from(tmp_path, make_objs([0.5, 0.4, 0.3, 0.2, 0.1]))
    table = correlation_table(ceg, feature_names=("token_total",))
    assert table.get(ceg.group_keys[0], "token_total") == -1.0


def test_correlation_constant_feature_is_undefined(tmp_path):
    # same code every time: every feature constant, fitness varies
    ceg = ceg_from(
        tmp_path,
        make_objs([0.1, 0.5, 0.9], code_of=lambda i: "x = 1\n"),
    )
    table = correlation_table(ceg)
    assert all(v is None for v in table.values[0])


def test_correlation_pools_runs_within_group(tmp_path):
    grow = lambda off: (lambda i: f"x = {i}\n" + "y = 0\n" * (i + off))
    objs = make_objs(
        [0.1, 0.2], run_id="r1", benchmark="b", method="m", code_of=grow(0)
    )
    objs += make_objs(
        [0.3, 0.4], run_id="r2", benchmark="b", method="m", code_of=grow(2)
    )
    ceg = ceg_from(tmp_path, objs)
    assert len(ceg.run_ids) == 2
    table = correlation_table(ceg, feature_names=("node_count",))
    # 2+2 pooled nodes clear the 3-pair minimum; each run alone would not
    assert len(table.groups) == 1
    assert table.values[0][0] == 1.0


def test_correlation_sparse_group_gives_blank_cells(tmp_path):
    ceg = ceg_from(tmp_path, make_objs([0.1, 0.2]))
    table = correlation_table(ceg, feature_names=("node_count",))
    assert table.values[0][0] is None
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "group,node_count"
    assert lines[1].endswith(",")


def test_correlation_missing_fitness_dropped_pairwise(tmp_path):
    objs = make_objs([0.1, None, 0.3, 0.4, 0.2])
    ceg = ceg_from(tmp_path, objs)
    table = correlation_table(ceg, feature_names=("node_count",))
    # surviving pairs (i, fitness): (0,.1) (2,.3) (3,.4) (4,.2)
    want = oracles.spearman_no_ties([0, 2, 3, 4], [0.1, 0.3, 0.4, 0.2])
    assert table.values[0][0] == pytest.approx(want, abs=1e-12)


def test_correlation_csv_layout(tmp_path):
    objs = make_objs(
        [0.1, 0.2, 0.3], benchmark="bbob", method="ea", llm="gpt"
    )
    ceg = ceg_from(tmp_path, objs)
    table = correlation_table(ceg, feature_names=("node_count", "cc_total"))
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "group,node_count,cc_total"
    assert lines[1].startswith("bbob/ea/gpt,")


def test_correlation_exactly_one_feature_anti_monotone(tmp_path):
    # parens add tokens without adding AST nodes, so token_total falls
    # strictly with fitness while node_count wiggles non-monotonically
    pads = [2, 5, 3, 6, 4]
    parens = [80 - 15 * i for i in range(5)]

    def code_of(i):
        lines = [f"v{k} = {k}" for k in range(pads[i])]
        lines.append("expr = " + "(" * parens[i] + "1" + ")" * parens[i])
        return "\n".join(lines) + "\n"

    objs = make_objs([0.1, 0.2, 0.3, 0.4, 0.5], code_of=code_of)
    ceg = ceg_from(tmp_path, objs)
    names = ("node_count", "token_total", "cc_total")
    table = correlation_table(ceg, feature_names=names)
    row = dict(zip(names, table.values[0]))
    assert row["token_total"] == -1.0
    assert -1.0 < row["node_count"] < 1.0
    assert row["cc_total"] is None  # constant feature


# few distinct values, so that ties, constant columns and sparse groups
# are common; NaN and infinities are missing values
_CELL = st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, math.inf]) | st.floats(-1e3, 1e3)


@st.composite
def correlation_tables(draw):
    """Runs of 1-8 nodes in up to 3 groups, with 1-4 features (each
    constant at times) and fitness values that may be missing."""
    k = draw(st.integers(1, 4))
    runs = []
    for r in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, 8))
        F = np.array(draw(st.lists(st.lists(_CELL, min_size=k, max_size=k),
                                   min_size=m, max_size=m)))
        for j in range(k):
            if draw(st.booleans()):
                F[:, j] = F[0, j]
        nodes = [(f"r{r}-{i}", i, draw(st.none() | _CELL), F[i], F[i]) for i in range(m)]
        key = ("b", draw(st.sampled_from(["m0", "m1", "m2"])), "")
        runs.append((key, f"r{r}", nodes, []))
    runs.sort(key=lambda run: run[:2])
    return oracles.ceg_table([f"f{j}" for j in range(k)], runs)


@settings(max_examples=300, deadline=None)
@given(correlation_tables())
def test_correlation_table_equals_per_cell_reference_bitwise(ceg):
    # each group's columns are ranked in one call; every cell keeps the
    # bits of spearman's arithmetic on that column alone
    table = correlation_table(ceg)
    assert table.groups == tuple(sorted(set(ceg.group_keys)))
    for key, row in zip(table.groups, table.values):
        nodes = [i for r, k in enumerate(ceg.group_keys) if k == key
                 for i in range(ceg.run_bounds[r], ceg.run_bounds[r + 1])]
        fitness = [None if np.isnan(ceg.fitness_norm[i]) else ceg.fitness_norm[i] for i in nodes]
        for j, got in enumerate(row):
            want = oracles.spearman_reference([float(ceg.features_raw[i, j]) for i in nodes],
                                              fitness)
            assert repr(got) == repr(want)


def test_correlation_errors(tmp_path):
    ceg = ceg_from(tmp_path, make_objs([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="no evolution graphs"):
        correlation_table(oracles.ceg_table(("node_count",), []))
    with pytest.raises(ValueError, match="unknown"):
        correlation_table(ceg, feature_names=("not_a_feature",))
    # only None selects every column; a column is never listed twice
    with pytest.raises(ValueError, match="lists more than once: node_count$"):
        correlation_table(ceg, ("node_count", "node_count"))
    with pytest.raises(ValueError, match="empty"):
        correlation_table(ceg, ())
    assert correlation_table(ceg).feature_names == ceg.feature_names
