"""PCA, exact t-SNE, Spearman correlation, and the correlation table."""

import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cegraph import embed
from cegraph.ceg import build_ceg
from cegraph.embed import (
    _joint_probabilities,
    _rank,
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
    packed = np.empty((20, 20))
    _joint_probabilities(X, 5.0, packed, np.empty_like(packed))
    P = oracles.unpacked(packed)
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
    got = np.full((len(X), len(X)), np.nan)
    with mock.patch.object(embed, "_BLOCK_BYTES", 8 * len(X) * rows):
        _joint_probabilities(X, perplexity, got, np.full_like(got, np.nan))
        got = oracles.unpacked(got)
    want = oracles.joint_probabilities_reference(X, perplexity)
    assert got.tobytes() == want.tobytes()


def test_joint_probabilities_peak_memory():
    # no (n, n) array besides P and the scratch: the distances' differences,
    # the active rows' pi and their entropy terms are formed one block of
    # rows at a time (at n=300, a quarter of the rows)
    n = 300
    X = np.random.default_rng(0).normal(size=(n, 28))
    P, scratch = np.empty((n, n)), np.empty((n, n))
    tracemalloc.start()
    try:
        _joint_probabilities(X, 30.0, P, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


def test_tsne_peak_memory(monkeypatch):
    # the affinities and the kernel, the two (n, n) buffers of the loop,
    # besides a few blocks of rows: measured 3.61 x 8n^2 at n=300, where a
    # block is a quarter of the rows (6.17 with the gradient's own (n, n)
    # buffer and the affinity step's (n, n) temporaries)
    monkeypatch.setattr(embed, "_usable_cpus", lambda: 1)
    n = 300
    X = np.random.default_rng(0).normal(size=(n, 28))
    tracemalloc.start()
    try:
        tsne(X, perplexity=30.0, iterations=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.75 * 8 * n * n


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
    P = np.empty((30, 30))
    _joint_probabilities(X, 6.0, P, np.empty_like(P))
    P = oracles.unpacked(P)
    for Y in (rng.normal(size=(30, 2)), rng.normal(0.0, 1e-4, size=(30, 2))):
        kl, grad = kl_divergence_and_grad(P, Y)
        want_kl, want_grad = oracles.kl_divergence_and_grad_reference(P, Y)
        assert kl == want_kl
        assert grad.tobytes() == want_grad.tobytes()


def test_kl_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(6, 3))
    P = np.empty((6, 6))
    _joint_probabilities(X, 1.5, P, np.empty_like(P))
    P = oracles.unpacked(P)
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
        want = max(-1.0, min(1.0, oracles.spearman_with_ties(x, y)))
        assert got == pytest.approx(want, abs=1e-12)


# few distinct values, so that most draws hold long runs of ties
_TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, -5e-324,
                         1.7976931348623157e308, -1.7976931348623157e308,
                         math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_TIED | st.floats(allow_nan=False), max_size=60))
def test_rank_equals_loop_oracle_bitwise(values):
    got = _rank(np.array(values, dtype=float))
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


def test_spearman_constant_input_is_zero():
    assert spearman([5, 5, 5, 5], [1, 2, 3, 4]) == 0.0
    assert spearman([1, 2, 3, 4], [7, 7, 7, 7]) == 0.0


def test_spearman_length_mismatch():
    with pytest.raises(ValueError):
        spearman([1, 2, 3], [1, 2])


# ------------------------------------------------------- correlation table


def graphs_from(tmp_path, objs):
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
    graphs = graphs_from(tmp_path, make_objs([0.1, 0.2, 0.3, 0.4, 0.5]))
    table = correlation_table(graphs, feature_names=("node_count",))
    assert table.get(graphs[0].group_key, "node_count") == 1.0


def test_correlation_anti_monotone_feature_is_minus_one(tmp_path):
    graphs = graphs_from(tmp_path, make_objs([0.5, 0.4, 0.3, 0.2, 0.1]))
    table = correlation_table(graphs, feature_names=("token_total",))
    assert table.get(graphs[0].group_key, "token_total") == -1.0


def test_correlation_constant_feature_is_zero(tmp_path):
    # same code every time: every feature constant, fitness varies
    graphs = graphs_from(
        tmp_path,
        make_objs([0.1, 0.5, 0.9], code_of=lambda i: "x = 1\n"),
    )
    table = correlation_table(graphs)
    assert all(v == 0.0 for v in table.values[0])


def test_correlation_pools_runs_within_group(tmp_path):
    grow = lambda off: (lambda i: f"x = {i}\n" + "y = 0\n" * (i + off))
    objs = make_objs(
        [0.1, 0.2], run_id="r1", benchmark="b", method="m", code_of=grow(0)
    )
    objs += make_objs(
        [0.3, 0.4], run_id="r2", benchmark="b", method="m", code_of=grow(2)
    )
    graphs = graphs_from(tmp_path, objs)
    assert len(graphs) == 2
    table = correlation_table(graphs, feature_names=("node_count",))
    # 2+2 pooled nodes clear the 3-pair minimum; each run alone would not
    assert len(table.groups) == 1
    assert table.values[0][0] == 1.0


def test_correlation_sparse_group_gives_blank_cells(tmp_path):
    graphs = graphs_from(tmp_path, make_objs([0.1, 0.2]))
    table = correlation_table(graphs, feature_names=("node_count",))
    assert table.values[0][0] is None
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "group,node_count"
    assert lines[1].endswith(",")


def test_correlation_missing_fitness_dropped_pairwise(tmp_path):
    objs = make_objs([0.1, None, 0.3, 0.4, 0.2])
    graphs = graphs_from(tmp_path, objs)
    table = correlation_table(graphs, feature_names=("node_count",))
    # surviving pairs (i, fitness): (0,.1) (2,.3) (3,.4) (4,.2)
    want = oracles.spearman_no_ties([0, 2, 3, 4], [0.1, 0.3, 0.4, 0.2])
    assert table.values[0][0] == pytest.approx(want, abs=1e-12)


def test_correlation_csv_layout(tmp_path):
    objs = make_objs(
        [0.1, 0.2, 0.3], benchmark="bbob", method="ea", llm="gpt"
    )
    graphs = graphs_from(tmp_path, objs)
    table = correlation_table(graphs, feature_names=("node_count", "cc_total"))
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
    graphs = graphs_from(tmp_path, objs)
    names = ("node_count", "token_total", "cc_total")
    table = correlation_table(graphs, feature_names=names)
    row = dict(zip(names, table.values[0]))
    assert row["token_total"] == -1.0
    assert -1.0 < row["node_count"] < 1.0
    assert row["cc_total"] == 0.0  # constant feature


def test_correlation_errors(tmp_path):
    graphs = graphs_from(tmp_path, make_objs([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        correlation_table([])
    with pytest.raises(ValueError, match="unknown"):
        correlation_table(graphs, feature_names=("not_a_feature",))
