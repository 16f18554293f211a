"""Graph feature extraction, checked against brute-force oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from synth import random_module
from cegraph.astfeat import (
    AST_FEATURE_NAMES,
    EIG_FEATURE_NAMES,
    compute_graph_features,
    forest_features,
)
from cegraph.pyast import parse_to_graph


def path3():
    # Module - Expr - Name
    return parse_to_graph("x")


def star4():
    # Module above three Pass statements
    return parse_to_graph("pass\npass\npass")


def tree_edges(g):
    return [(p, v) for v, p in enumerate(g.parent) if v]


def test_path3_frozen_values():
    f = compute_graph_features(path3())
    assert f["node_count"] == 3
    assert f["edge_count"] == 2
    assert f["edge_density"] == pytest.approx(2 / 3, abs=1e-12)
    assert f["degree_min"] == 1.0
    assert f["degree_max"] == 2.0
    assert f["degree_mean"] == pytest.approx(4 / 3, abs=1e-12)
    assert f["degree_var"] == pytest.approx(2 / 9, abs=1e-12)
    # degree values {1: 2, 2: 1} -> ln 3 - (2/3) ln 2
    assert f["degree_entropy"] == pytest.approx(
        math.log(3) - (2 / 3) * math.log(2), abs=1e-12
    )
    assert f["assortativity"] == pytest.approx(-1.0, abs=1e-12)
    assert f["depth_min"] == 0.0
    assert f["depth_max"] == 2.0
    assert f["depth_mean"] == pytest.approx(1.0, abs=1e-12)
    assert f["depth_entropy"] == pytest.approx(math.log(3), abs=1e-12)
    assert f["clustering_min"] == f["clustering_max"] == 0.0
    assert f["transitivity"] == 0.0
    assert f["diameter"] == 2
    assert f["radius"] == 1
    assert f["mean_eccentricity"] == pytest.approx(5 / 3, abs=1e-12)
    assert f["avg_shortest_path"] == pytest.approx(4 / 3, abs=1e-12)


def test_star4_frozen_values():
    f = compute_graph_features(star4())
    assert f["edge_density"] == pytest.approx(3 / 4, abs=1e-12)
    assert f["degree_max"] == 3.0
    assert f["assortativity"] == pytest.approx(-1.0, abs=1e-12)
    assert f["depth_mean"] == pytest.approx(3 / 4, abs=1e-12)
    assert f["diameter"] == 2
    assert f["radius"] == 1
    assert f["mean_eccentricity"] == pytest.approx(7 / 4, abs=1e-12)
    assert f["avg_shortest_path"] == pytest.approx(1.5, abs=1e-12)


def test_assignment_graph_is_a_star():
    # Module-Assign plus Assign's two children: same shape as star4
    f = compute_graph_features(parse_to_graph("x = 1"))
    s = compute_graph_features(star4())
    for name in AST_FEATURE_NAMES:
        if name in ("depth_min", "depth_max", "depth_mean", "depth_entropy"):
            continue  # rooted at a leaf instead of the hub
        assert f[name] == pytest.approx(s[name], abs=1e-12)


def test_single_node_degenerate_values():
    f = compute_graph_features(parse_to_graph(""))
    assert f["node_count"] == 1
    assert f["edge_count"] == 0
    for name in AST_FEATURE_NAMES[2:]:
        assert f[name] == 0.0


def test_single_node_eigencentrality_is_one():
    f = compute_graph_features(parse_to_graph(""), include_eigenvector=True)
    assert f["eig_centrality_max"] == pytest.approx(1.0, abs=1e-12)
    assert f["eig_centrality_mean"] == pytest.approx(1.0, abs=1e-12)


def test_eigencentrality_path3_matches_dense_solver():
    f = compute_graph_features(path3(), include_eigenvector=True)
    # principal eigenvector of the path: (1, sqrt(2), 1) / 2
    assert f["eig_centrality_max"] == pytest.approx(math.sqrt(2) / 2, abs=1e-8)
    assert f["eig_centrality_mean"] == pytest.approx((2 + math.sqrt(2)) / 6, abs=1e-8)


def test_eigencentrality_disabled_by_default():
    f = compute_graph_features(path3())
    assert "eig_centrality_max" not in f


def test_eigencentrality_matches_eigh_on_fuzzed_graphs():
    for seed in range(8):
        g = parse_to_graph(random_module(random.Random(300 + seed), 12))
        f = compute_graph_features(g, include_eigenvector=True)
        n = g.node_count
        a = np.eye(n)
        for p, c in tree_edges(g):
            a[p, c] = a[c, p] = 1.0
        vals, vecs = np.linalg.eigh(a)
        v = np.abs(vecs[:, -1])
        assert f["eig_centrality_max"] == pytest.approx(float(v.max()), abs=1e-7)
        assert f["eig_centrality_mean"] == pytest.approx(float(v.mean()), abs=1e-7)


def test_matches_oracles_on_fuzzed_modules():
    for seed in range(25):
        code = random_module(random.Random(100 + seed), approx_lines=20)
        g = parse_to_graph(code)
        f = compute_graph_features(g)
        n, edges = g.node_count, tree_edges(g)

        deg = oracles.degrees(n, edges)
        assert f["degree_min"] == min(deg)
        assert f["degree_max"] == max(deg)
        assert f["degree_mean"] == pytest.approx(sum(deg) / n, abs=1e-12)
        mean = sum(deg) / n
        assert f["degree_var"] == pytest.approx(
            sum((d - mean) ** 2 for d in deg) / n, abs=1e-9
        )
        assert f["degree_entropy"] == pytest.approx(
            oracles.entropy_of_counts(deg), abs=1e-9
        )
        assert f["depth_entropy"] == pytest.approx(
            oracles.entropy_of_counts(g.depth), abs=1e-9
        )
        assert f["assortativity"] == pytest.approx(
            oracles.assortativity(n, edges), abs=1e-9
        )

        diam, rad, mean_ecc, avg_sp = oracles.distance_stats(n, edges)
        assert f["diameter"] == diam
        assert f["radius"] == rad
        assert f["mean_eccentricity"] == pytest.approx(mean_ecc, abs=1e-9)
        assert f["avg_shortest_path"] == pytest.approx(avg_sp, abs=1e-9)

        coeffs = oracles.local_clustering(n, edges)
        assert f["clustering_min"] == min(coeffs)
        assert f["clustering_max"] == max(coeffs)
        assert f["clustering_mean"] == pytest.approx(
            sum(coeffs) / n, abs=1e-12
        )
        assert f["transitivity"] == oracles.transitivity(n, edges)


def test_invariants_on_fuzzed_modules():
    for seed in range(30):
        g = parse_to_graph(random_module(random.Random(200 + seed), 30))
        f = compute_graph_features(g)
        n = f["node_count"]
        assert f["edge_count"] == n - 1
        assert f["radius"] <= f["diameter"] <= 2 * f["radius"]
        assert 0.0 <= f["degree_entropy"] <= math.log(n) + 1e-12
        assert 0.0 <= f["depth_entropy"] <= math.log(n) + 1e-12
        assert -1.0 <= f["assortativity"] <= 1.0
        assert f["clustering_max"] == 0.0  # trees have no triangles
        assert f["transitivity"] == 0.0
        assert f["radius"] <= f["mean_eccentricity"] <= f["diameter"]
        assert 0.0 < f["avg_shortest_path"] <= f["diameter"]
        assert f["degree_mean"] == pytest.approx(2 * f["edge_count"] / n, abs=1e-12)


def test_as_dict_order_matches_canonical_names():
    assert tuple(compute_graph_features(path3())) == AST_FEATURE_NAMES
    with_eig = compute_graph_features(parse_to_graph("x = 1"), include_eigenvector=True)
    assert tuple(with_eig) == AST_FEATURE_NAMES + EIG_FEATURE_NAMES
    assert all(type(value) is float for value in with_eig.values())


VAR = AST_FEATURE_NAMES.index("degree_var")
ASSORTATIVITY = AST_FEATURE_NAMES.index("assortativity")


def depths(parent):
    depth = [0] * len(parent)
    for v in range(1, len(parent)):
        depth[v] = depth[parent[v]] + 1
    return depth


def features_of(parent):
    return forest_features(np.array(parent), np.array(depths(parent)))[0]


def test_degree_spread_is_correctly_rounded_where_float_sums_are_not():
    # summed in floats, as numpy sums the deviation products, this tree's
    # assortativity comes out 90 ulps away from -1/1070
    f = features_of([-1, 0, 1, 0, 3, 3, 0, 6, 0, 8, 9, 10, 9, 12, 0, 14, 14, 0, 17, 18, 17, 20])
    assert f[VAR] == 164 / 121
    assert f[ASSORTATIVITY] == -1 / 1070


def test_degree_spread_of_a_large_star():
    k = 100_000
    f = features_of([-1] + [0] * k)
    n, mean = k + 1, Fraction(2 * k, k + 1)
    assert f[VAR] == float(((k - mean) ** 2 + k * (1 - mean) ** 2) / n)
    assert f[ASSORTATIVITY] == -1.0


@st.composite
def preorder_trees(draw):
    """The parent list of a tree of 1-200 nodes labeled in preorder: a
    single node, two nodes, a star, a path, or random, each node hanging
    from a node on the path from the root to the node before it."""
    kind = draw(st.sampled_from(["single", "two", "star", "path", "random", "random"]))
    n = {"single": 1, "two": 2}.get(kind) or draw(st.integers(1, 200))
    if kind == "star":
        return [-1] + [0] * (n - 1)
    if kind == "path":
        return list(range(-1, n - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    parent, path = [-1], [0]
    for v in range(1, n):
        del path[rng.randint(1, len(path)):]
        parent.append(path[-1])
        path.append(v)
    return parent


@settings(max_examples=200, deadline=None)
@given(trees=st.lists(preorder_trees(), min_size=1, max_size=8))
def test_forest_degree_spread_is_exact_and_the_same_as_alone(trees):
    parent, depth = [], []
    for tree in trees:
        parent += [u + len(depth) if u >= 0 else -1 for u in tree]
        depth += depths(tree)
    rows = forest_features(np.array(parent), np.array(depth))
    assert len(rows) == len(trees)
    for row, tree in zip(rows, trees):
        var, assortativity = oracles.exact_degree_spread(tree)
        assert row[VAR] == var
        assert row[ASSORTATIVITY] == assortativity
        assert row.tobytes() == features_of(tree).tobytes()
