"""Graph-theoretic feature extraction from syntax trees.

22 structural features computed on the undirected view of the tree:
counts, degree statistics, depth statistics, clustering terms (a tree has
no triangles, so these are always 0; they keep the 22-column schema), and
distance statistics.

forest_features computes them for a forest at once, in a few numpy
passes over its arrays, with no loop over depth levels or ancestors: the
parent and the depth of each node of trees labeled in depth-first
preorder, one tree after another, as parse_to_graph labels them.
compute_graph_features is forest_features on the one tree of an AstGraph,
which parse_to_graph labeled so. In preorder each subtree is an interval
of ids, [v, end[v]), whose end follows the last-child links, taken by
doubling. Subtree sizes give the average shortest path. Eccentricities
come from the two ends of a diameter, with
dist(a, v) = depth[a] + depth[v] - 2 depth[lca(a, v)], the depth of the
lowest common ancestor counted through subtree intervals by one cumsum
over the forest. Entropies are natural-log.

A tree's row has the same bits in any forest, alone or not. Every feature
but the two entropies is an exact integer or one correctly rounded
quotient of exact integer sums, which no summation order changes. The
entropies add their terms in order of the values' first appearance in the
tree; for depths that order is ascending.
"""

from __future__ import annotations

import math

import numpy as np

from .pyast import AstGraph

AST_FEATURE_NAMES = (
    "node_count",
    "edge_count",
    "edge_density",
    "degree_min",
    "degree_max",
    "degree_mean",
    "degree_var",
    "degree_entropy",
    "assortativity",
    "depth_min",
    "depth_max",
    "depth_mean",
    "depth_entropy",
    "clustering_min",
    "clustering_max",
    "clustering_mean",
    "clustering_var",
    "transitivity",
    "diameter",
    "radius",
    "mean_eccentricity",
    "avg_shortest_path",
)

EIG_FEATURE_NAMES = ("eig_centrality_max", "eig_centrality_mean")


def _entropy(counts) -> float:
    """Shannon entropy in nats of a value-frequency distribution."""
    total = sum(counts)
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            acc -= p * math.log(p)
    return acc


def _subtree_ends(child: np.ndarray, up: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """end[v] for each node v of a preorder forest with edges child -> up,
    so that v's subtree is the id interval [v, end[v]): one past v's last
    descendant, which is v for a leaf and its last child's last descendant
    otherwise. The last-child links are followed by doubling, so a depth D
    takes D.bit_length() steps."""
    last = np.arange(len(depth))
    np.maximum.at(last, up, child)
    for _ in range(int(depth.max()).bit_length()):
        last = last[last]
    return last + 1


def _first_max(values: np.ndarray, tree: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The first node of each tree where values is largest (argmax)."""
    at = np.flatnonzero(values == np.maximum.reduceat(values, starts)[tree])
    return at[np.searchsorted(at, starts)]


def _distances_from(a: np.ndarray, tree, depth, end) -> np.ndarray:
    """Tree distance of every node from node a[t] of its tree t:
    depth[a] + depth[v] - 2 depth[lca(a, v)], where depth[lca(a, v)] counts
    the non-root ancestors u of a (a included), those whose interval
    [u, end[u]) holds a, that also hold v. Each tree's marks sum to 0, so
    one cumsum over the forest counts them."""
    N = len(depth)
    a = a[tree]
    ids = np.arange(N)
    path = np.flatnonzero((ids <= a) & (end > a) & (depth > 0))
    marks = np.bincount(path, minlength=N + 1) - np.bincount(end[path], minlength=N + 1)
    return depth[a] + depth - 2 * np.cumsum(marks[:N])


def _eig_centrality(n: int, src: np.ndarray, dst: np.ndarray):
    """Power iteration on A + I (shifted to kill the bipartite sign flip),
    where A joins src[i] and dst[i]."""
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(1000):
        nxt = x.copy()
        np.add.at(nxt, src, x[dst])
        np.add.at(nxt, dst, x[src])
        nxt /= np.linalg.norm(nxt)
        if np.max(np.abs(nxt - x)) < 1e-10:
            x = nxt
            break
        x = nxt
    return float(x.max()), float(x.mean())


def _tree_sums(values: np.ndarray, starts: np.ndarray) -> list[int]:
    """The sum of values over each run [starts[t], starts[t + 1]) of their
    ids, the last run ending at the end of values; 0 for an empty run."""
    total = np.append(0, np.cumsum(values))
    return np.diff(total[np.append(starts, len(values))]).tolist()


def _degree_spread(deg, child, up, starts) -> tuple[list[float], list[float]]:
    """Each tree's degree_var and assortativity, each one quotient of exact
    integer sums, rounded once. With S2 = sum deg^2, S3 = sum deg^3 and
    P = sum over the edges of deg_u deg_v, a tree of n nodes and m = n - 1
    edges has degree_var (n S2 - 4 m^2) / n^2 and assortativity, Pearson's
    r of endpoint degrees over both edge orientations in Newman's closed
    form, (4 m P - S2^2) / (2 m S3 - S2^2), or 0 where the denominator is 0
    (in a tree, n <= 2). The int64 sums are exact for trees under about 1.6
    million nodes, since S3 <= 2 (n - 1)^3 < 2^63; the quotients are of
    Python ints, correctly rounded at any size."""
    n = np.diff(starts, append=len(deg)).tolist()
    square = deg * deg
    s2 = _tree_sums(square, starts)
    s3 = _tree_sums(square * deg, starts)
    # tree t's edges, t roots before it, start at starts[t] - t
    p = _tree_sums(deg[child] * deg[up], starts - np.arange(len(starts)))
    var, assortativity = [], []
    for k, sq, cube, pair in zip(n, s2, s3, p):
        m = k - 1
        var.append((k * sq - 4 * m * m) / (k * k))
        spread = 2 * m * cube - sq * sq
        assortativity.append((4 * m * pair - sq * sq) / spread if spread else 0.0)
    return var, assortativity


def _entropies(values: np.ndarray, tree, starts) -> list[float]:
    """Each tree's _entropy of its value counts, taken in order of the
    values' first appearance."""
    N = len(values)
    offset = np.append(0, np.cumsum(np.maximum.reduceat(values, starts) + 1))
    key = offset[tree] + values  # the place of (tree, value)
    ids = np.arange(N)
    first = np.full(offset[-1], N)
    np.minimum.at(first, key, ids)
    new = first[key] == ids
    counts = np.bincount(key)[key[new]].tolist()
    bounds = np.searchsorted(tree[new], np.arange(len(starts) + 1)).tolist()
    return [_entropy(counts[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _distance_columns(child, up, depth, tree, starts) -> np.ndarray:
    """Each tree's diameter, radius, mean eccentricity and mean distance
    between two nodes, as columns."""
    N = len(depth)
    n = np.diff(starts, append=N)
    end = _subtree_ends(child, up, depth)
    size = end - np.arange(N)
    # each edge above a subtree of size s lies on s * (n - s) paths
    paths = np.add.reduceat(size * (n[tree] - size), starts)
    dist_a = _distances_from(_first_max(depth, tree, starts), tree, depth, end)
    dist_b = _distances_from(_first_max(dist_a, tree, starts), tree, depth, end)
    ecc = np.maximum(dist_a, dist_b)
    out = np.zeros((len(starts), 4))
    out[:, 0] = np.maximum.reduceat(ecc, starts)
    out[:, 1] = np.minimum.reduceat(ecc, starts)
    out[:, 2] = np.add.reduceat(ecc, starts) / n
    out[:, 3] = paths / np.maximum(n * (n - 1) / 2, 1)  # paths is 0 where n is 1
    return out


def forest_features(parent: np.ndarray, depth: np.ndarray,
                    include_eigenvector: bool = False) -> np.ndarray:
    """The features of each tree of a forest, one row per tree with the
    AST_FEATURE_NAMES columns, then the EIG_FEATURE_NAMES ones if
    include_eigenvector. parent[v] is the parent of node v and depth[v] its
    depth, for trees labeled in depth-first preorder one after another,
    with ids counted over the whole forest: each tree starts at its root,
    the one node at depth 0 (parent -1), and the subtree of each node v is
    an interval of ids from v on.

    Degenerate cases follow fixed conventions: a single-node tree has all
    degree, depth, clustering and distance statistics equal to 0 and
    edge_density 0; assortativity is 0 whenever endpoint degrees have zero
    variance; entropy of a one-valued distribution is 0.
    """
    N = len(depth)
    root = depth == 0
    starts = np.flatnonzero(root)
    tree = np.cumsum(root) - 1
    n = np.diff(starts, append=N)
    m = n - 1
    # edge j joins node child[j] to its parent up[j]
    child = np.flatnonzero(~root)
    up = parent[child]
    deg = np.bincount(up, minlength=N)
    deg[child] += 1
    degree_var, assortativity = _degree_spread(deg, child, up, starts)

    out = np.zeros((len(starts), len(AST_FEATURE_NAMES) + 2 * include_eigenvector))
    out[:, 0] = n
    out[:, 1] = m
    out[:, 2] = m / n
    out[:, 3] = np.minimum.reduceat(deg, starts)
    out[:, 4] = np.maximum.reduceat(deg, starts)
    out[:, 5] = 2 * m / n
    out[:, 6] = degree_var
    out[:, 7] = _entropies(deg, tree, starts)
    out[:, 8] = assortativity
    out[:, 9] = np.minimum.reduceat(depth, starts)
    out[:, 10] = np.maximum.reduceat(depth, starts)
    out[:, 11] = np.add.reduceat(depth, starts) / n
    out[:, 12] = _entropies(depth, tree, starts)
    # columns 13-17, clustering and transitivity, stay 0 in a tree
    out[:, 18:22] = _distance_columns(child, up, depth, tree, starts)
    if include_eigenvector:
        for t, (lo, k) in enumerate(zip(starts.tolist(), n.tolist())):
            out[t, 22:] = _eig_centrality(k, parent[lo + 1:lo + k] - lo, np.arange(1, k))
    return out


def compute_graph_features(graph: AstGraph, include_eigenvector: bool = False) -> dict[str, float]:
    """The structural features of the syntax tree parse_to_graph built,
    keyed by canonical name in canonical order: the row forest_features
    gives that tree."""
    parent, depth = np.array(graph.parent), np.array(graph.depth)
    row = forest_features(parent, depth, include_eigenvector)[0].tolist()
    return dict(zip(AST_FEATURE_NAMES + EIG_FEATURE_NAMES, row))
