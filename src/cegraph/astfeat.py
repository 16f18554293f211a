"""Graph-theoretic feature extraction from syntax-tree graphs.

22 structural features computed on the undirected view of the tree:
counts, degree statistics, depth statistics, clustering terms (a tree has
no triangles, so these are always 0; they keep the 22-column schema), and
distance statistics. Graphs that are not trees are rejected.

Every feature is computed with numpy from two arrays, the parent and the
depth of each node of the tree labeled in depth-first preorder, as
parse_to_graph labels it (PreorderTree; a graph built otherwise is
relabeled by one traversal first), where each subtree is an interval of
ids; there is no breadth-first search. Subtree
sizes, summed one depth level at a time, give the average shortest path.
Eccentricities come from the two ends of a diameter, with dist(a, v) =
depth[a] + depth[v] - 2 depth[lca(a, v)] and the lowest common ancestor
found through subtree intervals. Entropies are natural-log.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

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


@dataclass(frozen=True)
class GraphFeatures:
    node_count: int
    edge_count: int
    edge_density: float
    degree_min: float
    degree_max: float
    degree_mean: float
    degree_var: float
    degree_entropy: float
    assortativity: float
    depth_min: float
    depth_max: float
    depth_mean: float
    depth_entropy: float
    clustering_min: float
    clustering_max: float
    clustering_mean: float
    clustering_var: float
    transitivity: float
    diameter: int
    radius: int
    mean_eccentricity: float
    avg_shortest_path: float
    eig_centrality_max: float | None = None
    eig_centrality_mean: float | None = None

    def as_dict(self) -> dict[str, float]:
        """Feature values keyed by canonical name, in canonical order."""
        out = {name: float(getattr(self, name)) for name in AST_FEATURE_NAMES}
        if self.eig_centrality_max is not None:
            out["eig_centrality_max"] = float(self.eig_centrality_max)
            out["eig_centrality_mean"] = float(self.eig_centrality_mean)
        return out


def _entropy(counts) -> float:
    """Shannon entropy in nats of a value-frequency distribution."""
    total = sum(counts)
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            acc -= p * math.log(p)
    return acc


class PreorderTree(NamedTuple):
    """A rooted tree labeled in depth-first preorder from root 0, as
    arrays: parent[v] is the parent of node v (parent[0] is -1) and
    depth[v] its depth, so the subtree of node v is the id interval
    [v, v + size[v]). parse_to_graph labels its graphs so."""

    parent: np.ndarray
    depth: np.ndarray

    @classmethod
    def of(cls, graph: AstGraph) -> PreorderTree:
        """The tree of a syntax-tree graph. A parsed graph is labeled in
        preorder already; any other tree is relabeled by one traversal from
        its root. Raises ValueError for a graph that is not a tree."""
        n = graph.node_count
        m = graph.edge_count
        if n == 0:
            raise ValueError("graph has no nodes")
        if m != n - 1:
            raise ValueError(f"not a tree: {n} nodes but {m} edges")
        if graph.parsed:
            parent = np.empty(n, dtype=np.int64)
            parent[0] = -1
            parent[1:] = np.fromiter((p for p, _ in graph.edges), np.int64, m)
            return cls(parent, np.fromiter((d for _, _, d in graph.nodes), np.int64, n))
        e = np.fromiter(chain.from_iterable(graph.edges), np.int64, 2 * m).reshape(m, 2)
        return cls(*_relabel_preorder(n, e, graph.root_id))


def _relabel_preorder(n: int, e: np.ndarray, root: int) -> tuple:
    """Parent and depth arrays of the undirected tree `e`, numbered in
    depth-first preorder from `root`."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for p, c in e.tolist():
        adj[p].append(c)
        adj[c].append(p)
    label = [-1] * n
    parent: list[int] = []
    depth: list[int] = []
    stack = [(root, -1, 0)]
    while stack:
        v, p, d = stack.pop()
        if label[v] >= 0:
            raise ValueError("not a tree: the edges close a cycle")
        label[v] = len(parent)
        parent.append(p)
        depth.append(d)
        for w in reversed(adj[v]):
            if label[w] < 0:
                stack.append((w, label[v], d + 1))
    if len(parent) < n:
        raise ValueError("not a tree: the edges do not connect every node")
    return np.array(parent, dtype=np.int64), np.array(depth, dtype=np.int64)


def _subtree_sizes(parent: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Node counts of all subtrees, summed up one depth level at a time."""
    size = np.ones(len(parent), dtype=np.int64)
    for d in range(int(depth.max()), 0, -1):
        level = np.flatnonzero(depth == d)
        np.add.at(size, parent[level], size[level])
    return size


def _distances_from(a: int, parent, depth, size) -> np.ndarray:
    """Tree distance from node a to every node of a preorder-labeled tree:
    depth[a] + depth[v] - 2 * depth[lca(a, v)], where depth[lca(a, v)]
    counts the non-root ancestors u of a (a included) whose subtree
    interval [u, u + size[u]) holds v."""
    ancestors = []
    u = a
    while u > 0:  # the root is node 0
        ancestors.append(u)
        u = int(parent[u])
    path = np.array(ancestors, dtype=np.int64)
    marks = np.zeros(len(parent) + 1, dtype=np.int64)
    marks[path] += 1
    np.subtract.at(marks, path + size[path], 1)
    lca_depth = np.cumsum(marks[:-1])
    return depth[a] + depth - 2 * lca_depth


def _tree_distance_features(parent: np.ndarray, depth: np.ndarray) -> tuple:
    """(diameter, radius, mean eccentricity, mean pairwise distance).

    Each edge above a subtree of size s lies on s * (n - s) paths, which
    gives the mean distance. On a tree ecc(v) = max(dist(v, a), dist(v, b))
    for the ends a, b of a diameter: a is a deepest node, b one farthest
    from a.
    """
    n = len(parent)
    size = _subtree_sizes(parent, depth)
    below = size[1:]
    total = int((below * (n - below)).sum())
    avg_shortest_path = total / (n * (n - 1) / 2)
    dist_a = _distances_from(int(depth.argmax()), parent, depth, size)
    dist_b = _distances_from(int(dist_a.argmax()), parent, depth, size)
    ecc = np.maximum(dist_a, dist_b)
    return int(ecc.max()), int(ecc.min()), int(ecc.sum()) / n, avg_shortest_path


def _eig_centrality(n: int, src: np.ndarray, dst: np.ndarray, tol: float = 1e-10,
                    max_iter: int = 1000):
    """Power iteration on A + I (shifted to kill the bipartite sign flip),
    where A joins src[i] and dst[i]."""
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iter):
        nxt = x.copy()
        np.add.at(nxt, src, x[dst])
        np.add.at(nxt, dst, x[src])
        nxt /= np.linalg.norm(nxt)
        if np.max(np.abs(nxt - x)) < tol:
            x = nxt
            break
        x = nxt
    return float(x.max()), float(x.mean())


def compute_graph_features(
    graph: AstGraph | PreorderTree, include_eigenvector: bool = False
) -> GraphFeatures:
    """Compute the structural feature vector of a syntax-tree graph, given
    as an AstGraph (see PreorderTree.of) or as the arrays of its tree.

    Degenerate cases follow fixed conventions: a single-node graph has all
    degree, depth, clustering and distance statistics equal to 0 and
    edge_density 0; assortativity is 0 whenever endpoint degrees have zero
    variance; entropy of a one-valued distribution is 0. A graph whose edge
    count is not its node count minus one is not a tree and raises
    ValueError.
    """
    tree = graph if isinstance(graph, PreorderTree) else PreorderTree.of(graph)
    parent, depths = tree.parent, tree.depth
    n = len(parent)
    m = n - 1
    # edge i joins node i + 1 to its parent
    src = parent[1:]
    dst = np.arange(1, n)
    deg = np.bincount(src, minlength=n)
    deg[1:] += 1

    edge_density = m / n
    degree_min = float(deg.min())
    degree_max = float(deg.max())
    degree_mean = float(deg.mean())
    degree_var = float(deg.var())
    degree_entropy = _entropy(Counter(deg.tolist()).values())

    if m == 0:
        assortativity = 0.0
    else:
        du = deg[src].astype(float)
        dv = deg[dst].astype(float)
        x = np.concatenate([du, dv])
        y = np.concatenate([dv, du])
        vx = x.var()
        vy = y.var()
        if vx <= 0.0 or vy <= 0.0:
            assortativity = 0.0
        else:
            cov = float(((x - x.mean()) * (y - y.mean())).mean())
            assortativity = max(-1.0, min(1.0, cov / math.sqrt(vx * vy)))

    depth_min = float(depths.min())
    depth_max = float(depths.max())
    depth_mean = int(depths.sum()) / n
    depth_entropy = _entropy(Counter(depths.tolist()).values())

    if n == 1:
        diameter = radius = 0
        mean_eccentricity = 0.0
        avg_shortest_path = 0.0
    else:
        diameter, radius, mean_eccentricity, avg_shortest_path = (
            _tree_distance_features(parent, depths)
        )

    eig_max = eig_mean = None
    if include_eigenvector:
        eig_max, eig_mean = _eig_centrality(n, src, dst)

    return GraphFeatures(
        node_count=n,
        edge_count=m,
        edge_density=edge_density,
        degree_min=degree_min,
        degree_max=degree_max,
        degree_mean=degree_mean,
        degree_var=degree_var,
        degree_entropy=degree_entropy,
        assortativity=assortativity,
        depth_min=depth_min,
        depth_max=depth_max,
        depth_mean=depth_mean,
        depth_entropy=depth_entropy,
        clustering_min=0.0,
        clustering_max=0.0,
        clustering_mean=0.0,
        clustering_var=0.0,
        transitivity=0.0,
        diameter=diameter,
        radius=radius,
        mean_eccentricity=mean_eccentricity,
        avg_shortest_path=avg_shortest_path,
        eig_centrality_max=eig_max,
        eig_centrality_mean=eig_mean,
    )
