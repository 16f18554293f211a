"""Graph-theoretic feature extraction from syntax-tree graphs.

22 structural features computed on the undirected view of the tree:
counts, degree statistics, depth statistics, clustering terms (a tree has
no triangles, so these are always 0; they keep the 22-column schema), and
distance statistics. Graphs that are not trees are rejected.

Distance features use linear-time tree algorithms: average shortest path
via per-edge component sizes, eccentricities via double breadth-first
search from the diameter endpoints. Entropies are natural-log.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

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


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for p, c in edges:
        adj[p].append(c)
        adj[c].append(p)
    return adj


def _bfs_dist(adj: list[list[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def _farthest(dist: list[int]) -> int:
    """Index of a maximum-distance node; smallest index breaks ties."""
    best = 0
    for i, d in enumerate(dist):
        if d > dist[best]:
            best = i
    return best


def _tree_eccentricities(adj: list[list[int]], root: int) -> list[int]:
    """All eccentricities of a tree via the two diameter endpoints.

    On a tree ecc(v) = max(dist(v, a), dist(v, b)) where (a, b) is any
    diameter pair, so three BFS passes suffice.
    """
    a = _farthest(_bfs_dist(adj, root))
    dist_a = _bfs_dist(adj, a)
    b = _farthest(dist_a)
    dist_b = _bfs_dist(adj, b)
    return [max(da, db) for da, db in zip(dist_a, dist_b)]


def _tree_avg_shortest_path(n: int, adj: list[list[int]], root: int) -> float:
    """Mean pairwise distance: each edge contributes s * (n - s) path units,
    where s is the size of the component hanging below it."""
    if n < 2:
        return 0.0
    order: list[int] = []
    parent = [-1] * n
    seen = [False] * n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                queue.append(v)
    size = [1] * n
    for u in reversed(order):
        if parent[u] >= 0:
            size[parent[u]] += size[u]
    total = sum(size[u] * (n - size[u]) for u in order if parent[u] >= 0)
    return total / (n * (n - 1) / 2)


def _eig_centrality(n: int, edges, tol: float = 1e-10, max_iter: int = 1000):
    """Power iteration on A + I (shifted to kill the bipartite sign flip)."""
    x = np.full(n, 1.0 / math.sqrt(n))
    if edges:
        e = np.asarray(edges, dtype=np.int64)
        src, dst = e[:, 0], e[:, 1]
    else:
        src = dst = None
    for _ in range(max_iter):
        nxt = x.copy()
        if src is not None:
            np.add.at(nxt, src, x[dst])
            np.add.at(nxt, dst, x[src])
        nxt /= np.linalg.norm(nxt)
        if np.max(np.abs(nxt - x)) < tol:
            x = nxt
            break
        x = nxt
    return float(x.max()), float(x.mean())


def compute_graph_features(
    graph: AstGraph, include_eigenvector: bool = False
) -> GraphFeatures:
    """Compute the structural feature vector of a syntax-tree graph.

    Degenerate cases follow fixed conventions: a single-node graph has all
    degree, depth, clustering and distance statistics equal to 0 and
    edge_density 0; assortativity is 0 whenever endpoint degrees have zero
    variance; entropy of a one-valued distribution is 0. A graph whose edge
    count is not its node count minus one is not a tree and raises
    ValueError.
    """
    n = graph.node_count
    edges = graph.edges
    m = len(edges)
    if n == 0:
        raise ValueError("graph has no nodes")
    if m != n - 1:
        raise ValueError(f"not a tree: {n} nodes but {m} edges")

    deg = np.zeros(n, dtype=np.int64)
    if m:
        e = np.asarray(edges, dtype=np.int64)
        flat = np.concatenate([e[:, 0], e[:, 1]])
        deg = np.bincount(flat, minlength=n)

    edge_density = m / n
    degree_min = float(deg.min())
    degree_max = float(deg.max())
    degree_mean = float(deg.mean())
    degree_var = float(deg.var())
    degree_entropy = _entropy(Counter(deg.tolist()).values())

    if m == 0:
        assortativity = 0.0
    else:
        du = deg[e[:, 0]].astype(float)
        dv = deg[e[:, 1]].astype(float)
        x = np.concatenate([du, dv])
        y = np.concatenate([dv, du])
        vx = x.var()
        vy = y.var()
        if vx <= 0.0 or vy <= 0.0:
            assortativity = 0.0
        else:
            cov = float(((x - x.mean()) * (y - y.mean())).mean())
            assortativity = max(-1.0, min(1.0, cov / math.sqrt(vx * vy)))

    depths = graph.depths()
    depth_min = float(min(depths))
    depth_max = float(max(depths))
    depth_mean = sum(depths) / n
    depth_entropy = _entropy(Counter(depths).values())

    adj = _adjacency(n, edges)
    if n == 1:
        diameter = radius = 0
        mean_eccentricity = 0.0
        avg_shortest_path = 0.0
    else:
        ecc = _tree_eccentricities(adj, graph.root_id)
        diameter = max(ecc)
        radius = min(ecc)
        mean_eccentricity = sum(ecc) / n
        avg_shortest_path = _tree_avg_shortest_path(n, adj, graph.root_id)

    eig_max = eig_mean = None
    if include_eigenvector:
        eig_max, eig_mean = _eig_centrality(n, edges)

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
