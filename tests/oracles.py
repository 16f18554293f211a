"""Independent brute-force reference implementations used to check the
library. Everything here recomputes from first definitions (BFS distance
matrices, triangle counting, closed-form rank correlation) without reusing
any library code paths, except the graph-feature and t-SNE references: they
are the straightforward formulations that the library must match bit for
bit. complexity_metrics is no reference: it reads the library's eight
complexity metrics of one source, for the tests to check."""

from __future__ import annotations

import ast
import io
import math
import random
import tokenize
from collections import Counter, deque
from fractions import Fraction

import numpy as np

from cegraph.ceg import CegTable


def syntax_tree(code):
    """The syntax tree of code by cegraph's parse convention, found by
    recursion: (node type names, parent list, depth list) in depth-first
    preorder, children in ast.iter_child_nodes order, without the
    expression-context markers and type-ignore comments, operator nodes
    kept."""
    names, parent, depth = [], [], []

    def visit(node, up, level):
        node_id = len(names)
        names.append(type(node).__name__)
        parent.append(up)
        depth.append(level)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.expr_context, ast.TypeIgnore)):
                visit(child, node_id, level + 1)

    visit(ast.parse(code), -1, 0)
    return names, parent, depth


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for p, c in edges:
        adj[p].append(c)
        adj[c].append(p)
    return adj


def all_pairs_bfs(n, edges):
    """Distance matrix by running BFS from every node."""
    adj = adjacency(n, edges)
    dist = [[-1] * n for _ in range(n)]
    for s in range(n):
        row = dist[s]
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
    return dist


def distance_stats(n, edges):
    """(diameter, radius, mean eccentricity, mean pairwise distance)."""
    dist = all_pairs_bfs(n, edges)
    if n == 1:
        return 0, 0, 0.0, 0.0
    ecc = [max(row) for row in dist]
    total = sum(dist[i][j] for i in range(n) for j in range(i + 1, n))
    return max(ecc), min(ecc), sum(ecc) / n, total / (n * (n - 1) / 2)


def degrees(n, edges):
    deg = [0] * n
    for p, c in edges:
        deg[p] += 1
        deg[c] += 1
    return deg


def entropy_of_counts(values):
    """Shannon entropy in nats of the value distribution."""
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    total = len(values)
    return -sum((c / total) * math.log(c / total) for c in counts.values())


def local_clustering(n, edges):
    """Per-node triangle-based clustering straight from the definition."""
    neigh = [set() for _ in range(n)]
    for p, c in edges:
        neigh[p].add(c)
        neigh[c].add(p)
    out = []
    for u in range(n):
        k = len(neigh[u])
        if k < 2:
            out.append(0.0)
            continue
        links = 0
        nu = sorted(neigh[u])
        for i in range(len(nu)):
            for j in range(i + 1, len(nu)):
                if nu[j] in neigh[nu[i]]:
                    links += 1
        out.append(2.0 * links / (k * (k - 1)))
    return out


def transitivity(n, edges):
    neigh = [set() for _ in range(n)]
    for p, c in edges:
        neigh[p].add(c)
        neigh[c].add(p)
    # closed wedges: each triangle is counted once per apex, i.e. 3 times
    closed = 0
    for u in range(n):
        for v in neigh[u]:
            for w in neigh[u]:
                if v < w and w in neigh[v]:
                    closed += 1
    triangles = closed / 3
    triples = sum(len(s) * (len(s) - 1) // 2 for s in neigh)
    if triples == 0:
        return 0.0
    return 3.0 * triangles / triples


def assortativity(n, edges):
    """Pearson correlation of endpoint degrees over both edge orientations."""
    deg = degrees(n, edges)
    xs, ys = [], []
    for p, c in edges:
        xs.extend((deg[p], deg[c]))
        ys.extend((deg[c], deg[p]))
    if not xs:
        return 0.0
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    vx = sum((x - mx) ** 2 for x in xs) / len(xs)
    vy = sum((y - my) ** 2 for y in ys) / len(ys)
    if vx <= 0 or vy <= 0:
        return 0.0
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / len(xs)
    return cov / math.sqrt(vx * vy)


def spearman_no_ties(x, y):
    """Closed form 1 - 6*sum(d^2)/(n(n^2-1)); valid only without ties."""
    n = len(x)
    rx = {v: i + 1 for i, v in enumerate(sorted(x))}
    ry = {v: i + 1 for i, v in enumerate(sorted(y))}
    d2 = sum((rx[a] - ry[b]) ** 2 for a, b in zip(x, y))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx == 0 or vy == 0:
        return None  # undefined for a constant side
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return cov / math.sqrt(vx * vy)


def rank_with_ties(values):
    """Average ranks, 1-based; ties get the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_with_ties(x, y):
    """Pearson correlation of average ranks; the general definition."""
    return pearson(rank_with_ties(x), rank_with_ties(y))


def spearman_reference(x, y):
    """Spearman's correlation of one feature with fitness as embed
    computes a cell: pairwise deletion of None, NaN and infinities, None
    below 3 complete pairs, average ranks (rank_with_ties), None for a
    constant rank vector, the difference formula where neither side has a
    tie and Pearson on the ranks otherwise, clamped to [-1, 1]."""
    pairs = [(a, b) for a, b in zip(x, y)
             if a is not None and b is not None and math.isfinite(a) and math.isfinite(b)]
    if len(pairs) < 3:
        return None
    rx = np.array(rank_with_ties([a for a, _ in pairs]))
    ry = np.array(rank_with_ties([b for _, b in pairs]))
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        return None
    n = len(rx)
    if len(set(rx.tolist())) == n and len(set(ry.tolist())) == n:
        d2 = float(((rx - ry) ** 2).sum())
        r = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    else:
        r = float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))
    return max(-1.0, min(1.0, r))


_LAYOUT_NAMES = {"COMMENT", "NL", "NEWLINE", "INDENT", "DEDENT",
                 "ENDMARKER", "ENCODING"}

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def nonlayout_token_count(src):
    toks = tokenize.generate_tokens(io.StringIO(src).readline)
    return sum(1 for t in toks if tokenize.tok_name[t.type] not in _LAYOUT_NAMES)


def _increment(node):
    if isinstance(node, (ast.If, ast.While, ast.For, ast.AsyncFor,
                         ast.IfExp, ast.ExceptHandler)):
        return 1
    if isinstance(node, ast.comprehension):
        return 1 + len(node.ifs)
    if isinstance(node, ast.BoolOp):
        return len(node.values) - 1
    if isinstance(node, ast.Match):
        return max(len(node.cases) - 1, 0)
    return 0


def _decisions_below(node):
    """Recursive decision-point count, stopping at nested function defs."""
    total = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEF_NODES):
            continue
        total += _increment(child) + _decisions_below(child)
    return total


def _unit_tokens(code, unit):
    """Retokenize the unit's own source slice instead of indexing into the
    module token stream; async defs drop the leading keyword."""
    seg = ast.get_source_segment(code, unit)
    if isinstance(unit, ast.AsyncFunctionDef):
        seg = seg.split(None, 1)[1]
    return nonlayout_token_count(seg)


def _params(unit):
    a = unit.args
    return (len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
            + (a.vararg is not None) + (a.kwarg is not None))


def complexity_six(code):
    """The six complexity features recomputed from first definitions."""
    tree = ast.parse(code)
    units = [n for n in ast.walk(tree) if isinstance(n, _DEF_NODES)]
    token_total = nonlayout_token_count(code)
    if units:
        ccs = [1 + _decisions_below(u) for u in units]
        toks = [_unit_tokens(code, u) for u in units]
        params = [_params(u) for u in units]
        return {
            "cc_total": sum(ccs),
            "cc_mean": sum(ccs) / len(units),
            "token_total": token_total,
            "token_mean": sum(toks) / len(units),
            "param_total": sum(params),
            "param_mean": sum(params) / len(units),
        }
    cc = 1 + _decisions_below(tree)
    return {
        "cc_total": cc,
        "cc_mean": float(cc),
        "token_total": token_total,
        "token_mean": float(token_total),
        "param_total": 0,
        "param_mean": 0.0,
    }


def complexity_metrics(counts):
    """The eight complexity metrics of one source, keyed by name, as
    cegraph.codemetrics.complexity_columns computes them from the counts
    that compute_complexity gives for the source."""
    from cegraph.codemetrics import (
        COMPLEXITY_FEATURE_NAMES,
        NESTING_FEATURE_NAMES,
        complexity_columns,
    )

    row = complexity_columns(np.array([counts], dtype=np.int64), np.array([0]))[0]
    return dict(zip(COMPLEXITY_FEATURE_NAMES + NESTING_FEATURE_NAMES, row.tolist()))


# compound statements: each one adds a nesting level for the statements
# inside it (match cases and except handlers sit inside their match/try)
_COMPOUND_STATEMENTS = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If, ast.For,
    ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try, ast.Match,
) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())


def _statement_nesting(node, around, out):
    """Append, for each statement below node, the number of compound
    statements around it; `around` counts those enclosing node's children."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            out.append(around)
        inner = around + 1 if isinstance(child, _COMPOUND_STATEMENTS) else around
        _statement_nesting(child, inner, out)


def nesting_two(code):
    """The two nesting features recomputed by recursion over the tree."""
    levels = []
    _statement_nesting(ast.parse(code), 0, levels)
    if not levels:
        return {"nesting_max": 0, "nesting_mean": 0.0}
    return {"nesting_max": max(levels), "nesting_mean": sum(levels) / len(levels)}


# ------------------------------------------------------- graph features
# The 22 graph features one tree at a time: the bits cegraph.astfeat must
# match. degree_var and assortativity are their definitions in exact
# fractions, rounded once; the entropies add their terms in order of first
# appearance; the rest is astfeat's one-tree formulation from before it
# worked on a block of trees.


def _entropy(counts):
    total = sum(counts)
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            acc -= p * math.log(p)
    return acc


def _subtree_sizes(parent, depth):
    """Node counts of all subtrees, summed up one depth level at a time."""
    size = np.ones(len(parent), dtype=np.int64)
    for d in range(int(depth.max()), 0, -1):
        level = np.flatnonzero(depth == d)
        np.add.at(size, parent[level], size[level])
    return size


def _distances_from(a, parent, depth, size):
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


def _tree_distance_features(parent, depth):
    """(diameter, radius, mean eccentricity, mean pairwise distance): each
    edge above a subtree of size s lies on s * (n - s) paths; ecc(v) is
    max(dist(v, a), dist(v, b)) for the ends a, b of a diameter."""
    n = len(parent)
    size = _subtree_sizes(parent, depth)
    below = size[1:]
    total = int((below * (n - below)).sum())
    avg_shortest_path = total / (n * (n - 1) / 2)
    dist_a = _distances_from(int(depth.argmax()), parent, depth, size)
    dist_b = _distances_from(int(dist_a.argmax()), parent, depth, size)
    ecc = np.maximum(dist_a, dist_b)
    return int(ecc.max()), int(ecc.min()), int(ecc.sum()) / n, avg_shortest_path


def exact_degree_spread(parent):
    """The population variance of the degrees of the tree whose node v has
    parent parent[v] (the root's is -1), and Pearson's r of the endpoint
    degrees over both orientations of its edges, each from its definition
    in exact fractions and rounded once; r is 0.0 where the endpoint
    degrees do not vary."""
    deg = [0] * len(parent)
    edges = [(u, v) for v, u in enumerate(parent) if u >= 0]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    mean = Fraction(sum(deg), len(deg))
    var = sum((d - mean) ** 2 for d in deg) / len(deg)
    xs = [deg[u] for u, v in edges] + [deg[v] for u, v in edges]
    ys = [deg[v] for u, v in edges] + [deg[u] for u, v in edges]
    if not xs:
        return float(var), 0.0
    mx = Fraction(sum(xs), len(xs))
    my = Fraction(sum(ys), len(ys))
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / len(xs)
    vx = sum((x - mx) ** 2 for x in xs) / len(xs)
    vy = sum((y - my) ** 2 for y in ys) / len(ys)
    if vx == 0 or vy == 0:
        return float(var), 0.0
    # ys is xs reordered, so vx == vy and sqrt(vx vy) is vx, exactly
    assert vx == vy
    return float(var), float(cov / vx)


def graph_features_reference(parent, depth):
    """The 22 graph features of the preorder tree (parent, depth), keyed by
    name in astfeat's order."""
    n = len(parent)
    m = n - 1
    src = parent[1:]
    dst = np.arange(1, n)
    deg = np.bincount(src, minlength=n)
    deg[1:] += 1

    degree_var, assortativity = exact_degree_spread(parent.tolist())

    if n == 1:
        distances = (0, 0, 0.0, 0.0)
    else:
        distances = _tree_distance_features(parent, depth)

    values = (
        n, m, m / n,
        float(deg.min()), float(deg.max()), float(deg.mean()), degree_var,
        _entropy(Counter(deg.tolist()).values()), assortativity,
        float(depth.min()), float(depth.max()), int(depth.sum()) / n,
        _entropy(Counter(depth.tolist()).values()),
        0.0, 0.0, 0.0, 0.0, 0.0,
        *distances,
    )
    names = (
        "node_count", "edge_count", "edge_density", "degree_min", "degree_max",
        "degree_mean", "degree_var", "degree_entropy", "assortativity",
        "depth_min", "depth_max", "depth_mean", "depth_entropy",
        "clustering_min", "clustering_max", "clustering_mean", "clustering_var",
        "transitivity", "diameter", "radius", "mean_eccentricity", "avg_shortest_path",
    )
    return dict(zip(names, values))


# ------------------------------------------------------------ exact t-SNE
# The straightforward dense formulation that cegraph.embed must match bit
# for bit: a scalar bandwidth bisection per row, and the KL value and the
# gradient evaluated on whole (n, n) matrices on every iteration. Since
# their bits depend on how a product or a sum is cut, the products and the
# sums are cut the way embed cuts them: into the fixed row blocks of
# embed._row_blocks, each block's rows over the columns from its first row
# on (a copy of the (h, n - r) block, laid out as embed packs it), and the
# gradient's contributions added up into one accumulator in block order.


def _blocks(n):
    from cegraph.embed import _row_blocks

    blocks = _row_blocks(n)
    return [(r, min(blocks.step, n - r)) for r in blocks]


def unpacked(M, n):
    """The symmetric (n, n) matrix stored in embed's packed layout in the
    flat array M: the blocks lie one after another, the block of rows
    r:r+h keeping their columns r:n as one C-contiguous (h, n - r) array."""
    D = np.empty((n, n))
    start = 0
    for r, h in _blocks(n):
        B = M[start:start + h * (n - r)].reshape(h, n - r)
        D[r:r + h, r:] = B
        D[r + h:, r:r + h] = B[:, h:].T
        start += h * (n - r)
    assert start == M.size
    return D


def _block_sum(M, r, h):
    """The block's share of the sum of the symmetric M: its square once and
    the rest of its rows twice, summed as twice its rows less the square."""
    B = np.ascontiguousarray(M[r:r + h, r:])
    return 2.0 * B.sum() - B[:, :h].sum()


def joint_probabilities_reference(X, perplexity):
    n, d = X.shape
    D = np.zeros((n, n))
    for k in range(d):
        D += (X[:, k, None] - X[None, :, k]) ** 2
    target = math.log2(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        di = np.delete(D[i], i)
        beta, betamin, betamax = 1.0, -np.inf, np.inf
        for _ in range(50):
            w = np.exp(-di * beta)
            s = w.sum()
            # the entropy from the normaliser, log2 s + beta sum(w d) /
            # (s ln 2), w d read as 0 where w is 0 (d = inf); s = 0 reads
            # as -inf
            with np.errstate(invalid="ignore"):
                wd = w * di
            wd[w == 0.0] = 0.0
            if s > 0.0:
                h = np.log2(s) + beta * wd.sum() / (s * math.log(2.0))
                pi = w / s
            else:
                h, pi = -np.inf, np.zeros(n - 1)
            if abs(h - target) < 1e-5:
                break
            if h > target:
                betamin = beta
                beta = beta * 2.0 if betamax == np.inf else (beta + betamax) / 2.0
            else:
                betamax = beta
                beta = beta / 2.0 if betamin == -np.inf else (beta + betamin) / 2.0
        P[i] = np.insert(pi, i, 0.0)
    P = (P + P.T) / (2.0 * n)
    return np.maximum(P, 1e-12)


def kl_divergence_and_grad_reference(P, Y):
    """KL(P || Q) and its gradient at Y centred as
    embed.kl_divergence_and_grad centres it."""
    return _kl_and_grad(P, Y - np.add.reduce(Y, axis=0) / len(Y), 1.0)


def _kl_and_grad(P, Y, exaggeration):
    """KL(P || Q) and the gradient for the affinities exaggeration * P at Y
    as given, as tsne takes it."""
    n = len(Y)
    blocks = _blocks(n)
    sq = np.sum(Y * Y, axis=1)
    ones = np.ones_like(sq)
    # 1 + |y_i - y_j|^2 = [sq, 1, y, 1] . [1, sq, -2 y, 1]
    A = np.column_stack([sq, ones, Y, ones])
    B = np.column_stack([ones, sq, -2.0 * Y, ones])
    D = np.empty((n, n))
    for r, h in blocks:
        D[r:r + h, r:] = A[r:r + h] @ B[r:].T
        D[r + h:, r:r + h] = D[r:r + h, r + h:].T
    num = 1.0 / np.maximum(D, 1.0)
    np.fill_diagonal(num, 0.0)
    Z = np.sum([_block_sum(num, r, h) for r, h in blocks])
    Q = np.maximum(num / Z, 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = P * np.log(P / Q)
    terms[P <= 1e-12] = 0.0
    kl = float(np.sum([_block_sum(terms, r, h) for r, h in blocks]))
    # (e P - Q) num with the factor e taken out: e (P - max(num / (e Z),
    # 1e-12 / e)) num, with 1 / (e Z) formed once
    c = 1.0 / (exaggeration * Z)
    PQ = (P - np.maximum(num * c, 1e-12 / exaggeration)) * num
    # row i of PQ @ [Y, 1] is [sum_j PQ_ij y_j, sum_j PQ_ij]; a block adds
    # its rows' part to its rows, and the mirror image of the rest to the
    # later rows
    Y1 = A[:, 2:]
    s = np.zeros((n, 3))
    for r, h in blocks:
        rows = np.ascontiguousarray(PQ[r:r + h, r:])
        s[r:r + h] += rows @ Y1[r:]
        s[r + h:] += rows[:, h:].T @ Y1[r:r + h]
    grad = (4.0 * exaggeration) * (s[:, 2:] * Y - s[:, :2])
    return kl, grad


def tsne_reference(X, perplexity, seed, iterations=1000):
    """2-d coordinates after `iterations` steps of exact t-SNE."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    P = joint_probabilities_reference(X, perplexity)
    rng = random.Random(seed)
    Y = np.array([[rng.gauss(0.0, 1e-4), rng.gauss(0.0, 1e-4)] for _ in range(n)])
    velocity = np.zeros_like(Y)
    gains = np.ones_like(Y)
    lr = 200.0
    for it in range(iterations):
        _, grad = _kl_and_grad(P, Y, 12.0 if it < 250 else 1.0)
        momentum = 0.5 if it < 250 else 0.8
        same = np.sign(grad) == np.sign(velocity)
        gains = np.where(same, gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - lr * (gains * grad)
        Y = Y + velocity
        Y = Y - Y.mean(axis=0)
    return Y


def ceg_document(table):
    """ceg.json's payload for a CegTable, built from its fields run by run:
    the reference that graphs_to_json must write as json.dumps(indent=2)
    writes it. A run's edges are the edges whose child lies in its rows,
    and a node's parent_frequency the edges from it."""
    children = Counter(table.parent.tolist())
    graphs = []
    for r, (run_id, key) in enumerate(zip(table.run_ids, table.group_keys)):
        lo, hi = int(table.run_bounds[r]), int(table.run_bounds[r + 1])
        graphs.append({
            "group_key": list(key),
            "run_id": run_id,
            "feature_names": list(table.feature_names),
            "nodes": [
                {
                    "sample_id": table.ids[i],
                    "evaluation_index": int(table.evaluation_index[i]),
                    "fitness_norm": (None if np.isnan(table.fitness_norm[i])
                                     else float(table.fitness_norm[i])),
                    "parent_frequency": children[i],
                    "features_raw": [float(v) for v in table.features_raw[i]],
                    "features_std": [float(v) for v in table.features_std[i]],
                }
                for i in range(lo, hi)
            ],
            "edges": [[table.ids[p], table.ids[c]]
                      for p, c in zip(table.parent, table.child) if lo <= c < hi],
        })
    return {"graphs": graphs}


def ceg_table(feature_names, runs):
    """A CegTable built by hand from runs, laid out in the order given.
    Each run is (group_key, run_id, nodes, edges): a node is (sample_id,
    evaluation_index, fitness or None, raw row, std row), and an edge a
    (parent, child) pair of the run's node positions, listed in child
    order."""
    nodes = [node for _, _, run_nodes, _ in runs for node in run_nodes]
    starts = np.cumsum([0] + [len(run_nodes) for _, _, run_nodes, _ in runs])
    edges = [(lo + p, lo + c) for lo, (*_, run_edges) in zip(starts.tolist(), runs)
             for p, c in run_edges]
    parent, child = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    k = len(feature_names)
    return CegTable(
        feature_names=tuple(feature_names),
        ids=tuple(node[0] for node in nodes),
        evaluation_index=np.array([node[1] for node in nodes], dtype=np.int64),
        fitness_norm=np.array([math.nan if node[2] is None else node[2] for node in nodes],
                              dtype=float),
        features_raw=np.array([node[3] for node in nodes], dtype=float).reshape(len(nodes), k),
        features_std=np.array([node[4] for node in nodes], dtype=float).reshape(len(nodes), k),
        run_ids=tuple(run_id for _, run_id, _, _ in runs),
        group_keys=tuple(key for key, *_ in runs),
        run_bounds=starts,
        parent=parent,
        child=child,
    )
