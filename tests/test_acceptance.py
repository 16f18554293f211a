"""Acceptance gate: eight checks, each printing one verdict line.

Run with plain pytest; the verdict lines bypass output capture so they
always appear in the terminal.
"""

import csv
import json
import math
import random
import re
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import oracles
from synth import random_module
from cegraph.astfeat import compute_graph_features
from cegraph.cli import main
from cegraph.embed import (
    _Work,
    _joint_probabilities,
    kl_divergence_and_grad,
    pca,
    spearman,
    tsne,
)
from cegraph.features import ALL_FEATURE_NAMES, featurize
from cegraph.pyast import parse_to_graph

BUNDLED_LOG = Path(__file__).resolve().parent.parent / "data" / "synthetic_run.jsonl"

INTEGER_FEATURES = {
    "node_count", "edge_count", "degree_min", "degree_max",
    "depth_min", "depth_max", "diameter", "radius",
    "cc_total", "token_total", "param_total",
}

# four worked examples first, then a spread of realistic shapes
SNIPPETS = [
    "x = 1\n",
    "def f(): pass\n",
    "x = 1 + 2\n",
    "",
    "def ident(x):\n    return x\n",
    (
        "def clamp(v, lo, hi):\n"
        "    if v < lo:\n"
        "        return lo\n"
        "    elif v > hi:\n"
        "        return hi\n"
        "    else:\n"
        "        return v\n"
    ),
    (
        "def read_all(stream):\n"
        "    chunks = []\n"
        "    while (chunk := stream.read(512)):\n"
        "        if not chunk.strip():\n"
        "            break\n"
        "        chunks.append(chunk)\n"
        "    return b''.join(chunks)\n"
    ),
    (
        "def find(items, key):\n"
        "    for i, item in enumerate(items):\n"
        "        if item == key:\n"
        "            return i\n"
        "        continue\n"
        "    else:\n"
        "        return -1\n"
    ),
    (
        "def load(path):\n"
        "    try:\n"
        "        with open(path) as fh:\n"
        "            return fh.read()\n"
        "    except FileNotFoundError:\n"
        "        return ''\n"
        "    except OSError as exc:\n"
        "        raise RuntimeError(path) from exc\n"
        "    finally:\n"
        "        print('done')\n"
    ),
    (
        "import asyncio\n"
        "async def drain(queue):\n"
        "    out = []\n"
        "    async for item in queue:\n"
        "        out.append(await item)\n"
        "    return out\n"
    ),
    (
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def bump(self, by=1):\n"
        "        self.n += by\n"
        "        return self.n\n"
    ),
    (
        "def sieve(limit):\n"
        "    flags = [x % 2 for x in range(limit) if x > 1]\n"
        "    pairs = {a: b for a, b in zip(flags, flags[1:]) if a != b}\n"
        "    uniq = {c for c in flags if c}\n"
        "    return flags, pairs, uniq\n"
    ),
    (
        "def accept(a, b, c, d):\n"
        "    return a and b or (c and not d) or (a and c and d)\n"
    ),
    (
        "square = lambda v: v * v\n"
        "cubes = list(map(lambda v: v ** 3, range(10)))\n"
        "odds = list(filter(lambda v: v % 2, cubes))\n"
    ),
    (
        "def kind(value):\n"
        "    match value:\n"
        "        case 0:\n"
        "            return 'zero'\n"
        "        case [x, *rest] if x > 0:\n"
        "            return 'list'\n"
        "        case {'k': v}:\n"
        "            return 'map'\n"
        "        case _:\n"
        "            return 'other'\n"
    ),
    (
        "def make_adder(step):\n"
        "    total = 0\n"
        "    def add(v):\n"
        "        nonlocal total\n"
        "        total += v + step\n"
        "        return total\n"
        "    return add\n"
    ),
    (
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def combine(a, b=2, *rest, scale=1.0, **extra):\n"
        "    return (a + b + sum(rest)) * scale\n"
    ),
    (
        "name = 'world'\n"
        "greeting = f'hello {name!r}, {1 + 2:03d}'\n"
        "width = f'{len(name):>{2 + 3}}'\n"
    ),
    (
        "import os\n"
        "import sys as system\n"
        "from math import sqrt\n"
        "cache = {}\n"
        "def reset():\n"
        "    global cache\n"
        "    del cache['stale']\n"
        "    cache = {'root': sqrt(2)}\n"
    ),
    (
        "def walk(tree):\n"
        "    yield tree\n"
        "    for child in tree.children:\n"
        "        yield from walk(child)\n"
    ),
    (
        "def swap(buf):\n"
        "    with open('a') as fa, open('b') as fb:\n"
        "        buf[0:2], buf[-1] = fb.read(2), fa.read(1)\n"
        "    return buf[::2]\n"
    ),
    (
        "def grade(score):\n"
        "    band = 'high' if score > 80 else 'mid' if score > 50 else 'low'\n"
        "    passed = 0 <= score <= 100 and band != 'low'\n"
        "    return band, passed\n"
    ),
    (
        "a = 1\n"
        "b = a + 2 * 3 - 4 / 5 // 6 % 7\n"
        "c = (a << 2) | (b ^ 3) & ~a\n"
        "d = -b + (+a) ** 2\n"
    ),
]


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def oracle_features(code):
    """All 28 features recomputed with the brute-force reference stack."""
    g = parse_to_graph(code)
    n = g.node_count
    edges = [(p, v) for v, p in enumerate(g.parent) if v]
    m = len(edges)
    deg = oracles.degrees(n, edges)
    mean_deg = sum(deg) / n
    var_deg = sum((d - mean_deg) ** 2 for d in deg) / n
    depths = oracles.all_pairs_bfs(n, edges)[0]
    diameter, radius, mean_ecc, avg_sp = oracles.distance_stats(n, edges)
    clus = oracles.local_clustering(n, edges)
    mean_c = sum(clus) / n
    var_c = sum((c - mean_c) ** 2 for c in clus) / n
    out = {
        "node_count": n,
        "edge_count": m,
        "edge_density": m / n,
        "degree_min": min(deg),
        "degree_max": max(deg),
        "degree_mean": mean_deg,
        "degree_var": var_deg,
        "degree_entropy": oracles.entropy_of_counts(deg),
        "assortativity": oracles.assortativity(n, edges),
        "depth_min": min(depths),
        "depth_max": max(depths),
        "depth_mean": sum(depths) / n,
        "depth_entropy": oracles.entropy_of_counts(depths),
        "clustering_min": min(clus),
        "clustering_max": max(clus),
        "clustering_mean": mean_c,
        "clustering_var": var_c,
        "transitivity": oracles.transitivity(n, edges),
        "diameter": diameter,
        "radius": radius,
        "mean_eccentricity": mean_ecc,
        "avg_shortest_path": avg_sp,
    }
    out.update(oracles.complexity_six(code))
    return out


def test_criterion_1_feature_oracle_suite(capsys):
    start = time.perf_counter()
    mismatches = []
    for idx, code in enumerate(SNIPPETS):
        got = featurize(code)
        want = oracle_features(code)
        for name in ALL_FEATURE_NAMES:
            g, w = got[name], want[name]
            if name in INTEGER_FEATURES:
                bad = g != w
            else:
                bad = abs(g - w) > 1e-9
            if bad:
                mismatches.append((idx, name, g, w))
    elapsed = time.perf_counter() - start
    ok = not mismatches and len(SNIPPETS) >= 20 and elapsed < 5.0
    verdict(
        capsys, 1,
        ok,
        f"{len(SNIPPETS)} snippets x 28 features vs brute-force oracles, "
        f"{len(mismatches)} mismatches, {elapsed:.2f}s",
    )
    assert len(SNIPPETS) >= 20
    assert mismatches == [], mismatches[:8]
    assert elapsed < 5.0


def test_criterion_2_tree_invariants(capsys):
    start = time.perf_counter()
    failures = []
    for seed in range(1000):
        src = random_module(random.Random(seed))
        f = compute_graph_features(parse_to_graph(src))
        n = f["node_count"]
        checks = [
            f["edge_count"] == n - 1,
            f["clustering_min"] == 0.0 and f["clustering_max"] == 0.0,
            f["clustering_mean"] == 0.0 and f["clustering_var"] == 0.0,
            f["transitivity"] == 0.0,
            f["radius"] <= f["diameter"] <= 2 * f["radius"],
            -1e-12 <= f["degree_entropy"] <= math.log(n) + 1e-12,
            -1e-12 <= f["depth_entropy"] <= math.log(n) + 1e-12,
        ]
        if not all(checks):
            failures.append((seed, checks))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    verdict(
        capsys, 2,
        ok,
        f"1000 fuzzed modules, {len(failures)} violations, {elapsed:.1f}s",
    )
    assert failures == [], failures[:5]
    assert elapsed < 60.0


def test_criterion_3_pca(capsys):
    line = np.array([[t, 2.0 * t, 3.0 * t] for t in range(1, 11)])
    rank1 = abs(float(pca(line, 1).explained_variance_ratio[0]) - 1.0)

    rng = np.random.default_rng(123)
    X = rng.normal(size=(25, 7)) * 2.0 + 0.5
    full = pca(X, 7)
    recon = float(np.abs(full.projected @ full.components + full.mean - X).max())
    ortho = float(np.abs(full.components @ full.components.T - np.eye(7)).max())
    total = abs(float(full.explained_variance_ratio.sum()) - 1.0)

    ok = rank1 <= 1e-9 and recon <= 1e-6 and ortho <= 1e-9 and total <= 1e-9
    verdict(
        capsys, 3,
        ok,
        f"rank-1 err {rank1:.1e}, reconstruction {recon:.1e}, "
        f"orthonormality {ortho:.1e}, ratio sum err {total:.1e}",
    )
    assert rank1 <= 1e-9
    assert recon <= 1e-6
    assert ortho <= 1e-9
    assert total <= 1e-9


def test_criterion_4_tsne(capsys):
    rng = np.random.default_rng(17)
    Xg = rng.normal(size=(6, 3))
    work = _Work(6)
    _joint_probabilities(Xg, 1.5, work)
    P = oracles.unpacked(work.P, 6)
    Y = rng.normal(size=(6, 2))
    _, grad = kl_divergence_and_grad(P, Y)
    h = 1e-5
    num = np.zeros_like(Y)
    for i in range(6):
        for j in range(2):
            Yp, Ym = Y.copy(), Y.copy()
            Yp[i, j] += h
            Ym[i, j] -= h
            num[i, j] = (
                kl_divergence_and_grad(P, Yp)[0]
                - kl_divergence_and_grad(P, Ym)[0]
            ) / (2.0 * h)
    rel = float(
        (np.abs(num - grad) / np.maximum(np.abs(grad), 1e-8)).max()
    )

    data_rng = np.random.default_rng(5)
    a = data_rng.normal(0.0, 1.0, size=(10, 5))
    b = data_rng.normal(0.0, 1.0, size=(10, 5))
    b[:, 0] += 100.0
    X = np.vstack([a, b])
    coords = tsne(X, perplexity=5.0, seed=0).coords
    intra = max(
        float(np.linalg.norm(blk[:, None] - blk[None, :], axis=-1).max())
        for blk in (coords[:10], coords[10:])
    )
    inter = float(
        np.linalg.norm(coords[:10][:, None] - coords[10:][None, :], axis=-1).min()
    )
    separated = inter > intra

    again = tsne(X, perplexity=5.0, seed=0).coords
    bitwise = coords.tobytes() == again.tobytes()

    ok = rel < 1e-4 and separated and bitwise
    verdict(
        capsys, 4,
        ok,
        f"gradient rel err {rel:.1e}, separation "
        f"{'yes' if separated else 'NO'} (inter {inter:.0f} vs intra {intra:.0f}), "
        f"determinism {'bitwise' if bitwise else 'BROKEN'}",
    )
    assert rel < 1e-4
    assert separated
    assert bitwise


def test_criterion_5_spearman(capsys):
    rng = random.Random(314)
    exact = 0
    for _ in range(100):
        n = rng.randint(3, 40)
        x = list(range(n))
        y = list(range(n))
        rng.shuffle(x)
        rng.shuffle(y)
        if spearman(x, y) == oracles.spearman_no_ties(x, y):
            exact += 1

    x = [rng.uniform(-4, 4) for _ in range(30)]
    y = [rng.uniform(-4, 4) for _ in range(30)]
    base = spearman(x, y)
    invariant = 0
    for _ in range(10):
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(-2.0, 2.0)
        forms = [
            lambda v: a * v + b,
            lambda v: a * v**3 + b,
            lambda v: math.exp(a * v / 4.0),
            lambda v: a * math.atan(v) + b,
            lambda v: a * v + math.tanh(v),
        ]
        g = forms[rng.randrange(len(forms))]
        h = forms[rng.randrange(len(forms))]
        if spearman([g(v) for v in x], [h(v) for v in y]) == base:
            invariant += 1

    ok = exact == 100 and invariant == 10
    verdict(
        capsys, 5,
        ok,
        f"{exact}/100 permutations match the closed form exactly, "
        f"{invariant}/10 strictly-increasing transforms leave rho unchanged",
    )
    assert exact == 100
    assert invariant == 10


def svg_class_count(svg_path, cls):
    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    return sum(1 for el in root.iter() if el.get("class") == cls)


def test_criterion_6_end_to_end_pipeline(capsys, tmp_path):
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(["pipeline", "--input", str(BUNDLED_LOG), "--out", str(out)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0

    payload = json.loads((out / "ceg.json").read_text(encoding="utf-8"))
    counts = {
        g["run_id"]: (len(g["nodes"]), len(g["edges"]))
        for g in payload["graphs"]
    }
    expected = {"chain-01": (12, 11), "pop-01": (44, 40), "rs-01": (10, 0)}
    counts_ok = counts == expected

    nodes = svg_class_count(out / "ceg_pc1.svg", "node")
    edges = svg_class_count(out / "ceg_pc1.svg", "edge")
    svg_ok = nodes == 66 and edges == 51

    svg_text = (out / "ceg_pc1.svg").read_text(encoding="utf-8")
    m = re.search(r"PC1 \((\d+\.\d\d)\)", svg_text)
    frac = float(m.group(1)) if m else -1.0
    annot_ok = m is not None and 0.0 < frac <= 1.0

    with open(out / "features.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    csv_ok = tuple(header[8:]) == ALL_FEATURE_NAMES and len(header[8:]) == 28

    with open(out / "correlations.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    tok_col = rows[0].index("token_total")
    rs_row = next(r for r in rows[1:] if "random-search" in r[0])
    anti_ok = float(rs_row[tok_col]) == -1.0

    heat = ET.fromstring((out / "heatmap.svg").read_text(encoding="utf-8"))
    labels = [
        el.text for el in heat.iter() if el.get("class") == "cell-label"
    ]
    heat_ok = "-1.00" in labels

    ok = (
        counts_ok and svg_ok and annot_ok and csv_ok and anti_ok
        and heat_ok and elapsed < 30.0
    )
    verdict(
        capsys, 6,
        ok,
        f"per-run (nodes, edges) {counts}, figure 66 glyphs/51 edges "
        f"{'ok' if svg_ok else 'BAD'}, PC1 fraction {frac}, 28 feature "
        f"columns {'ok' if csv_ok else 'BAD'}, anti-monotone cell -1.00 "
        f"{'ok' if anti_ok and heat_ok else 'BAD'}, {elapsed:.1f}s",
    )
    assert counts_ok, counts
    assert svg_ok, (nodes, edges)
    assert annot_ok, svg_text[:200]
    assert csv_ok, header
    assert anti_ok, rs_row
    assert heat_ok
    assert elapsed < 30.0


def test_criterion_7_pipeline_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--input", str(BUNDLED_LOG), "--out", str(out1)]) == 0
    assert main(["pipeline", "--input", str(BUNDLED_LOG), "--out", str(out2)]) == 0
    capsys.readouterr()
    names = (
        "features.csv", "ceg.json", "ceg_pc1.svg",
        "tsne.svg", "correlations.csv", "heatmap.svg",
    )
    differing = [
        n for n in names if (out1 / n).read_bytes() != (out2 / n).read_bytes()
    ]
    ok = not differing
    verdict(
        capsys, 7,
        ok,
        f"two pipeline runs, {len(names)} artifacts compared, "
        + ("all byte-identical" if ok else f"differ: {differing}"),
    )
    assert differing == []


def test_criterion_8_featurization_scale(capsys):
    codes = [
        random_module(random.Random(9000 + i), approx_lines=200)
        for i in range(1000)
    ]
    mean_lines = sum(len(c.splitlines()) for c in codes) / len(codes)
    start = time.perf_counter()
    for code in codes:
        featurize(code)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and 150 <= mean_lines <= 300
    verdict(
        capsys, 8,
        ok,
        f"1000 files, mean {mean_lines:.0f} lines, featurized in {elapsed:.1f}s",
    )
    assert 150 <= mean_lines <= 300
    assert elapsed < 60.0
