"""Output checks for the benchmark, written without importing cegraph.

`expected_from_log` derives what a correct `cegraph pipeline` run must
produce from the run log alone. `check_artifacts` compares one output
directory with it. `knn_recall` scores how well the t-SNE map keeps the
feature-space neighbourhoods.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ARTIFACTS = (
    "features.csv",
    "ceg.json",
    "ceg_pc1.svg",
    "tsne.svg",
    "correlations.csv",
    "heatmap.svg",
)

# the paper's 28-column schema: 22 syntax-tree graph features, 6 complexity features
CANONICAL_FEATURES = (
    "node_count", "edge_count", "edge_density",
    "degree_min", "degree_max", "degree_mean", "degree_var", "degree_entropy", "assortativity",
    "depth_min", "depth_max", "depth_mean", "depth_entropy",
    "clustering_min", "clustering_max", "clustering_mean", "clustering_var", "transitivity",
    "diameter", "radius", "mean_eccentricity", "avg_shortest_path",
    "cc_total", "cc_mean", "token_total", "token_mean", "param_total", "param_mean",
)

KNN_K = 10


@dataclass(frozen=True)
class Expected:
    samples: int
    failed: tuple[str, ...]  # ids whose code does not parse
    dropped_refs: int  # parent references a lenient policy removes
    nodes: int
    edges: int
    groups: int  # (benchmark, method, llm) groups among featurized samples
    legend: int  # (method, llm) pairs plus runs, drawn after the points in tsne.svg
    input_bytes: int  # the log plus every code file it names


def expected_from_log(log_path) -> Expected:
    log_path = Path(log_path)
    recs = []
    input_bytes = log_path.stat().st_size
    for line in log_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if "code" not in rec:
            path = log_path.parent / rec["code_path"]
            input_bytes += path.stat().st_size
            rec["code"] = path.read_text(encoding="utf-8")
        recs.append(rec)
    by_id = {r["id"]: r for r in recs}

    failed = []
    for r in recs:
        try:
            ast.parse(r["code"])
        except (SyntaxError, ValueError):
            failed.append(r["id"])
    ok = [r for r in recs if r["id"] not in set(failed)]
    ok_ids = {r["id"] for r in ok}

    dropped = edges = 0
    for r in recs:
        for pid in r.get("parent_ids", []):
            parent = by_id.get(pid)
            valid = (
                parent is not None
                and parent["run_id"] == r["run_id"]
                and parent["evaluation_index"] < r["evaluation_index"]
            )
            if not valid:
                dropped += 1
            elif r["id"] in ok_ids and pid in ok_ids:
                edges += 1

    def key(r, *fields):
        return tuple(r.get(f, "") for f in fields)

    return Expected(
        samples=len(recs),
        failed=tuple(failed),
        dropped_refs=dropped,
        nodes=len(ok),
        edges=edges,
        groups=len({key(r, "benchmark", "method", "llm") for r in ok}),
        legend=len({key(r, "method", "llm") for r in ok}) + len({r["run_id"] for r in ok}),
        input_bytes=input_bytes,
    )


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


_POINT = re.compile(r"<(circle|rect|polygon) class=\"point\" ([^>]*)/>")
_ATTR = re.compile(r'([a-z]+)="([^"]*)"')


def point_centres(svg: str) -> np.ndarray:
    """Centres of every class="point" marker, in document order."""
    out = []
    for shape, attrs in _POINT.findall(svg):
        a = dict(_ATTR.findall(attrs))
        if shape == "circle":
            out.append((float(a["cx"]), float(a["cy"])))
        elif shape == "rect":
            out.append((float(a["x"]) + float(a["width"]) / 2, float(a["y"]) + float(a["height"]) / 2))
        else:  # the polygon markers are symmetric about their centre's vertex mean
            pts = np.array([[float(v) for v in p.split(",")] for p in a["points"].split()])
            out.append(tuple(pts.mean(axis=0)))
    return np.array(out, dtype=float).reshape(-1, 2)


def _neighbours(X: np.ndarray, k: int) -> np.ndarray:
    sq = np.sum(X * X, axis=1)
    D = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (X @ X.T), 0.0)
    np.fill_diagonal(D, np.inf)
    return np.argsort(D, axis=1, kind="stable")[:, :k]


def knn_recall(features: np.ndarray, coords: np.ndarray, k: int = KNN_K) -> float:
    """Mean share of each point's k nearest feature-space neighbours that
    are also among its k nearest neighbours on the map."""
    a = _neighbours(np.asarray(features, dtype=float), k)
    b = _neighbours(np.asarray(coords, dtype=float), k)
    return float(np.mean([len(set(x) & set(y)) / k for x, y in zip(a.tolist(), b.tolist())]))


def tsne_recall(out_dir) -> float:
    """knn_recall between the standardized canonical features in ceg.json
    and the sample markers of tsne.svg (the first n points; the rest are
    the legend)."""
    out = Path(out_dir)
    graphs = json.loads((out / "ceg.json").read_text(encoding="utf-8"))["graphs"]
    rows = []
    for g in graphs:
        idx = [g["feature_names"].index(name) for name in CANONICAL_FEATURES]
        rows += [[n["features_std"][i] for i in idx] for n in g["nodes"]]
    coords = point_centres((out / "tsne.svg").read_text(encoding="utf-8"))[: len(rows)]
    return knn_recall(np.array(rows), coords)


def check_artifacts(out_dir, exp: Expected) -> list[str]:
    """Problems with one pipeline output directory; empty when it is right."""
    out = Path(out_dir)
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    problems = []
    failed = set(exp.failed)

    rows = list(csv.reader(io.StringIO((out / "features.csv").read_text(encoding="utf-8"))))
    if len(rows) - 1 != exp.samples - len(failed):
        problems.append(f"features.csv has {len(rows) - 1} rows, expected {exp.samples - len(failed)}")
    elif failed & {r[0] for r in rows[1:]}:
        problems.append("features.csv has rows for unparsable samples")

    try:
        graphs = json.loads((out / "ceg.json").read_text(encoding="utf-8"))["graphs"]
        nodes = sum(len(g["nodes"]) for g in graphs)
        edges = sum(len(g["edges"]) for g in graphs)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"ceg.json unreadable: {exc!r}")
    else:
        if (nodes, edges) != (exp.nodes, exp.edges):
            problems.append(f"ceg.json has {nodes} nodes / {edges} edges, expected {exp.nodes} / {exp.edges}")

    corr = list(csv.reader(io.StringIO((out / "correlations.csv").read_text(encoding="utf-8"))))
    cells = sum(len(r) - 1 for r in corr[1:])
    if len(corr) - 1 != exp.groups or cells != exp.groups * len(CANONICAL_FEATURES):
        problems.append(
            f"correlations.csv has {len(corr) - 1} groups / {cells} cells, "
            f"expected {exp.groups} / {exp.groups * len(CANONICAL_FEATURES)}"
        )

    points = len(point_centres((out / "tsne.svg").read_text(encoding="utf-8")))
    if points != exp.nodes + exp.legend:
        problems.append(f"tsne.svg has {points} points, expected {exp.nodes} samples + {exp.legend} legend")
    return problems
