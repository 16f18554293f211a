"""Assemble code evolution graphs from a validated dataset and its features.

One EvolutionGraph per run. Each node carries the normalized fitness, the
raw and standardized feature vectors, and its parent frequency (number of
children it produced within the run). Edges point parent -> child.

Fitness normalization is min-max within a configurable scope: "group"
pools runs sharing (benchmark, method), "run" normalizes each run alone,
"global" pools everything. Direction "minimize" maps the smallest raw
score to 1. Feature standardization is z-scoring with population variance
over the whole dataset; zero-variance columns become 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .features import FeatureTable
from .ingest import CodeSample, Dataset

NORM_SCOPES = ("group", "run", "global")


@dataclass(frozen=True, eq=False)
class CegNode:
    sample_id: str
    name: str
    evaluation_index: int
    fitness_norm: float | None
    parent_frequency: int
    features_raw: np.ndarray
    features_std: np.ndarray


@dataclass(frozen=True, eq=False)
class EvolutionGraph:
    group_key: tuple[str, str, str]
    run_id: str
    feature_names: tuple[str, ...]
    nodes: tuple[CegNode, ...]
    edges: tuple[tuple[str, str], ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def to_dict(self) -> dict:
        return {
            "group_key": list(self.group_key),
            "run_id": self.run_id,
            "feature_names": list(self.feature_names),
            "nodes": [
                {
                    "sample_id": n.sample_id,
                    "evaluation_index": n.evaluation_index,
                    "fitness_norm": n.fitness_norm,
                    "parent_frequency": n.parent_frequency,
                    "features_raw": [float(v) for v in n.features_raw],
                    "features_std": [float(v) for v in n.features_std],
                }
                for n in self.nodes
            ],
            "edges": [[p, c] for p, c in self.edges],
        }


def feature_columns(graphs, names=None) -> tuple[tuple[str, ...], list[int]]:
    """Check that `graphs` is non-empty and that all graphs share one
    feature-name tuple; return the selected names and their column indices
    (names=None selects every column). Unknown names raise ValueError."""
    if not graphs:
        raise ValueError("no evolution graphs given")
    base = graphs[0].feature_names
    for g in graphs:
        if g.feature_names != base:
            raise ValueError(f"graph {g.run_id!r} has mismatched feature names")
    names = base if names is None else tuple(names)
    missing = [name for name in names if name not in base]
    if missing:
        raise ValueError(f"unknown feature names: {', '.join(missing)}")
    return names, [base.index(name) for name in names]


def graphs_to_json(graphs: list[EvolutionGraph]) -> str:
    """Serialize a list of evolution graphs, stable ordering: the text of
    json.dumps({"graphs": [g.to_dict() for g in graphs]}, indent=2), built
    one graph at a time, so only one graph's dict is held at once."""
    if not graphs:
        return json.dumps({"graphs": []}, indent=2)
    # a graph's text two levels in; JSON strings hold no raw line break
    items = ",\n".join(
        "    " + json.dumps(g.to_dict(), indent=2).replace("\n", "\n    ") for g in graphs
    )
    return '{\n  "graphs": [\n' + items + "\n  ]\n}"


def _minmax(value: float, lo: float, hi: float, direction: str) -> float:
    if hi == lo:
        return 1.0
    if hi - lo == math.inf:
        # the range overflows a float; halving every term is exact here
        value, lo, hi = value / 2, lo / 2, hi / 2
    if direction == "minimize":
        return (hi - value) / (hi - lo)
    return (value - lo) / (hi - lo)


def _norm_key(sample: CodeSample, scope: str):
    if scope == "group":
        return (sample.benchmark, sample.method)
    if scope == "run":
        return sample.run_id
    return None  # global


def build_ceg(
    dataset: Dataset,
    features: FeatureTable,
    *,
    normalize: str = "minmax",
    direction: str = "maximize",
    norm_scope: str = "group",
) -> list[EvolutionGraph]:
    """Build one evolution graph per run.

    `features` holds the feature rows (see featurize_dataset); samples
    without a row are skipped, and edges touching them dropped. Nodes hold
    row views of the table's matrix and of one standardized matrix.
    Returns graphs sorted by (group_key, run_id).
    """
    if normalize not in ("minmax", "none"):
        raise ValueError(f"unknown normalize mode {normalize!r}")
    if direction not in ("maximize", "minimize"):
        raise ValueError(f"unknown direction {direction!r}")
    if norm_scope not in NORM_SCOPES:
        raise ValueError(f"unknown norm_scope {norm_scope!r}")

    row_of = features.row_of()
    eligible = [s for s in dataset.samples if s.id in row_of]
    if not eligible:
        return []

    # z-standardize features over every eligible sample
    raw = features.values
    std = np.zeros_like(raw)
    rows = [row_of[s.id] for s in eligible]
    block = raw[rows]
    mean = block.mean(axis=0)
    var = block.var(axis=0)
    sd = np.sqrt(var)
    safe = np.where(sd > 0.0, sd, 1.0)
    z = (block - mean) / safe
    z[:, sd == 0.0] = 0.0
    std[rows] = z

    # fitness normalization statistics are pooled over the whole dataset
    # (also samples without features: their scores are still real results)
    fitness_norm: dict[str, float | None] = {}
    if normalize == "none":
        for s in dataset.samples:
            fitness_norm[s.id] = s.fitness_raw
    else:
        pools: dict[object, list[float]] = {}
        for s in dataset.samples:
            if s.fitness_raw is not None:
                pools.setdefault(_norm_key(s, norm_scope), []).append(s.fitness_raw)
        for s in dataset.samples:
            if s.fitness_raw is None:
                fitness_norm[s.id] = None
            else:
                pool = pools[_norm_key(s, norm_scope)]
                fitness_norm[s.id] = _minmax(
                    s.fitness_raw, min(pool), max(pool), direction
                )

    # partition by run, build nodes and edges
    runs: dict[str, list[CodeSample]] = {}
    for s in eligible:
        runs.setdefault(s.run_id, []).append(s)

    graphs: list[EvolutionGraph] = []
    for run_id, samples in runs.items():
        group_keys = {s.group_key for s in samples}
        if len(group_keys) > 1:
            raise ValueError(
                f"run {run_id!r} mixes group keys {sorted(group_keys)}"
            )
        edges: list[tuple[str, str]] = []
        out_degree: dict[str, int] = {s.id: 0 for s in samples}
        for s in samples:
            for pid in s.parent_ids:
                if pid in out_degree:
                    edges.append((pid, s.id))
                    out_degree[pid] += 1
        nodes = tuple(
            CegNode(
                sample_id=s.id,
                name=s.name,
                evaluation_index=s.evaluation_index,
                fitness_norm=fitness_norm[s.id],
                parent_frequency=out_degree[s.id],
                features_raw=raw[row_of[s.id]],
                features_std=std[row_of[s.id]],
            )
            for s in samples
        )
        graphs.append(
            EvolutionGraph(
                group_key=group_keys.pop(),
                run_id=run_id,
                feature_names=features.names,
                nodes=nodes,
                edges=tuple(edges),
            )
        )

    graphs.sort(key=lambda g: (g.group_key, g.run_id))
    return graphs
