"""Assemble code evolution graphs from a validated dataset and its features.

One table (CegTable) holds every run's graph: one row per node with its
normalized fitness (NaN where the score is missing) and raw and
standardized feature vectors, a row range per run, and the edges,
parent -> child, as two arrays of rows. A node's parent frequency (the
children it produced within its run) is counted from the edges, not
stored (parent_frequency). Runs are sorted by (group_key, run_id), so a
group is a range of runs (group_bounds); column_index turns names into
columns, through the one check of a feature list, features.column_index.

Fitness normalization (NORMALIZE_MODES, DIRECTIONS, NORM_SCOPES hold the
values build_ceg accepts) is min-max within a configurable scope: "group"
pools runs sharing (benchmark, method), "run" normalizes each run alone,
"global" pools everything; a non-finite score is missing. Direction
"minimize" maps the smallest raw score to 1. Feature standardization is
z-scoring with population variance over the whole dataset; zero-variance
columns become 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .features import FeatureTable, column_index
from .ingest import CodeSample, Dataset

NORMALIZE_MODES = ("minmax", "none")
DIRECTIONS = ("maximize", "minimize")
NORM_SCOPES = ("group", "run", "global")


@dataclass(frozen=True, eq=False)
class CegTable:
    """The evolution graphs of a log as one table, in graph order: runs
    strictly sorted by (group_key, run_id), which is checked, each run's
    nodes in log order.

    Per node (row): ids, evaluation_index, fitness_norm (NaN where the
    score is missing) and its features_raw and features_std rows, with
    columns feature_names.
    Per run r: run_ids[r], group_keys[r] and the rows
    run_bounds[r]:run_bounds[r + 1]. Per edge e: parent[e] -> child[e],
    two rows of one run; edges are sorted by child row, and a child's
    parents keep the order of its parent_ids.
    """

    feature_names: tuple[str, ...]
    ids: tuple[str, ...]
    evaluation_index: np.ndarray
    fitness_norm: np.ndarray
    features_raw: np.ndarray
    features_std: np.ndarray
    run_ids: tuple[str, ...]
    group_keys: tuple[tuple[str, str, str], ...]
    run_bounds: np.ndarray
    parent: np.ndarray
    child: np.ndarray

    def __post_init__(self):
        runs = list(zip(self.group_keys, self.run_ids))
        for a, b in zip(runs, runs[1:]):
            if a >= b:
                raise ValueError(f"runs not strictly sorted by (group_key, run_id): {a!r}, {b!r}")

    def edge_bounds(self) -> np.ndarray:
        """Run r's edges are the edges edge_bounds()[r]:edge_bounds()[r + 1]."""
        return np.searchsorted(self.child, self.run_bounds)

    def group_bounds(self) -> np.ndarray:
        """Group g's runs are the runs group_bounds()[g]:group_bounds()[g + 1]."""
        keys = self.group_keys
        return np.array([r for r in range(len(keys) + 1)
                         if r in (0, len(keys)) or keys[r] != keys[r - 1]], dtype=np.int64)

    def parent_frequency(self) -> np.ndarray:
        """Node i's parent frequency is parent_frequency()[i]: the edges
        from row i, its children within its run."""
        return np.bincount(self.parent, minlength=len(self.ids))

    def column_index(self, names) -> list[int]:
        """The columns of the named features, in the order named, as
        features.column_index checks and gives them."""
        return column_index(self.feature_names, names)


def _rows(M: np.ndarray) -> list[list[str]]:
    """The rows of the float matrix M, each a list of its entries as json
    writes them; a row with no non-finite entry skips json.dumps."""
    finite = np.isfinite(M).all(axis=1).tolist()
    return [list(map(float.__repr__ if ok else json.dumps, row)) for ok, row in zip(finite, M.tolist())]


def _layout(opening: str, items: list[str], closing: str, pad: str) -> str:
    """A JSON array or object of encoded items (an object's as "key": value),
    laid out as json.dumps(indent=2) lays it out on a line that starts with
    pad: one item a line, two spaces further in."""
    if not items:
        return opening + closing
    sep = "\n" + pad + "  "
    return opening + sep + ("," + sep).join(items) + "\n" + pad + closing


def graphs_to_json(table: CegTable) -> str:
    """Serialize the evolution graphs, one object per run in graph order,
    as json.dumps(..., indent=2) writes them, without json's pure-Python
    indenting encoder: strings through json.dumps, ints by their repr,
    floats as json writes them and a NaN fitness as null.
    Each run holds its group_key, run_id, feature_names, its nodes (each
    with sample_id, evaluation_index, fitness_norm, parent_frequency,
    features_raw and features_std) and its edges as [parent id, child id]."""
    pad, inner, node_pad = "    ", "      ", "        "
    row_pad = node_pad + "  "
    ids = [json.dumps(i) for i in table.ids]
    names = _layout("[", [json.dumps(n) for n in table.feature_names], "]", inner)
    fitness = [float.__repr__(f) if math.isfinite(f) else json.dumps(None if f != f else f)
               for f in table.fitness_norm.tolist()]
    nodes = [
        _layout("{", [
            '"sample_id": ' + sample_id,
            '"evaluation_index": ' + int.__repr__(index),
            '"fitness_norm": ' + f,
            '"parent_frequency": ' + int.__repr__(freq),
            '"features_raw": ' + _layout("[", raw, "]", row_pad),
            '"features_std": ' + _layout("[", std, "]", row_pad),
        ], "}", node_pad)
        for sample_id, index, f, freq, raw, std in zip(
            ids, table.evaluation_index.tolist(), fitness, table.parent_frequency().tolist(),
            _rows(table.features_raw), _rows(table.features_std))
    ]
    edges = [_layout("[", [ids[p], ids[c]], "]", node_pad)
             for p, c in zip(table.parent.tolist(), table.child.tolist())]
    bounds, edge_bounds = table.run_bounds.tolist(), table.edge_bounds().tolist()
    runs = [
        _layout("{", [
            '"group_key": ' + _layout("[", [json.dumps(k) for k in key], "]", inner),
            '"run_id": ' + json.dumps(run_id),
            '"feature_names": ' + names,
            '"nodes": ' + _layout("[", nodes[bounds[r]:bounds[r + 1]], "]", inner),
            '"edges": ' + _layout("[", edges[edge_bounds[r]:edge_bounds[r + 1]], "]", inner),
        ], "}", pad)
        for r, (run_id, key) in enumerate(zip(table.run_ids, table.group_keys))
    ]
    return '{\n  "graphs": ' + _layout("[", runs, "]", "  ") + "\n}"


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
) -> CegTable:
    """Build the evolution graphs of every run as one table.

    `features` holds the feature rows (see featurize_dataset); samples
    without a row are skipped, and edges touching them dropped.
    """
    if normalize not in NORMALIZE_MODES:
        raise ValueError(f"unknown normalize mode {normalize!r}")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    if norm_scope not in NORM_SCOPES:
        raise ValueError(f"unknown norm_scope {norm_scope!r}")

    row_of = features.row_of()
    eligible = [s for s in dataset.samples if s.id in row_of]

    # partition by run; graph order lists the eligible samples run by run
    runs: dict[str, list[int]] = {}
    for k, s in enumerate(eligible):
        runs.setdefault(s.run_id, []).append(k)
    keyed = []
    for run_id, members in runs.items():
        group_keys = {eligible[k].group_key for k in members}
        if len(group_keys) > 1:
            raise ValueError(
                f"run {run_id!r} mixes group keys {sorted(group_keys)}"
            )
        keyed.append((group_keys.pop(), run_id, members))
    keyed.sort(key=lambda run: run[:2])
    order = [k for *_, members in keyed for k in members]
    nodes = [eligible[k] for k in order]

    # z-standardize features over every eligible sample in log order, the
    # summation order of the mean and variance, then reorder once
    raw = features.values[[row_of[s.id] for s in eligible]]
    std = raw
    if eligible:
        mean = raw.mean(axis=0)
        var = raw.var(axis=0)
        sd = np.sqrt(var)
        safe = np.where(sd > 0.0, sd, 1.0)
        std = (raw - mean) / safe
        std[:, sd == 0.0] = 0.0

    # fitness normalization statistics are pooled over the whole dataset
    # (also samples without features: their scores are still real results)
    pools: dict[object, list[float]] = {}
    for s in dataset.samples:
        if s.fitness_raw is not None and math.isfinite(s.fitness_raw):
            pools.setdefault(_norm_key(s, norm_scope), []).append(s.fitness_raw)
    ranges = {key: (min(pool), max(pool)) for key, pool in pools.items()}

    def fitness_norm(s: CodeSample) -> float:
        if s.fitness_raw is None or not math.isfinite(s.fitness_raw):
            return math.nan
        if normalize == "none":
            return s.fitness_raw
        return _minmax(s.fitness_raw, *ranges[_norm_key(s, norm_scope)], direction)

    row = {s.id: i for i, s in enumerate(nodes)}
    edges = [
        (row[pid], i)
        for i, s in enumerate(nodes)
        for pid in s.parent_ids
        if pid in row and nodes[row[pid]].run_id == s.run_id
    ]
    parent, child = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return CegTable(
        feature_names=features.names,
        ids=tuple(s.id for s in nodes),
        evaluation_index=np.array([s.evaluation_index for s in nodes], dtype=np.int64),
        fitness_norm=np.array([fitness_norm(s) for s in nodes], dtype=float),
        features_raw=raw[order],
        features_std=std[order],
        run_ids=tuple(run_id for _, run_id, _ in keyed),
        group_keys=tuple(key for key, *_ in keyed),
        run_bounds=np.cumsum([0] + [len(members) for *_, members in keyed]),
        parent=parent,
        child=child,
    )
