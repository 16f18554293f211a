"""Combined per-sample feature extraction and feature-set selection.

The canonical feature vector has 28 columns: the 22 graph features followed
by the 6 complexity features. Nesting depth columns and (optionally)
eigenvector centrality columns are appended after those, so selecting
"all28" always yields the same 28 names in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .astfeat import AST_FEATURE_NAMES, EIG_FEATURE_NAMES, compute_graph_features
from .codemetrics import (
    COMPLEXITY_FEATURE_NAMES,
    NESTING_FEATURE_NAMES,
    compute_complexity,
)
from .ingest import Dataset
from .pyast import ParseError, parse_to_graph

ALL_FEATURE_NAMES = AST_FEATURE_NAMES + COMPLEXITY_FEATURE_NAMES

FEATURE_SETS = {
    "ast22": AST_FEATURE_NAMES,
    "complexity6": COMPLEXITY_FEATURE_NAMES,
    "all28": ALL_FEATURE_NAMES,
}


def resolve_feature_set(spec: str, available=None) -> tuple[str, ...]:
    """Turn a feature-set name into a tuple of feature names.

    Accepts "ast22", "complexity6", "all28" or "custom:<path>" where the
    file lists one feature name per line (blank lines and # comments are
    skipped). Unknown names raise ValueError.
    """
    if spec in FEATURE_SETS:
        return FEATURE_SETS[spec]
    if spec.startswith("custom:"):
        path = Path(spec[len("custom:"):])
        names = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                names.append(line)
        if not names:
            raise ValueError(f"custom feature set {path} is empty")
        known = set(available) if available is not None else set(
            ALL_FEATURE_NAMES + NESTING_FEATURE_NAMES + EIG_FEATURE_NAMES
        )
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(f"unknown feature names: {', '.join(unknown)}")
        return tuple(names)
    raise ValueError(f"unknown feature set {spec!r}")


def _column_names(include_eigenvector: bool) -> tuple[str, ...]:
    names = ALL_FEATURE_NAMES + NESTING_FEATURE_NAMES
    return names + EIG_FEATURE_NAMES if include_eigenvector else names


def featurize(code: str, include_eigenvector: bool = False) -> dict[str, float]:
    """Full feature vector for one source string, canonical column order."""
    graph = parse_to_graph(code)
    gf = compute_graph_features(graph, include_eigenvector=include_eigenvector)
    values = gf.as_dict() | compute_complexity(graph, code).as_dict()
    return {name: values[name] for name in _column_names(include_eigenvector)}


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Feature matrix: row i holds the features of sample ids[i], column j
    the feature names[j]. A values array of any other shape is rejected."""

    ids: tuple[str, ...]
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.ids), len(self.names)):
            raise ValueError(
                f"feature values of shape {values.shape} mismatch "
                f"{len(self.ids)} ids and {len(self.names)} names"
            )
        object.__setattr__(self, "values", values)

    def row_of(self) -> dict[str, int]:
        return {sample_id: i for i, sample_id in enumerate(self.ids)}


def featurize_dataset(
    dataset: Dataset, include_eigenvector: bool = False
) -> tuple[FeatureTable, dict[str, str]]:
    """Feature vectors for every sample whose code parses.

    Returns (table, failures): table has one row per parsed sample in
    dataset order, with the columns of featurize; failures maps the ids of
    unparsable samples to the parser diagnostic.
    """
    names = _column_names(include_eigenvector)
    ids: list[str] = []
    rows: list[list[float]] = []
    failures: dict[str, str] = {}
    for s in dataset.samples:
        try:
            row = featurize(s.code, include_eigenvector=include_eigenvector)
        except ParseError as exc:
            failures[s.id] = str(exc)
            continue
        ids.append(s.id)
        rows.append(list(row.values()))
    values = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return FeatureTable(tuple(ids), names, values), failures
