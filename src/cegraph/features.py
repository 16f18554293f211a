"""Combined per-sample feature extraction and feature-set selection.

The canonical feature vector has 28 columns: the 22 graph features followed
by the 6 complexity features. Nesting depth columns and (optionally)
eigenvector centrality columns are appended after those, so selecting
"all28" always yields the same 28 names in the same order.

A sample is featurized by its top-level statements. Its code is split
before every line that can begin one (a decorator run joins the statement
below it), and the statements that occur once in the log join their
neighbours of that kind into one chunk. Each distinct chunk is parsed
once, into its syntax tree as arrays and its complexity counts, and a
sample's row is assembled from its chunks: the module's tree is a root
above the chunks' trees, and its complexity counts are the chunks' sums.
A module is a sequence of statements, so the row is the one its whole
code gives, bit for bit. Where a chunk does not parse alone, the whole
code is the one chunk, so an unparsable sample keeps the whole module's
diagnostic.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .astfeat import (
    AST_FEATURE_NAMES,
    EIG_FEATURE_NAMES,
    PreorderTree,
    compute_graph_features,
)
from .codemetrics import (
    COMPLEXITY_FEATURE_NAMES,
    NESTING_FEATURE_NAMES,
    ComplexityMetrics,
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


# A line that can begin a top-level statement: its first character is no
# blank, comment or line break, and it continues no compound statement. The
# search finds the line break before it. re compiles it on first use.
_STATEMENT_LINE = r"\n(?=[^\s#])(?!(?:else|elif|except|finally)\b)"


def _statements(code: str) -> list[str]:
    """code cut before each line that can begin a top-level statement,
    unless the line before that is a decorator, so that a run of decorators
    joins the statement below it. Code that holds a carriage return, where
    the parser breaks lines and the split does not, stays one piece."""
    if "\r" in code:
        return [code]
    pieces = []
    start = 0
    decorated = code.startswith("@")
    for match in re.finditer(_STATEMENT_LINE, code):
        at = match.end()
        if not decorated:
            pieces.append(code[start:at])
            start = at
        decorated = code.startswith("@", at)
    pieces.append(code[start:])
    return pieces


def _chunks(code: str, counts: Counter) -> list[str]:
    """The chunks code is featurized by: its statements (_statements), with
    each run of consecutive statements that occur once in `counts` joined
    into one chunk. A log without repeated statements is featurized sample
    by sample, with no more parser calls than whole samples need."""
    starts = []
    at = 0
    single = False
    for text in _statements(code):
        once = counts[text] == 1
        if not (once and single):
            starts.append(at)
        single = once
        at += len(text)
    return [code[a:b] for a, b in zip(starts, starts[1:] + [len(code)])]


class _Chunk(NamedTuple):
    """What one chunk of code adds to a sample's features: its syntax tree
    below the module root, node v's distance up to its parent (up[v]) and
    its depth, in preorder; and its complexity counts."""

    up: np.ndarray
    depth: np.ndarray
    complexity: ComplexityMetrics


def _parse_chunk(text: str) -> _Chunk | str:
    """The _Chunk of text, or the parser's diagnostic."""
    try:
        graph = parse_to_graph(text)
    except ParseError as exc:
        return str(exc)
    tree = PreorderTree.of(graph)
    up = np.arange(len(tree.parent)) - tree.parent
    return _Chunk(
        up[1:].astype(np.int32), tree.depth[1:].astype(np.int32), compute_complexity(graph, text)
    )


def _parsed(memo: dict, text: str) -> _Chunk | str:
    """_parse_chunk(text), computed once for each memo."""
    part = memo.get(text)
    if part is None:
        part = memo[text] = _parse_chunk(text)
    return part


def _row(code: str, chunks: list[str], memo: dict, include_eigenvector: bool):
    """(row, None) for code that parses, (None, diagnostic) otherwise; code
    is the concatenation of chunks, and memo maps chunk text to
    _parse_chunk's result (see _parsed)."""
    parts = [_parsed(memo, text) for text in chunks]
    if len(parts) > 1 and any(isinstance(part, str) for part in parts):
        # some chunk does not parse alone: the whole code is the one chunk
        parts = [_parsed(memo, code)]
    if isinstance(parts[0], str):
        return None, parts[0]
    # the module root (up 1, so parent -1) above the chunks' trees, whose
    # top-level statements (depth 1) hang from it
    up = np.concatenate([[1], *(part.up for part in parts)], dtype=np.int64)
    depth = np.concatenate([[0], *(part.depth for part in parts)], dtype=np.int64)
    parent = np.arange(len(up)) - up
    parent[depth == 1] = 0
    graph = compute_graph_features(PreorderTree(parent, depth), include_eigenvector)
    values = graph.as_dict() | ComplexityMetrics.combine(
        [part.complexity for part in parts]
    ).as_dict()
    return [values[name] for name in _column_names(include_eigenvector)], None


def featurize(code: str, include_eigenvector: bool = False) -> dict[str, float]:
    """Full feature vector for one source string, canonical column order.
    Raises ParseError, with the parser's diagnostic, for code that does
    not parse."""
    chunks = _chunks(code, Counter(_statements(code)))
    row, diagnostic = _row(code, chunks, {}, include_eigenvector)
    if row is None:
        raise ParseError(diagnostic)
    return dict(zip(_column_names(include_eigenvector), row))


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
    unparsable samples to the parser diagnostic, in dataset order.

    Each distinct chunk of the log's code (see the module docstring) is
    parsed once per call, the first time a row needs it, into a memo that
    this call alone holds.
    """
    names = _column_names(include_eigenvector)
    counts = Counter(chain.from_iterable(_statements(s.code) for s in dataset.samples))
    memo: dict = {}
    ids: list[str] = []
    rows: list[list[float]] = []
    failures: dict[str, str] = {}
    for s in dataset.samples:
        row, diagnostic = _row(s.code, _chunks(s.code, counts), memo, include_eigenvector)
        if row is None:
            failures[s.id] = diagnostic
            continue
        ids.append(s.id)
        rows.append(row)
    values = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return FeatureTable(tuple(ids), names, values), failures
