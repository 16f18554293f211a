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

Rows are assembled a block of consecutive parsed samples at a time, up to
_BLOCK_NODES nodes (a larger sample is a block alone): the block's trees
form one forest, whose graph features astfeat.forest_features computes in
a few numpy passes, and codemetrics.complexity_columns combines the
chunks' complexity counts into the block's complexity columns. A tree's
row has the same bits in any block (see astfeat), so where the blocks are
cut changes no value.

Every list of feature names is checked by column_index alone: it rejects
a name that is not a column, a name listed twice and an empty list.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .astfeat import AST_FEATURE_NAMES, EIG_FEATURE_NAMES, forest_features
from .codemetrics import (
    COMPLEXITY_FEATURE_NAMES,
    NESTING_FEATURE_NAMES,
    ComplexityMetrics,
    complexity_columns,
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


def column_index(columns, names) -> list[int]:
    """The positions in columns of the named features, in the order named.
    The one check of a list of feature names: ValueError for an empty
    list, for names that are not columns and for names listed more than
    once."""
    if not names:
        raise ValueError("feature selection is empty")
    unknown = [name for name in dict.fromkeys(names) if name not in columns]
    if unknown:
        raise ValueError(f"unknown feature names: {', '.join(unknown)}")
    repeated = [name for name, count in Counter(names).items() if count > 1]
    if repeated:
        raise ValueError(f"feature selection lists more than once: {', '.join(repeated)}")
    return [columns.index(name) for name in names]


def resolve_feature_set(spec: str, available=None) -> tuple[str, ...]:
    """Turn a feature-set name into a tuple of feature names.

    Accepts "ast22", "complexity6", "all28" or "custom:<path>" where the
    file lists one feature name per line (blank lines and # comments are
    skipped). A custom list is checked by column_index against available
    (by default every column featurizing can give).
    """
    if spec in FEATURE_SETS:
        return FEATURE_SETS[spec]
    if spec.startswith("custom:"):
        lines = Path(spec[len("custom:"):]).read_text(encoding="utf-8").splitlines()
        names = tuple(line for line in map(str.strip, lines) if line and not line.startswith("#"))
        column_index(_column_names(True) if available is None else available, names)
        return names
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


def _chunks(statements: list[str], counts: Counter) -> list[str]:
    """The chunks a sample is featurized by: its statements (_statements),
    with each run of consecutive statements that occur once in `counts`
    joined into one chunk. A log without repeated statements is featurized
    sample by sample, with no more parser calls than whole samples need."""
    runs: list[list[str]] = []
    single = False
    for text in statements:
        once = counts[text] == 1
        if once and single:
            runs[-1].append(text)
        else:
            runs.append([text])
        single = once
    return ["".join(run) for run in runs]


class _Chunk(NamedTuple):
    """What one chunk of code adds to a sample's features: its syntax tree
    below the module root, node v's distance up to its parent (up[v]) and
    its depth, in preorder; and its complexity counts, as compute_complexity
    gives them."""

    up: np.ndarray
    depth: np.ndarray
    complexity: ComplexityMetrics


def _parse_chunk(text: str) -> _Chunk | str:
    """The _Chunk of text, or the parser's diagnostic."""
    try:
        graph = parse_to_graph(text)
    except ParseError as exc:
        return str(exc)
    parent = np.array(graph.parent[1:], dtype=np.int32)
    return _Chunk(
        np.arange(1, len(graph.parent), dtype=np.int32) - parent,
        np.array(graph.depth[1:], dtype=np.int32),
        compute_complexity(graph, text),
    )


def _parsed(memo: dict, text: str) -> _Chunk | str:
    """_parse_chunk(text), computed once for each memo."""
    part = memo.get(text)
    if part is None:
        part = memo[text] = _parse_chunk(text)
    return part


def _parts(code: str, chunks: list[str], memo: dict) -> list[_Chunk] | str:
    """The _Chunk of each of the chunks of code, or, for code that does not
    parse, the diagnostic; memo maps chunk text to _parse_chunk's result
    (see _parsed)."""
    parts = [_parsed(memo, text) for text in chunks]
    if len(parts) > 1 and any(isinstance(part, str) for part in parts):
        # some chunk does not parse alone: the whole code is the one chunk
        parts = [_parsed(memo, code)]
    return parts[0] if isinstance(parts[0], str) else parts


# The most nodes that one forest_features call takes, unless one sample has
# more. At its peak the call holds about 27 8-byte items per node, some
# 1.7 MB for a full block. Blocks of 2^12 to 2^14 nodes featurize the
# perfbench logs equally fast, and blocks of 2^14 left the pipeline's peak
# RSS on large-modules-400 about 0.3 MB higher than blocks of 2^13.
_BLOCK_NODES = 1 << 13

_ROOT = np.zeros(1, dtype=np.int32)


def _blocks(samples: Iterable[list[_Chunk]]) -> Iterator[list[list[_Chunk]]]:
    """samples, each the _Chunk list of its code, cut into runs of
    consecutive samples whose trees hold at most _BLOCK_NODES nodes
    together, or one sample alone."""
    block: list[list[_Chunk]] = []
    nodes = 0
    for parts in samples:
        size = 1 + sum(len(part.up) for part in parts)
        if block and nodes + size > _BLOCK_NODES:
            yield block
            block, nodes = [], 0
        block.append(parts)
        nodes += size
    if block:
        yield block


def _forest(block: list[list[_Chunk]]) -> tuple[np.ndarray, np.ndarray]:
    """The trees of the samples of block, each given as the _Chunk list of
    its code, as the parent and depth arrays of one forest: a sample's tree
    is the module root above its chunks' trees, whose top-level statements
    (depth 1) hang from it."""
    up = np.concatenate(
        [a for parts in block for a in (_ROOT, *(part.up for part in parts))], dtype=np.int64
    )
    depth = np.concatenate(
        [a for parts in block for a in (_ROOT, *(part.depth for part in parts))],
        dtype=np.int64,
    )
    ids = np.arange(len(depth))
    parent = ids - up
    root = np.maximum.accumulate(np.where(depth == 0, ids, 0))
    parent[depth == 1] = root[depth == 1]
    parent[depth == 0] = -1
    return parent, depth


def _rows(block: list[list[_Chunk]], include_eigenvector: bool) -> np.ndarray:
    """The feature rows of the samples of block, each given as the _Chunk
    list of its code, in the columns of _column_names; a sample's
    complexity counts are its chunks'."""
    graph = forest_features(*_forest(block), include_eigenvector)
    counts = np.array([part.complexity for parts in block for part in parts], dtype=np.int64)
    starts = np.cumsum([0] + [len(parts) for parts in block[:-1]])
    k = len(AST_FEATURE_NAMES)
    return np.hstack([graph[:, :k], complexity_columns(counts, starts), graph[:, k:]])


def featurize(code: str, include_eigenvector: bool = False) -> dict[str, float]:
    """Full feature vector for one source string, canonical column order.
    Raises ParseError, with the parser's diagnostic, for code that does
    not parse."""
    statements = _statements(code)
    parts = _parts(code, _chunks(statements, Counter(statements)), {})
    if isinstance(parts, str):
        raise ParseError(parts)
    row = _rows([parts], include_eigenvector)[0].tolist()
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

    Each sample's code is split into statements once. Each distinct chunk
    of the log's code (see the module docstring) is parsed once per call,
    the first time a sample needs it, into a memo that this call alone
    holds; the rows are then assembled a block of samples at a time.
    """
    names = _column_names(include_eigenvector)
    # a statement that occurs again is kept as its first occurrence, so the
    # kept statements take the memory of the distinct ones alone
    first: dict[str, str] = {}
    statements = [[first.setdefault(text, text) for text in _statements(s.code)]
                  for s in dataset.samples]
    counts = Counter(chain.from_iterable(statements))
    memo: dict = {}
    ids: list[str] = []
    parsed: list[list[_Chunk]] = []
    failures: dict[str, str] = {}
    for s, pieces in zip(dataset.samples, statements):
        parts = _parts(s.code, _chunks(pieces, counts), memo)
        if isinstance(parts, str):
            failures[s.id] = parts
        else:
            ids.append(s.id)
            parsed.append(parts)
    rows = [_rows(block, include_eigenvector) for block in _blocks(parsed)]
    values = np.concatenate(rows) if rows else np.empty((0, len(names)))
    return FeatureTable(tuple(ids), names, values), failures
