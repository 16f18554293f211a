"""Combined per-sample feature extraction and feature-set selection.

The canonical feature vector has 28 columns: the 22 graph features followed
by the 6 complexity features. Nesting depth columns and (optionally)
eigenvector centrality columns are appended after those, so selecting
"all28" always yields the same 28 names in the same order.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from itertools import repeat
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


# featurize_dataset hands a log to a process pool only when it holds at
# least this many characters of code. Measured on two cores: the pool's wall
# time breaks even near 50k characters, but below 256k it adds 17% or more to
# the featurization CPU time to save at most about 0.2 s
_PARALLEL_MIN_CHARS = 1 << 18
_CHUNKSIZE = 8


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_workers(workers: int, start):
    """start(context) with a fork context, or None, which means: run
    serially. None when there are fewer than 2 workers, the platform cannot
    fork, or this process is daemonic (a multiprocessing.Pool worker, which
    may not start processes); also when start raises OSError, as a refused
    fork does, once the children it forked are killed and joined."""
    if workers < 2:
        return None
    # imported here: the serial paths, and `import cegraph`, do without it
    import multiprocessing

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return None
    # fork, not spawn: a spawned worker re-imports numpy and cegraph and
    # re-runs the caller's __main__. Forking is safe: the only other thread,
    # OpenBLAS's, is stopped by its own atfork handler, and a
    # ProcessPoolExecutor forks all its workers before its manager thread
    before = set(multiprocessing.active_children())
    try:
        return start(multiprocessing.get_context("fork"))
    except OSError:
        for child in set(multiprocessing.active_children()) - before:
            child.kill()
            child.join()
        return None


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker within 0.1 s of its parent's exit.
    A worker waiting on the call queue never sees end-of-file, since every
    worker holds the queue's write end too."""
    import threading

    def watch():
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _featurize_row(code: str, include_eigenvector: bool):
    """(row, None) for code that parses, (None, diagnostic) otherwise."""
    try:
        row = featurize(code, include_eigenvector=include_eigenvector)
    except ParseError as exc:
        return None, str(exc)
    return list(row.values()), None


def _featurize_rows(codes: list[str], include_eigenvector: bool) -> list:
    """_featurize_row over codes, in order. A pool of forked workers, one
    per usable CPU and at most one per chunk, runs it when the codes reach
    _PARALLEL_MIN_CHARS and _fork_workers allows; map runs it otherwise."""
    flags = repeat(include_eigenvector)
    large = sum(map(len, codes)) >= _PARALLEL_MIN_CHARS
    workers = min(_usable_cpus(), math.ceil(len(codes) / _CHUNKSIZE)) if large else 1

    def pooled(context):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=context, initializer=_exit_with_parent,
                                 initargs=(os.getpid(),)) as pool:
            return list(pool.map(_featurize_row, codes, flags, chunksize=_CHUNKSIZE))

    rows = _fork_workers(workers, pooled)
    return list(map(_featurize_row, codes, flags)) if rows is None else rows


def featurize_dataset(
    dataset: Dataset, include_eigenvector: bool = False
) -> tuple[FeatureTable, dict[str, str]]:
    """Feature vectors for every sample whose code parses.

    Returns (table, failures): table has one row per parsed sample in
    dataset order, with the columns of featurize; failures maps the ids of
    unparsable samples to the parser diagnostic, in dataset order. Large
    logs are featurized by a pool of forked worker processes, one per
    usable CPU; the results are the same as a serial run's.
    """
    names = _column_names(include_eigenvector)
    ids: list[str] = []
    rows: list[list[float]] = []
    failures: dict[str, str] = {}
    codes = [s.code for s in dataset.samples]
    for s, (row, diagnostic) in zip(
        dataset.samples, _featurize_rows(codes, include_eigenvector)
    ):
        if row is None:
            failures[s.id] = diagnostic
            continue
        ids.append(s.id)
        rows.append(row)
    values = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return FeatureTable(tuple(ids), names, values), failures
