"""Command line interface.

Subcommands: extract (features.csv), ceg (ceg.json + lineage figure),
tsne (tsne.svg), correlate (correlations.csv + heatmap.svg), pipeline
(all of the above). Exit codes: 0 success, 1 schema/validation failure,
2 I/O error, bad usage or out of memory.
A run writes its files only once every one of them is built.

The process runs BLAS on one thread: before numpy loads, this module sets
OPENBLAS_NUM_THREADS to 1 unless it is already set, so OpenBLAS starts no
helper thread to spin idle beside a run whose products each fit one thread.
A value set in the environment wins.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import errno
import io
import math
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from .astfeat import AST_FEATURE_NAMES
from .ceg import DIRECTIONS, NORM_SCOPES, NORMALIZE_MODES, build_ceg, graphs_to_json
from .codemetrics import NESTING_FEATURE_NAMES
from .embed import correlation_table, pca, tsne
from .features import (ALL_FEATURE_NAMES, _column_names, column_index, featurize_dataset,
                       resolve_feature_set)
from .ingest import POLICIES, CodeSample, ValidationError, load_jsonl, validate
from .report import render_ceg, render_heatmap, render_tsne

# features.csv's metadata columns: every CodeSample field but parent_ids and code
_META_COLUMNS = tuple(f.name for f in fields(CodeSample) if f.name not in ("parent_ids", "code"))

# flag -> argparse keywords
OPTIONS = {
    "--input": dict(required=True, help="run log (JSONL)"),
    "--out": dict(default="out", help="output directory"),
    "--policy": dict(
        choices=POLICIES,
        default="strict",
        help="lineage validation policy",
    ),
    "--include-eigencentrality": dict(
        action="store_true",
        help="also compute eigenvector centrality features",
    ),
    "--normalize": dict(choices=NORMALIZE_MODES, default="minmax"),
    "--direction": dict(choices=DIRECTIONS, default="maximize"),
    "--norm-scope": dict(choices=NORM_SCOPES, default="group"),
    "--seed": dict(type=int, default=0),
    "--perplexity": dict(type=float, default=30.0),
    "--iterations": dict(type=int, default=1000),
    "--y-axis": dict(default="pc1", help="pc1 | tokens | feature:<name>"),
    "--feature-set": dict(
        default=None,
        help="ast22 | complexity6 | all28 | custom:<file>",
    ),
}
_COMMON = ("--input", "--out", "--policy", "--include-eigencentrality")
_CEG = ("--normalize", "--direction", "--norm-scope")
_PROJECTION = ("--seed", "--perplexity", "--iterations")

# subcommand -> (help, flags, artifacts it writes)
SUBCOMMANDS = {
    "extract": ("write per-sample feature vectors as CSV", (), ("features",)),
    "ceg": (
        "build evolution graphs and a lineage figure",
        _CEG + ("--y-axis", "--feature-set"),
        ("ceg",),
    ),
    "tsne": (
        "project all samples with exact t-SNE",
        _CEG + _PROJECTION + ("--feature-set",),
        ("tsne",),
    ),
    "correlate": (
        "feature/fitness rank correlations",
        _CEG + ("--feature-set",),
        ("correlations",),
    ),
    "pipeline": (
        "run extract, ceg, tsne and correlate",
        _CEG + _PROJECTION + ("--y-axis", "--feature-set"),
        ("features", "ceg", "tsne", "correlations"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cegraph",
        description="reconstruct and analyze the evolution of generated code",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand carries every option's default, so _run reads them
    # all; it accepts only its own flags
    defaults = {
        flag[2:].replace("-", "_"): kwargs.get("default", False)
        for flag, kwargs in OPTIONS.items()
    }
    for command, (help_text, flags, _) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(**defaults)
        for flag in _COMMON + flags:
            p.add_argument(flag, **OPTIONS[flag])
    return parser


def _write_features_csv(dataset, table) -> str:
    """features.csv: per row of table (the parsed samples, in log order)
    its sample's metadata, then its features but the nesting ones: the 28
    canonical ones, then the two eigenvector-centrality ones if present."""
    keep = [name not in NESTING_FEATURE_NAMES for name in table.names]
    by_id = dataset.by_id()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(_META_COLUMNS) + [name for name, k in zip(table.names, keep) if k])
    for sample_id, row in zip(table.ids, table.values[:, keep].tolist()):
        s = by_id[sample_id]
        meta = [getattr(s, column) for column in _META_COLUMNS[:-1]]
        meta.append("" if s.fitness_raw is None else repr(s.fitness_raw))
        writer.writerow(meta + list(map(repr, row)))
    return buf.getvalue()


def _y_axis(spelling: str, names) -> str:
    """The lineage figure's y axis: "pc1" or a feature name, checked by column_index."""
    name = {"pc1": "pc1", "tokens": "token_total"}.get(spelling)
    if name is None and spelling.startswith("feature:"):
        name = spelling[len("feature:"):]
        column_index(names, [name])
    if name is None:
        raise ValueError(f"unknown y-axis {spelling!r}; use pc1, tokens or feature:<name>")
    return name


def _run(args) -> int:
    """Check the feature names and projection flags, load, validate and
    featurize the log, build the evolution graphs if a selected artifact
    needs them, then write the selected artifacts in order to a staging
    directory inside --out. Only after the last one are they moved into
    --out and listed on stdout: a run that fails leaves --out as it was."""
    artifacts = SUBCOMMANDS[args.command][2]
    # check every flag before the log is read, against the columns featurizing gives
    known = _column_names(args.include_eigencentrality)
    y_axis = _y_axis(args.y_axis, known)
    feature_set = resolve_feature_set(args.feature_set, known) if args.feature_set else None
    if "tsne" in artifacts:
        if args.iterations < 1:
            raise ValueError(f"--iterations must be positive, got {args.iterations}")
        if math.isnan(args.perplexity):
            raise ValueError("--perplexity must be a number, got nan")
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
    dataset = load_jsonl(args.input)
    dataset, violations = validate(dataset, policy=args.policy)
    if violations:
        print(f"dropped {len(violations)} dangling parent references", file=sys.stderr)
        for v in violations:
            print(
                f"  dropped parent {v.parent_id!r} of sample {v.sample_id!r}: {v.reason}",
                file=sys.stderr,
            )
    table, failures = featurize_dataset(
        dataset, include_eigenvector=args.include_eigencentrality
    )
    if failures:
        print(f"skipped {len(failures)} unparsable samples", file=sys.stderr)
        for sample_id, diagnostic in failures.items():
            print(f"  skipped sample {sample_id!r}: {diagnostic}", file=sys.stderr)
    if not table.ids:
        raise ValidationError("no sample produced a feature vector")
    if artifacts != ("features",):
        ceg = build_ceg(
            dataset,
            table,
            normalize=args.normalize,
            direction=args.direction,
            norm_scope=args.norm_scope,
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".cegraph-", dir=out) as tmp:
        staging = Path(tmp)
        names = []

        def write(name: str, text: str) -> None:
            (staging / name).write_text(text, encoding="utf-8")
            names.append(name)

        if "features" in artifacts:
            write("features.csv", _write_features_csv(dataset, table))
        if "ceg" in artifacts:
            write("ceg.json", graphs_to_json(ceg))
            if y_axis == "pc1":
                columns = ceg.column_index(feature_set or AST_FEATURE_NAMES)
                pc = pca(ceg.features_std[:, columns], 1)
                y_values, y_label = pc.projected[:, 0], "PC1"
                annotation = f"PC1 ({float(pc.explained_variance_ratio[0]):.2f})"
            else:
                y_values = ceg.features_raw[:, ceg.column_index([y_axis])[0]]
                y_label, annotation = y_axis, ""
            write(f"ceg_{y_axis}.svg", render_ceg(ceg, y_values, y_label, annotation))
        if "tsne" in artifacts:
            # keep the perplexity inside [1, (n - 1) / 3]
            n = len(ceg.ids)
            perplexity = min(max(args.perplexity, 1.0), max(1.0, (n - 1) / 3.0))
            embedding = tsne(
                ceg.features_std[:, ceg.column_index(feature_set or ALL_FEATURE_NAMES)],
                perplexity=perplexity,
                seed=args.seed,
                iterations=args.iterations,
            )
            if perplexity != args.perplexity:
                print(
                    f"perplexity {args.perplexity} out of range for {n} samples, "
                    f"using {perplexity:g}",
                    file=sys.stderr,
                )
            write("tsne.svg", render_tsne(ceg, embedding.coords))
        if "correlations" in artifacts:
            corr = correlation_table(ceg, feature_set or ALL_FEATURE_NAMES)
            write("correlations.csv", corr.to_csv())
            write("heatmap.svg", render_heatmap(corr))
        # os.replace cannot put a file where a directory is; finding that
        # after the first move would leave two runs' artifacts in --out
        for name in names:
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
        for name in names:
            os.replace(staging / name, out / name)
            print(f"wrote {out / name}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 0 (--help) or 2 (bad usage)
        return exc.code
    try:
        return _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
