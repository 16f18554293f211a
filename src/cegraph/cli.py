"""Command line interface.

Subcommands: extract (features.csv), ceg (ceg.json + lineage figure),
tsne (tsne.svg), correlate (correlations.csv + heatmap.svg), pipeline
(all of the above). Exit codes: 0 success, 1 schema/validation failure,
2 I/O error, bad usage, out of memory or a t-SNE worker process that died.
A run writes its files only once every one of them is built.
"""

from __future__ import annotations

import argparse
import csv
import errno
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .astfeat import AST_FEATURE_NAMES, EIG_FEATURE_NAMES
from .ceg import build_ceg, feature_columns, graphs_to_json
from .embed import correlation_table, pca, tsne
from .features import ALL_FEATURE_NAMES, featurize_dataset, resolve_feature_set
from .ingest import ValidationError, load_jsonl, validate
from .report import render_ceg, render_heatmap, render_tsne

_META_COLUMNS = (
    "id",
    "name",
    "run_id",
    "method",
    "llm",
    "benchmark",
    "evaluation_index",
    "fitness_raw",
)


# flag -> argparse keywords
OPTIONS = {
    "--input": dict(required=True, help="run log (JSONL)"),
    "--out": dict(default="out", help="output directory"),
    "--policy": dict(
        choices=("strict", "drop-dangling-edges"),
        default="strict",
        help="lineage validation policy",
    ),
    "--include-eigencentrality": dict(
        action="store_true",
        help="also compute eigenvector centrality features",
    ),
    "--normalize": dict(choices=("minmax", "none"), default="minmax"),
    "--direction": dict(choices=("maximize", "minimize"), default="maximize"),
    "--norm-scope": dict(choices=("group", "run", "global"), default="group"),
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


def _write_features_csv(dataset, table, path: Path, with_eig: bool) -> None:
    """Metadata plus the 28 canonical feature columns in fixed order
    (plus the two eigenvector-centrality columns when enabled)."""
    row_of = table.row_of()
    rows = [s for s in dataset.samples if s.id in row_of]
    feature_names = list(ALL_FEATURE_NAMES)
    if with_eig:
        feature_names += list(EIG_FEATURE_NAMES)
    cols = [table.names.index(name) for name in feature_names]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(_META_COLUMNS) + feature_names)
        for s in rows:
            meta = [getattr(s, column) for column in _META_COLUMNS[:-1]]
            meta.append("" if s.fitness_raw is None else repr(s.fitness_raw))
            feats = [repr(v) for v in table.values[row_of[s.id], cols].tolist()]
            writer.writerow(meta + feats)


def _y_axis(spelling: str, names) -> str:
    """The lineage figure's y axis: "pc1" or one of the feature names."""
    name = {"pc1": "pc1", "tokens": "token_total"}.get(spelling)
    if name is None and spelling.startswith("feature:"):
        name = spelling[len("feature:"):]
        if name not in names:
            raise ValueError(f"unknown y-axis feature {name!r}")
    if name is None:
        raise ValueError(f"unknown y-axis {spelling!r}; use pc1, tokens or feature:<name>")
    return name


def _standardized(graphs, names) -> np.ndarray:
    """Projection input: the named standardized feature columns, one row
    per node in graph order."""
    _, cols = feature_columns(graphs, names)
    return np.array([n.features_std[cols] for g in graphs for n in g.nodes])


def _run(args) -> int:
    """Load, validate and featurize the log, check the feature names and
    projection flags, build the evolution graphs if a selected artifact
    needs them, then write the selected artifacts in order to a staging
    directory inside --out. Only after the last one are they moved into
    --out and listed on stdout: a run that fails leaves --out as it was."""
    artifacts = SUBCOMMANDS[args.command][2]
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
    y_axis = _y_axis(args.y_axis, table.names)
    feature_set = (
        resolve_feature_set(args.feature_set, table.names) if args.feature_set else None
    )
    if "tsne" in artifacts:
        if args.iterations < 1:
            raise ValueError(f"--iterations must be positive, got {args.iterations}")
        if math.isnan(args.perplexity):
            raise ValueError("--perplexity must be a number, got nan")
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if not table.ids and "features" in artifacts:
        raise ValidationError("no sample produced a feature vector")
    if artifacts != ("features",):
        graphs = build_ceg(
            dataset,
            table,
            normalize=args.normalize,
            direction=args.direction,
            norm_scope=args.norm_scope,
        )
        if not graphs:
            raise ValidationError("no evolution graphs could be built")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".cegraph-", dir=out) as tmp:
        staging = Path(tmp)
        names = []

        def write(name: str, text: str) -> None:
            (staging / name).write_text(text, encoding="utf-8")
            names.append(name)

        if "features" in artifacts:
            _write_features_csv(
                dataset, table, staging / "features.csv", args.include_eigencentrality
            )
            names.append("features.csv")
        if "ceg" in artifacts:
            write("ceg.json", graphs_to_json(graphs))
            if y_axis == "pc1":
                pc = pca(_standardized(graphs, feature_set or AST_FEATURE_NAMES), 1)
                y_values, y_label = pc.projected[:, 0], "PC1"
                annotation = f"PC1 ({float(pc.explained_variance_ratio[0]):.2f})"
            else:
                col = table.names.index(y_axis)
                y_values = [n.features_raw[col] for g in graphs for n in g.nodes]
                y_label, annotation = y_axis, ""
            write(f"ceg_{y_axis}.svg", render_ceg(graphs, y_values, y_label, annotation).svg)
        if "tsne" in artifacts:
            # keep the perplexity inside [1, (n - 1) / 3]
            n = sum(g.node_count for g in graphs)
            perplexity = min(max(args.perplexity, 1.0), max(1.0, (n - 1) / 3.0))
            embedding = tsne(
                _standardized(graphs, feature_set or ALL_FEATURE_NAMES),
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
            write("tsne.svg", render_tsne(graphs, embedding.coords).svg)
        if "correlations" in artifacts:
            corr = correlation_table(graphs, feature_set or ALL_FEATURE_NAMES)
            write("correlations.csv", corr.to_csv())
            write("heatmap.svg", render_heatmap(corr).svg)
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
    except SystemExit as exc:
        if exc.code is None:
            return 0
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return 2
    try:
        return _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # the t-SNE worker process died, for example killed for memory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
