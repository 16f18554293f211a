"""Rank-correlate each feature against normalized fitness, per group.

Samples are pooled over all runs sharing a (benchmark, method, llm)
label before correlating, so the table has one row per group. The
random-search run in the bundled log was generated with code size
strictly shrinking as fitness improves, which shows up as a perfect
negative correlation on token_total. Like the CLI, the table covers the
28 canonical features.
"""

from pathlib import Path

from cegraph import (
    ALL_FEATURE_NAMES,
    build_ceg,
    correlation_table,
    featurize_dataset,
    load_jsonl,
    render_heatmap,
    spearman,
    validate,
)

HERE = Path(__file__).resolve().parent
LOG = HERE.parent / "data" / "synthetic_run.jsonl"
OUT = HERE / "out"


def main():
    # spearman() on its own: monotone transforms do not move it
    x = [3.0, 1.0, 4.0, 1.5, 9.0]
    y = [v ** 3 + 2.0 for v in x]
    print(f"spearman(x, x^3+2) = {spearman(x, y)}")

    dataset, _ = validate(load_jsonl(LOG))
    features, _ = featurize_dataset(dataset)
    ceg = build_ceg(dataset, features)

    table = correlation_table(ceg, ALL_FEATURE_NAMES)
    print(f"\n{len(table.groups)} groups x {len(table.feature_names)} features")
    for group in table.groups:
        label = "/".join(group)
        picks = {f: table.get(group, f)
                 for f in ("node_count", "cc_total", "token_total")}
        cells = "  ".join(
            f"{f}={v:+.2f}" if v is not None else f"{f}=n/a"
            for f, v in picks.items())
        print(f"  {label:<40} {cells}")

    OUT.mkdir(exist_ok=True)
    (OUT / "correlations.csv").write_text(table.to_csv(), encoding="utf-8")
    (OUT / "heatmap.svg").write_text(render_heatmap(table), encoding="utf-8")
    print(f"\nwrote {OUT / 'correlations.csv'} and {OUT / 'heatmap.svg'}")


if __name__ == "__main__":
    main()
