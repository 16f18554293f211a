# Project the feature matrix two ways and render both figures.
#
# PCA gives the y axis for the per-run lineage plots (PC1 of the 22
# standardized graph features, annotated with its explained variance
# share). t-SNE places every sample from every run on a shared 2-d map of
# the 28 canonical standardized features. These are the columns the CLI
# projects. The renderers only draw: each figure takes the projection
# computed here.

from pathlib import Path

from cegraph import (
    ALL_FEATURE_NAMES,
    AST_FEATURE_NAMES,
    build_ceg,
    featurize_dataset,
    load_jsonl,
    pca,
    render_ceg,
    render_tsne,
    tsne,
    validate,
)

HERE = Path(__file__).resolve().parent
LOG = HERE.parent / "data" / "synthetic_run.jsonl"
OUT = HERE / "out"


def main():
    dataset, _ = validate(load_jsonl(LOG))
    features, _ = featurize_dataset(dataset)
    ceg = build_ceg(dataset, features)

    X = ceg.features_std[:, ceg.column_index(AST_FEATURE_NAMES)]
    print(f"PCA input: {X.shape[0]} samples x {X.shape[1]} graph features")
    res = pca(X, k=3)
    ratios = res.explained_variance_ratio
    print("PCA explained variance: "
          + "  ".join(f"PC{i + 1}={r:.3f}" for i, r in enumerate(ratios)))

    X = ceg.features_std[:, ceg.column_index(ALL_FEATURE_NAMES)]
    print(f"t-SNE input: {X.shape[0]} samples x {X.shape[1]} canonical features")
    emb = tsne(X, perplexity=12.0, seed=0, iterations=500)
    spread = emb.coords.std(axis=0)
    print(f"t-SNE spread after {emb.iterations} iterations: "
          f"sx={spread[0]:.1f} sy={spread[1]:.1f}")

    OUT.mkdir(exist_ok=True)
    # each renderer returns the SVG document as a string
    svg = render_ceg(ceg, res.projected[:, 0], "PC1",
                     annotation=f"PC1 ({ratios[0]:.2f})")
    (OUT / "ceg_pc1.svg").write_text(svg, encoding="utf-8")
    nodes = svg.count('class="node"')
    print(f"wrote {OUT / 'ceg_pc1.svg'} ({len(svg)} characters, {nodes} nodes)")

    svg = render_tsne(ceg, emb.coords)
    (OUT / "tsne.svg").write_text(svg, encoding="utf-8")
    legend = svg.count('class="legend"')
    print(f"wrote {OUT / 'tsne.svg'} ({legend} legend entries)")


if __name__ == "__main__":
    main()
