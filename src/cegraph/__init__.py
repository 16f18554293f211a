"""Code evolution graphs for LLM-driven algorithm design runs.

Reconstructs how generated code changes over an evolutionary run: parses
each sample into a syntax-tree graph, extracts structural and complexity
features, assembles lineage graphs with normalized fitness, and renders
projections, correlation tables and figures linking structure to fitness.

`import cegraph` loads no layer and no numpy: each public name imports its
module the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {
    name: module
    for module, names in (
        ("astfeat", ("AST_FEATURE_NAMES", "EIG_FEATURE_NAMES", "compute_graph_features")),
        ("ceg", ("CegTable", "build_ceg", "graphs_to_json")),
        ("codemetrics", ("COMPLEXITY_FEATURE_NAMES", "NESTING_FEATURE_NAMES",
                         "ComplexityMetrics", "compute_complexity")),
        ("embed", ("CorrelationTable", "PcaResult", "TsneResult", "correlation_table",
                   "kl_divergence_and_grad", "pca", "spearman", "tsne")),
        ("features", ("ALL_FEATURE_NAMES", "FEATURE_SETS", "FeatureTable", "featurize",
                      "featurize_dataset", "resolve_feature_set")),
        ("ingest", ("CodeSample", "Dataset", "SchemaError", "ValidationError", "Violation",
                    "dump_jsonl", "load_jsonl", "validate")),
        ("pyast", ("AstGraph", "ParseError", "parse_to_graph")),
        ("report", ("render_ceg", "render_heatmap", "render_tsne")),
    )
    for name in names
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
