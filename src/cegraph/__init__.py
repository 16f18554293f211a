"""Code evolution graphs for LLM-driven algorithm design runs.

Reconstructs how generated code changes over an evolutionary run: parses
each sample into a syntax-tree graph, extracts structural and complexity
features, assembles lineage graphs with normalized fitness, and renders
projections, correlation tables and figures linking structure to fitness.
"""

from .astfeat import (
    AST_FEATURE_NAMES,
    EIG_FEATURE_NAMES,
    compute_graph_features,
)
from .ceg import CegNode, EvolutionGraph, build_ceg, graphs_to_json
from .codemetrics import (
    COMPLEXITY_FEATURE_NAMES,
    NESTING_FEATURE_NAMES,
    ComplexityMetrics,
    compute_complexity,
)
from .embed import (
    CorrelationTable,
    PcaResult,
    TsneResult,
    correlation_table,
    kl_divergence_and_grad,
    pca,
    spearman,
    tsne,
)
from .features import (
    ALL_FEATURE_NAMES,
    FEATURE_SETS,
    FeatureTable,
    featurize,
    featurize_dataset,
    resolve_feature_set,
)
from .ingest import (
    CodeSample,
    Dataset,
    SchemaError,
    ValidationError,
    Violation,
    dump_jsonl,
    load_jsonl,
    validate,
)
from .pyast import AstGraph, ParseError, parse_to_graph
from .report import render_ceg, render_heatmap, render_tsne

__version__ = "0.1.0"

__all__ = [
    "AST_FEATURE_NAMES",
    "ALL_FEATURE_NAMES",
    "COMPLEXITY_FEATURE_NAMES",
    "EIG_FEATURE_NAMES",
    "FEATURE_SETS",
    "NESTING_FEATURE_NAMES",
    "AstGraph",
    "CegNode",
    "CodeSample",
    "ComplexityMetrics",
    "CorrelationTable",
    "Dataset",
    "EvolutionGraph",
    "FeatureTable",
    "ParseError",
    "PcaResult",
    "SchemaError",
    "TsneResult",
    "ValidationError",
    "Violation",
    "build_ceg",
    "compute_complexity",
    "compute_graph_features",
    "correlation_table",
    "dump_jsonl",
    "featurize",
    "featurize_dataset",
    "graphs_to_json",
    "kl_divergence_and_grad",
    "load_jsonl",
    "parse_to_graph",
    "pca",
    "render_ceg",
    "render_heatmap",
    "render_tsne",
    "resolve_feature_set",
    "spearman",
    "tsne",
    "validate",
]
