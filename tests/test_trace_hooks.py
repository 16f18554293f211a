"""The benchmark's per-layer trace hooks name functions that exist.

perfbench/traced.py lists a missing hook instead of failing the run, so a
renamed layer function would silently empty its per-layer metric. This
test loads the hook table (the module does nothing on import) and checks
every (module, function) pair against cegraph, and that every count reads
an int from its function's result on the bundled log.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from cegraph.ceg import build_ceg, graphs_to_json
from cegraph.codemetrics import compute_complexity
from cegraph.embed import correlation_table, tsne
from cegraph.features import featurize_dataset
from cegraph.ingest import load_jsonl, validate
from cegraph.pyast import parse_to_graph

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def load_hooks(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as is
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_every_trace_hook_resolves(monkeypatch):
    hooks = load_hooks(monkeypatch)
    assert hooks
    missing = [
        f"{mod_name}.{fn_name}"
        for mod_name, fn_name, *_ in hooks
        if not callable(getattr(importlib.import_module(f"cegraph.{mod_name}"), fn_name, None))
    ]
    assert missing == []


def results_on_the_bundled_log():
    """The result of each counted hook's function, keyed by (module,
    function), as the pipeline's steps give them on the bundled log."""
    dataset = load_jsonl(ROOT / "data" / "synthetic_run.jsonl")
    validated = validate(dataset)
    featurized = featurize_dataset(validated[0])
    ceg = build_ceg(validated[0], featurized[0])
    code = dataset.samples[0].code
    graph = parse_to_graph(code)
    return {
        ("ingest", "validate"): validated,
        ("features", "featurize_dataset"): featurized,
        ("pyast", "parse_to_graph"): graph,
        ("codemetrics", "compute_complexity"): compute_complexity(graph, code),
        ("ceg", "graphs_to_json"): graphs_to_json(ceg),
        ("embed", "tsne"): tsne(ceg.features_std, perplexity=10.0, iterations=50),
        ("embed", "correlation_table"): correlation_table(ceg),
    }


def test_every_trace_count_reads_its_result(monkeypatch):
    # a count that no longer fits its function's result would crash a
    # traced benchmark run; here it fails first
    results = results_on_the_bundled_log()
    counted = {}
    for mod_name, fn_name, _, count_name, count in load_hooks(monkeypatch):
        if count is not None:
            value = count(results[mod_name, fn_name])
            assert type(value) is int, count_name
            counted[count_name] = value
    assert len(counted) == len(results)
    assert counted["pyast.ast_nodes"] > 0 and counted["codemetrics.tokens"] > 0
    assert counted["embed.tsne_iterations"] == 50
