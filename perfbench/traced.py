"""Run `cegraph` once in this process with spans around each layer's
public functions, then write the spans as JSON.

Usage: python3 perfbench/traced.py SPANS_FILE RUN_ID -- <cegraph CLI args>

Each layer function is replaced, wherever a cegraph module has bound it,
by a wrapper that records a span (name, start, end, parent span, run id)
and, where the result carries one, a count. The CLI runs unchanged
otherwise, so sub-functions are timed inline in the same pass, not in a
second pass over the inputs. A hook whose function no longer exists is
listed under "missing" instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, function, span name, count name, count taken from the result)
HOOKS = (
    ("ingest", "load_jsonl", "ingest.load", None, None),
    ("ingest", "validate", "ingest.validate", "ingest.dropped_refs", lambda r: len(r[1])),
    ("features", "featurize_dataset", "features.featurize_dataset", "features.failed", lambda r: len(r[1])),
    ("pyast", "parse_to_graph", "pyast.parse_to_graph", "pyast.ast_nodes", lambda r: r.node_count),
    ("astfeat", "compute_graph_features", "astfeat.graph_features", None, None),
    ("codemetrics", "compute_complexity", "codemetrics.complexity", "codemetrics.tokens", lambda r: r.token_total),
    ("ceg", "build_ceg", "ceg.build", None, None),
    ("ceg", "graphs_to_json", "ceg.to_json", "ceg.json_bytes", lambda r: len(r.encode("utf-8"))),
    ("report", "render_ceg", "report.render_ceg", None, None),
    ("embed", "pca", "embed.pca", None, None),
    ("report", "render_tsne", "report.render_tsne", None, None),
    ("embed", "tsne", "embed.tsne", "embed.tsne_iterations", lambda r: r.iterations),
    ("embed", "_joint_probabilities", "embed.joint_probabilities", None, None),
    ("embed", "correlation_table", "embed.correlation_table", "embed.spearman_cells",
     lambda r: len(r.groups) * len(r.feature_names)),
    ("report", "render_heatmap", "report.render_heatmap", None, None),
    ("cli", "_write_features_csv", "cli.write", None, None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, fn, name: str, count_name=None, count=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1, self.run_id])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
            if count_name:
                self.counts[count_name] = self.counts.get(count_name, 0) + count(result)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every hook; returns the hooks whose function was not found."""
    modules = [m for name, m in list(sys.modules.items()) if name == "cegraph" or name.startswith("cegraph.")]
    missing = []
    for mod_name, fn_name, span, count_name, count in HOOKS:
        fn = getattr(sys.modules.get(f"cegraph.{mod_name}"), fn_name, None)
        if fn is None:
            missing.append(f"{mod_name}.{fn_name}")
            continue
        wrapper = tracer.wrap(fn, span, count_name, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    # every other artifact is written with Path.write_text
    Path.write_text = tracer.wrap(Path.write_text, "cli.write")
    return missing


def main(argv: list[str]) -> int:
    spans_file, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_FILE RUN_ID -- <cegraph CLI args>")
    sys.path.insert(0, str(ROOT / "src"))
    import cegraph.cli  # the package's __init__ loads every layer module

    tracer = Tracer(run_id)
    missing = install(tracer)
    start = time.perf_counter()
    code = cegraph.cli.main(cli_args)
    end = time.perf_counter()
    payload = {"run_id": run_id, "exit": code, "cli_span": [start, end], "spans": tracer.spans,
               "counts": tracer.counts, "missing": missing}
    Path(spans_file).write_bytes(json.dumps(payload).encode("utf-8"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
