"""Load the bundled synthetic run log, featurize every sample and build
the evolution graphs of its runs as one table.

Each node (a row of the table) carries the raw feature vector, a
population-standardized copy and a fitness value normalized per
(benchmark, method) group. Each run is a range of rows, and the edges,
two arrays of rows, follow parent references recorded by the generator.
"""

import json
from pathlib import Path

import numpy as np

from cegraph import build_ceg, featurize_dataset, graphs_to_json, load_jsonl, validate

HERE = Path(__file__).resolve().parent
LOG = HERE.parent / "data" / "synthetic_run.jsonl"
OUT = HERE / "out"


def main():
    dataset = load_jsonl(LOG)
    dataset, violations = validate(dataset)
    print(f"loaded {len(dataset)} samples, {len(violations)} lineage violations")

    features, failures = featurize_dataset(dataset)
    if failures:
        print(f"skipped {len(failures)} unparsable samples")

    ceg = build_ceg(dataset, features)
    edge_bounds = ceg.edge_bounds()
    for r, (run_id, key) in enumerate(zip(ceg.run_ids, ceg.group_keys)):
        rows = slice(ceg.run_bounds[r], ceg.run_bounds[r + 1])
        missing = int(np.isnan(ceg.fitness_norm[rows]).sum())
        best = np.nanmax(ceg.fitness_norm[rows])
        print(f"run {run_id:<10} group={'/'.join(key):<38} "
              f"nodes={rows.stop - rows.start:<3} "
              f"edges={edge_bounds[r + 1] - edge_bounds[r]:<3} "
              f"best_norm={best:.2f} missing={missing}")

    OUT.mkdir(exist_ok=True)
    path = OUT / "ceg.json"
    path.write_text(graphs_to_json(ceg), encoding="utf-8")
    payload = json.loads(path.read_text(encoding="utf-8"))
    print(f"\nwrote {path} ({len(payload['graphs'])} runs)")


if __name__ == "__main__":
    main()
