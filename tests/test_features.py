"""Combined featurization and feature-set resolution."""

import json

import pytest

from cegraph.astfeat import AST_FEATURE_NAMES
from cegraph.codemetrics import COMPLEXITY_FEATURE_NAMES, NESTING_FEATURE_NAMES
from cegraph.features import (
    ALL_FEATURE_NAMES,
    FEATURE_SETS,
    featurize,
    featurize_dataset,
    resolve_feature_set,
)
from cegraph.ingest import load_jsonl


def test_canonical_name_lists():
    assert len(AST_FEATURE_NAMES) == 22
    assert len(COMPLEXITY_FEATURE_NAMES) == 6
    assert len(ALL_FEATURE_NAMES) == 28
    assert ALL_FEATURE_NAMES == AST_FEATURE_NAMES + COMPLEXITY_FEATURE_NAMES


def test_featurize_column_order():
    row = featurize("def f(x):\n    return x\n")
    expected = ALL_FEATURE_NAMES + NESTING_FEATURE_NAMES
    assert tuple(row.keys()) == expected


def test_featurize_with_eigencentrality_appends_two_columns():
    row = featurize("x = 1\n", include_eigenvector=True)
    assert tuple(row.keys())[-2:] == ("eig_centrality_max", "eig_centrality_mean")
    assert len(row) == 32


def test_named_feature_sets():
    assert resolve_feature_set("ast22") == AST_FEATURE_NAMES
    assert resolve_feature_set("complexity6") == COMPLEXITY_FEATURE_NAMES
    assert resolve_feature_set("all28") == ALL_FEATURE_NAMES
    assert set(FEATURE_SETS) == {"ast22", "complexity6", "all28"}


def test_custom_feature_set_file(tmp_path):
    p = tmp_path / "mine.txt"
    p.write_text("# picks\nnode_count\ntoken_total\nnesting_max\n", encoding="utf-8")
    assert resolve_feature_set(f"custom:{p}") == (
        "node_count",
        "token_total",
        "nesting_max",
    )


def test_custom_feature_set_rejects_unknown_names(tmp_path):
    p = tmp_path / "mine.txt"
    p.write_text("node_count\nbogus_feature\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bogus_feature"):
        resolve_feature_set(f"custom:{p}")


def test_unknown_feature_set_name():
    with pytest.raises(ValueError, match="feature set"):
        resolve_feature_set("ast23")


def test_featurize_dataset_skips_unparsable(tmp_path):
    lines = [
        json.dumps({"id": "ok", "run_id": "r", "evaluation_index": 0,
                    "code": "x = 1\n"}),
        json.dumps({"id": "bad", "run_id": "r", "evaluation_index": 1,
                    "code": "def broken(:\n"}),
    ]
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table, failures = featurize_dataset(load_jsonl(path))
    assert table.ids == ("ok",)
    assert set(failures) == {"bad"}
    assert "invalid" in failures["bad"]
