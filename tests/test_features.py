"""Combined featurization and feature-set resolution."""

import ast
import json
import random

import oracles
from synth import random_module
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cegraph.pyast import ParseError


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


def test_featurize_parses_each_sample_once(monkeypatch):
    calls = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls.append(args)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    for code in ("", "x = 1\n", random_module(random.Random(5), approx_lines=40)):
        calls.clear()
        featurize(code, include_eigenvector=True)
        assert len(calls) == 1


def test_featurize_walks_the_tree_once(monkeypatch):
    # parse_to_graph's walk is the only one: no helper walks the tree again
    calls = []

    def counted(helper):
        def wrapper(*args, **kwargs):
            calls.append(helper.__name__)
            return helper(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ast, "walk", counted(ast.walk))
    monkeypatch.setattr(ast, "iter_child_nodes", counted(ast.iter_child_nodes))
    for code in ("", "x = 1\n", *HAND_WRITTEN, random_module(random.Random(5), 40)):
        featurize(code, include_eigenvector=True)
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), approx_lines=st.integers(1, 60))
def test_complexity_and_nesting_columns_match_oracles(seed, approx_lines):
    code = random_module(random.Random(seed), approx_lines)
    row = featurize(code)
    want = oracles.complexity_six(code) | oracles.nesting_two(code)
    assert {name: row[name] for name in want} == want


# constructs random_module never writes: classes, match, with, async,
# except*, decorators, default values, lambdas
HAND_WRITTEN = [
    "class A:\n    x = 1 if b else 2\n    def m(self, y=[i for i in r if i]):\n"
    "        with y as z:\n            return z\n",
    "def f(x):\n    match x:\n        case 1:\n            return 1\n"
    "        case [a, *_] if a:\n            return a\n        case _:\n            pass\n",
    "async def g(a):\n    async with a as b:\n        async for c in b:\n"
    "            await c\n",
    # except* parses from Python 3.11 on, where ast.TryStar appeared
    *(["try:\n    pass\nexcept* ValueError:\n    if a or b:\n        pass\n"]
      if hasattr(ast, "TryStar") else []),
    "@deco(1 if a else 2)\ndef outer():\n    def inner(y=1 if z else 2):\n"
    "        return y and z\n    return inner\n",
    "f = lambda x: x if x else 0\nclass B:\n    class C:\n        pass\n",
]


@pytest.mark.parametrize("code", HAND_WRITTEN)
def test_hand_written_constructs_match_oracles(code):
    row = featurize(code)
    want = oracles.complexity_six(code) | oracles.nesting_two(code)
    assert {name: row[name] for name in want} == want


# characters that reach the parser's and tokenizer's corner cases
_SOURCE_CHARS = (
    st.sampled_from(list("()[]{}:;,.=+-*/@#'\"\\ \t\n\r\x00\x0c")) | st.characters()
)


@st.composite
def mutated_sources(draw):
    """A fuzzed module truncated at any offset, then optionally with a short
    text inserted or a span deleted; or arbitrary short text."""
    if draw(st.booleans()):
        return draw(st.text(_SOURCE_CHARS, max_size=30))
    code = random_module(random.Random(draw(st.integers(0, 2**32 - 1))),
                         draw(st.integers(1, 25)))
    code = code[: draw(st.integers(0, len(code)))]
    at = draw(st.integers(0, len(code)))
    edit = draw(st.sampled_from(["none", "insert", "delete"]))
    if edit == "insert":
        text = draw(st.text(_SOURCE_CHARS, min_size=1, max_size=8))
        code = code[:at] + text + code[at:]
    elif edit == "delete":
        code = code[:at] + code[draw(st.integers(at, min(len(code), at + 20))):]
    return code


@settings(max_examples=600, deadline=None)
@given(code=mutated_sources())
def test_mutated_source_gives_features_or_parse_error(code):
    try:
        row = featurize(code)
    except ParseError:
        return
    assert tuple(row) == ALL_FEATURE_NAMES + NESTING_FEATURE_NAMES
