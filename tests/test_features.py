"""Combined featurization and feature-set resolution."""

import ast
import json
import random
from collections import Counter

import oracles
from synth import random_module
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cegraph import features
from cegraph.astfeat import AST_FEATURE_NAMES, compute_graph_features
from cegraph.codemetrics import (
    COMPLEXITY_FEATURE_NAMES,
    NESTING_FEATURE_NAMES,
    compute_complexity,
)
from cegraph.features import (
    ALL_FEATURE_NAMES,
    FEATURE_SETS,
    featurize,
    featurize_dataset,
    resolve_feature_set,
)
from cegraph.ingest import CodeSample, Dataset, load_jsonl
from cegraph.pyast import ParseError, parse_to_graph


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


def _dataset(codes):
    return Dataset(tuple(CodeSample(f"s{i}", f"s{i}", "r", "", "", "", i, (), None, code)
                         for i, code in enumerate(codes)))


def test_featurize_dataset_parses_each_distinct_chunk_once_per_call(monkeypatch):
    parsed = []
    real = features.parse_to_graph

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(features, "parse_to_graph", counting)
    parent = random_module(random.Random(8), 30)
    child = parent + "def g(a):\n    return a\n"
    cut = parent + "def g(a):\n    return (a,\n"  # a last statement cut short
    dataset = _dataset([parent, child, parent, cut, child])
    # every statement of parent occurs at least 4 times, so each is a chunk
    # of its own; the cut sample's chunks do not all parse, so its whole
    # code is parsed too
    want = [*features._statements(parent), "def g(a):\n    return a\n",
            "def g(a):\n    return (a,\n", cut]
    for _ in range(2):  # the second call starts with an empty memo
        parsed.clear()
        table, failures = features.featurize_dataset(dataset)
        assert sorted(parsed) == sorted(set(want))
        assert table.ids == ("s0", "s1", "s2", "s4") and list(failures) == ["s3"]


def test_statements_seen_once_join_into_one_chunk():
    once = ["a = 1\n", "@d\ndef f():\n    pass\n", "b = 2\n"]
    shared = ["x = 1\n", "class C:\n    pass\n"]
    code = once[0] + shared[0] + once[1] + once[2] + shared[1] + shared[0]
    counts = Counter(features._statements(code) + shared)
    assert features._chunks(code, counts) == [
        once[0], shared[0], once[1] + once[2], shared[1], shared[0]]


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


def _hex_row(code, include_eigenvector, featurizer):
    """featurizer's row as float.hex strings, or its ParseError's text."""
    try:
        row = featurizer(code, include_eigenvector)
    except ParseError as exc:
        return str(exc)
    assert tuple(row) == features._column_names(include_eigenvector)
    return [value.hex() for value in row.values()]


def one_chunk(code, include_eigenvector):
    """The features of code parsed whole, with no split."""
    graph = parse_to_graph(code)
    values = (compute_graph_features(graph, include_eigenvector).as_dict()
              | compute_complexity(graph, code).as_dict())
    return {name: values[name] for name in features._column_names(include_eigenvector)}


def split_featurize(code, include_eigenvector):
    """featurize_dataset's row for code in a log that holds it twice, so
    that each of its statements is a chunk of its own."""
    table, failures = featurize_dataset(_dataset([code, code]), include_eigenvector)
    if failures:
        raise ParseError(failures["s0"])
    return dict(zip(table.names, table.values[0].tolist()))


def assert_same_as_one_chunk(code):
    for include_eigenvector in (False, True):
        want = _hex_row(code, include_eigenvector, one_chunk)
        assert _hex_row(code, include_eigenvector, split_featurize) == want
        assert _hex_row(code, include_eigenvector, featurize) == want


# statements that a split at column-0 lines could get wrong
_TRAPS = (
    "@deco\ndef dec{k}(a):\n    return a\n",
    "@deco(1)\n# between\n\n@other.attr\nclass C{k}:\n    x = 1\n",
    "@deco\n",  # no def below
    "if a:\n    b = 1\nelif c:\n    b = 2\nelse:\n    b = 3\n",
    "try:\n    a = 1\nexcept ValueError:\n    a = 2\nelse:\n    a = 3\nfinally:\n    a = 4\n",
    "for i in r:\n    pass\nelse:\n    b = 1\n",
    'doc = """\nx = 1\n"""\n',
    "t = 1 + \\\n2\n",
    "u = [\n1,\n]\n",
    "\\\n",
    "a = 1; b = 2\n",
    "from __future__ import annotations\n",
    "from __future__ import barry_as_FLUFL\n",
    "x = 1 <> 2\n",
    "x = 1 != 2\n",
    "def f{k}():\n    a = 1\n# a column-0 comment in the body\n    return a\n",
    "# comment\n\n",
    "  x = 1\n",
)


@st.composite
def split_traps(draw):
    """A fuzzed module with traps inserted, mostly between top-level
    statements; then optionally given CRLF line ends or a lone carriage
    return, or cut short."""
    lines = random_module(random.Random(draw(st.integers(0, 2**32 - 1))),
                          draw(st.integers(1, 30))).splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 5))):
        tops = [i for i, line in enumerate(lines + ["x"])
                if not line[0].isspace() and not line.startswith(("else", "except"))]
        at = draw(st.sampled_from(tops) if draw(st.integers(0, 4)) else st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(_TRAPS)).replace("{k}", str(at)))
    code = "".join(lines)
    change = draw(st.sampled_from(["none", "none", "crlf", "cr", "cut"]))
    if change == "crlf":
        code = code.replace("\n", "\r\n")
    elif change == "cr":
        at = draw(st.integers(0, len(code)))
        code = code[:at] + "\r" + code[at:]
    elif change == "cut":
        code = code[: draw(st.integers(0, len(code)))]
    return code


@settings(max_examples=300, deadline=None)
@given(code=split_traps() | mutated_sources())
def test_chunked_featurize_equals_the_one_chunk_path(code):
    assert "".join(features._statements(code)) == code
    assert_same_as_one_chunk(code)


@pytest.mark.parametrize("code", [
    "@staticmethod\ndef f(x):\n    return x\ny = 1\n",
    "@dataclass\n# note\n@other(1)\nclass A:\n    x: int = 0\nz = A()\n",
    "x = 1\n@deco\n",
    "if a:\n    b = 1\nelse:\n    b = 2\nc = b\n",
    "try:\n    a = 1\nexcept ValueError:\n    a = 2\nfinally:\n    b = 3\nc = 4\n",
    "try:\n    a = 1\nexcept:\n    a = 2\nc = 4\n",
    'x = 1\ndoc = """\ny = 2\n"""\nz = 3\n',
    "x = 1 + \\\n2\ny = 3\n",
    "x = 1 \\\ny = 2\n",
    "x = 1\n\\\ny = 2\n",
    "a = 1; b = 2\nc = 3\n",
    "def f():\r\n    return 1\r\nx = f()\r\n",
    "# note\rdef g(a):\n    return a\nx = 1\n",
    "from __future__ import barry_as_FLUFL\nx = 1 != 2\n",
    "from __future__ import barry_as_FLUFL\nx = 1 <> 2\n",
    "x = 1\ndef f(a):\n    return g(\n",
    "x = 1\ndef f(a):\n    retu",
    "  x = 1\ny = 2\n",
    "x = [\n1,\n]\ny = 2\n",
], ids=[
    "decorated-def", "decorated-class", "dangling-decorator", "else", "except-finally",
    "bare-except", "triple-quoted-string", "backslash-continuation",
    "backslash-before-statement", "backslash-line", "semicolon", "crlf", "lone-cr",
    "barry-ne", "barry-diamond", "cut-in-brackets", "cut-in-name", "starts-indented",
    "brackets",
])
def test_split_traps_give_the_whole_module_result(code):
    assert_same_as_one_chunk(code)
