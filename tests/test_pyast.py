"""Syntax-tree construction."""

import ast
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cegraph.pyast import ParseError, parse_to_graph
from synth import random_module


def kinds(g):
    return [type(node).__name__ for node in g.ast_nodes]


def subtrees(parent):
    """The ids of each node's subtree, the node first, in ascending order."""
    members = [[v] for v in range(len(parent))]
    for v in range(1, len(parent)):
        u = parent[v]
        while u >= 0:
            members[u].append(v)
            u = parent[u]
    return members


def assert_preorder_tree(g):
    n = g.node_count
    assert len(g.parent) == len(g.depth) == len(g.ast_nodes) == n
    assert g.edge_count == n - 1
    assert g.parent[0] == -1
    assert g.depth[0] == 0
    for v in range(1, n):
        assert 0 <= g.parent[v] < v  # preorder: children numbered after parents
        assert g.depth[v] == g.depth[g.parent[v]] + 1
    # each subtree is an interval of ids, as astfeat.forest_features assumes
    for v, members in enumerate(subtrees(g.parent)):
        assert members == list(range(v, v + len(members)))


def test_empty_module_is_single_node():
    g = parse_to_graph("")
    assert g.node_count == 1
    assert g.edge_count == 0
    assert (g.parent, g.depth, kinds(g)) == ([-1], [0], ["Module"])


def test_simple_assignment_structure():
    g = parse_to_graph("x = 1")
    assert g.node_count == 4
    assert g.edge_count == 3
    assert kinds(g) == ["Module", "Assign", "Name", "Constant"]
    assert g.parent == [-1, 0, 1, 1]
    assert g.depth == [0, 1, 2, 2]
    # context markers (Load/Store) must not appear
    assert "Store" not in kinds(g)


def test_function_def_structure():
    g = parse_to_graph("def f(): pass")
    assert g.node_count == 4
    assert sorted(kinds(g)) == ["FunctionDef", "Module", "Pass", "arguments"]


def test_operator_nodes_are_kept():
    g = parse_to_graph("x = 1 + 2")
    assert g.node_count == 7
    assert kinds(g) == [
        "Module", "Assign", "Name", "BinOp", "Constant", "Add", "Constant",
    ]
    assert "Load" not in kinds(parse_to_graph("y = x + 1"))


def test_preorder_ids_and_depth_recurrence():
    code = "def f(a, b):\n    if a:\n        return b\n    return a + b\n"
    assert_preorder_tree(parse_to_graph(code))


def test_every_nonroot_has_exactly_one_parent():
    g = parse_to_graph("for i in range(3):\n    print(i + 1)\n")
    assert_preorder_tree(g)
    children = [[] for _ in range(g.node_count)]
    for v in range(1, g.node_count):
        children[g.parent[v]].append(g.ast_nodes[v])
    for node, got in zip(g.ast_nodes, children):
        want = [c for c in ast.iter_child_nodes(node)
                if not isinstance(c, ast.expr_context)]
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def test_invalid_source_raises_parse_error():
    with pytest.raises(ParseError):
        parse_to_graph("def f(:\n")
    with pytest.raises(ParseError):
        parse_to_graph("x ===== 1")
    with pytest.raises(ParseError):  # RecursionError inside ast.parse
        parse_to_graph("x = " + "-" * 5000 + "1\n")


def test_parse_is_deterministic():
    code = "class A:\n    def m(self):\n        return [i for i in range(3)]\n"
    a = parse_to_graph(code)
    b = parse_to_graph(code)
    assert a == b
    assert kinds(a) == kinds(b)


def test_fuzzed_modules_form_rooted_trees():
    for seed in range(40):
        code = random_module(random.Random(seed), approx_lines=25)
        assert_preorder_tree(parse_to_graph(code))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), approx_lines=st.integers(1, 60))
def test_walk_matches_the_recursive_reference(seed, approx_lines):
    code = random_module(random.Random(seed), approx_lines)
    g = parse_to_graph(code)
    assert (kinds(g), g.parent, g.depth) == oracles.syntax_tree(code)


@pytest.mark.parametrize("code", [
    "class A(B, metaclass=M):\n    x: int = 1\n    def m(self, y=[i for i in r if i]):\n"
    "        with y as z, w:\n            return lambda q, *a, **k: not q\n",
    "def f(x):\n    match x:\n        case [a, *_] if a:\n            return a\n"
    "        case {'k': v, **rest}:\n            del v\n        case _:\n            pass\n",
    "async def g(a):\n    async with a as b:\n        async for c in b:\n"
    "            await c\n",
    "@deco(1 if a else 2)\ndef h(a, /, b, *, c=3):  # type: ignore\n"
    "    global x\n    x = f'{a!r:>{b}}'\n    return x[1:2, ...]\n",
], ids=["class", "match", "async", "decorated"])
def test_constructs_the_fuzzer_never_writes_match_the_reference(code):
    g = parse_to_graph(code)
    assert (kinds(g), g.parent, g.depth) == oracles.syntax_tree(code)
