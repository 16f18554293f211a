"""Syntax-tree graph construction."""

import random

import pytest

from cegraph.pyast import AstGraph, ParseError, parse_to_graph
from synth import random_module


def test_empty_module_is_single_node():
    g = parse_to_graph("")
    assert g.node_count == 1
    assert g.edge_count == 0
    assert g.nodes[0] == (0, "Module", 0)


def test_simple_assignment_structure():
    g = parse_to_graph("x = 1")
    assert g.node_count == 4
    assert g.edge_count == 3
    assert g.kinds() == ["Module", "Assign", "Name", "Constant"]
    assert g.depths() == [0, 1, 2, 2]
    # context markers (Load/Store) must not appear
    assert "Store" not in g.kinds()


def test_function_def_structure():
    g = parse_to_graph("def f(): pass")
    assert g.node_count == 4
    assert sorted(g.kinds()) == ["FunctionDef", "Module", "Pass", "arguments"]


def test_operator_nodes_are_kept():
    g = parse_to_graph("x = 1 + 2")
    assert g.node_count == 7
    assert g.kinds() == [
        "Module", "Assign", "Name", "BinOp", "Constant", "Add", "Constant",
    ]


def test_preorder_ids_and_depth_recurrence():
    code = "def f(a, b):\n    if a:\n        return b\n    return a + b\n"
    g = parse_to_graph(code)
    depth = {i: d for i, _, d in g.nodes}
    for p, c in g.edges:
        assert c > p  # preorder: children numbered after parents
        assert depth[c] == depth[p] + 1
    assert depth[g.root_id] == 0


def test_every_nonroot_has_exactly_one_parent():
    g = parse_to_graph("for i in range(3):\n    print(i)\n")
    seen = {}
    for p, c in g.edges:
        assert c not in seen
        seen[c] = p
    assert set(seen) == {i for i, _, _ in g.nodes} - {g.root_id}


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


def test_fuzzed_modules_form_rooted_trees():
    for seed in range(40):
        code = random_module(random.Random(seed), approx_lines=25)
        g = parse_to_graph(code)
        assert g.edge_count == g.node_count - 1
        depth = {i: d for i, _, d in g.nodes}
        for p, c in g.edges:
            assert depth[c] == depth[p] + 1
            assert c > p


def test_only_parsed_graphs_are_marked_parsed():
    g = parse_to_graph("x = [i for i in range(3)]\n")
    assert g.parsed
    assert len(g.ast_nodes) == g.node_count
    by_hand = AstGraph(nodes=g.nodes, edges=g.edges)
    assert not by_hand.parsed
    assert by_hand == g  # the syntax nodes take no part in equality
    assert not AstGraph(nodes=(), edges=()).parsed
