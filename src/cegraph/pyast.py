"""Parse Python 3 source text into a rooted syntax-tree graph.

The graph follows the abstract grammar of the language reference with one
documented convention: expression-context markers (Load/Store/Del) and
type-comment metadata are omitted, operator nodes (Add, And, ...) are kept.
Node ids are assigned in depth-first preorder, children visited in field
order then list order, so identical source always yields identical graphs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


class ParseError(ValueError):
    """Source text is not valid Python 3; carries the parser diagnostic."""


# Load/Store/Del carry no structural information; TypeIgnore is comment metadata.
_OMITTED = (ast.expr_context, ast.TypeIgnore)


@dataclass(frozen=True)
class AstGraph:
    """Rooted tree of syntax nodes.

    nodes: (node_id, kind, depth) triples.
    edges: (parent_id, child_id) pairs, directed parent -> child.
    ast_nodes: the parsed syntax nodes, ast_nodes[i] for node i, so
    ast_nodes[0] is the module; only parse_to_graph fills it (graphs built
    by hand leave it empty), and it takes no part in equality.
    """

    nodes: tuple[tuple[int, str, int], ...]
    edges: tuple[tuple[int, int], ...]
    root_id: int = 0
    ast_nodes: tuple[ast.AST, ...] = field(default=(), compare=False, repr=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def parsed(self) -> bool:
        """Whether parse_to_graph built this graph, and so labeled it: ids
        0..n-1 in depth-first preorder from root 0, edges[i - 1] joins
        node i to its parent, and ast_nodes[i] is node i."""
        return 0 < len(self.ast_nodes) == len(self.nodes)

    def kinds(self) -> list[str]:
        return [kind for _, kind, _ in self.nodes]

    def depths(self) -> list[int]:
        return [depth for _, _, depth in self.nodes]


def parse_to_graph(code: str) -> AstGraph:
    """Parse source text into its abstract-grammar tree.

    This is the one place cegraph parses source, and the one walk of the
    parsed tree: the returned graph keeps the syntax nodes in preorder in
    `ast_nodes` for the complexity metrics. Raises ParseError for
    syntactically invalid code, and for code nested too deeply for the
    parser, so batch callers can record the sample as invalid instead of
    aborting.
    """
    try:
        tree = ast.parse(code)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ParseError(f"invalid Python source: {exc}") from exc

    syntax: list[ast.AST] = []
    nodes: list[tuple[int, str, int]] = []
    edges: list[tuple[int, int]] = []
    # children are pushed last field first, last item first, so they pop
    # in field order then list order
    stack: list[tuple[ast.AST, int, int]] = [(tree, -1, 0)]
    while stack:
        node, parent_id, depth = stack.pop()
        node_id = len(nodes)
        syntax.append(node)
        nodes.append((node_id, type(node).__name__, depth))
        if parent_id >= 0:
            edges.append((parent_id, node_id))
        depth += 1
        for name in reversed(node._fields):
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                if not isinstance(value, _OMITTED):
                    stack.append((value, node_id, depth))
            elif isinstance(value, list):
                for item in reversed(value):
                    if isinstance(item, ast.AST) and not isinstance(item, _OMITTED):
                        stack.append((item, node_id, depth))

    return AstGraph(
        nodes=tuple(nodes), edges=tuple(edges), root_id=0, ast_nodes=tuple(syntax)
    )
