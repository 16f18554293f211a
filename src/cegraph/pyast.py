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

    nodes: (node_id, kind, depth) triples, ids 0..n-1 in preorder.
    edges: (parent_id, child_id) pairs, directed parent -> child.
    tree: the parsed module the graph was built from (None for graphs
    built by hand); it takes no part in equality.
    """

    nodes: tuple[tuple[int, str, int], ...]
    edges: tuple[tuple[int, int], ...]
    root_id: int = 0
    tree: ast.Module | None = field(default=None, compare=False, repr=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def kinds(self) -> list[str]:
        return [kind for _, kind, _ in self.nodes]

    def depths(self) -> list[int]:
        return [depth for _, _, depth in self.nodes]


def _children(node: ast.AST) -> list[ast.AST]:
    """Child nodes in field order then list order, omitting context markers."""
    out: list[ast.AST] = []
    for _, value in ast.iter_fields(node):
        if isinstance(value, ast.AST):
            if not isinstance(value, _OMITTED):
                out.append(value)
        elif isinstance(value, list):
            out.extend(
                item
                for item in value
                if isinstance(item, ast.AST) and not isinstance(item, _OMITTED)
            )
    return out


def parse_to_graph(code: str) -> AstGraph:
    """Parse source text into its abstract-grammar tree.

    This is the one place cegraph parses source: the returned graph keeps
    the parsed module in `tree` for the complexity metrics. Raises
    ParseError for syntactically invalid code, and for code nested too
    deeply for the parser, so batch callers can record the sample as
    invalid instead of aborting.
    """
    try:
        tree = ast.parse(code)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ParseError(f"invalid Python source: {exc}") from exc

    nodes: list[tuple[int, str, int]] = []
    edges: list[tuple[int, int]] = []
    stack: list[tuple[ast.AST, int, int]] = [(tree, -1, 0)]
    while stack:
        node, parent_id, depth = stack.pop()
        node_id = len(nodes)
        nodes.append((node_id, type(node).__name__, depth))
        if parent_id >= 0:
            edges.append((parent_id, node_id))
        for child in reversed(_children(node)):
            stack.append((child, node_id, depth + 1))

    return AstGraph(nodes=tuple(nodes), edges=tuple(edges), root_id=0, tree=tree)
