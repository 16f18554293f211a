"""Parse Python 3 source text into a rooted syntax tree, as arrays.

The tree follows the abstract grammar of the language reference with one
documented convention: expression-context markers (Load/Store/Del) and
type-comment metadata are omitted, operator nodes (Add, And, ...) are kept.
Node ids are assigned in depth-first preorder, children visited in field
order then list order, so identical source always yields the same tree,
and each subtree is an interval of ids.
"""

from __future__ import annotations

import ast
import warnings
from dataclasses import dataclass, field


class ParseError(ValueError):
    """Source text is not valid Python 3; carries the parser diagnostic."""


# Load/Store/Del carry no structural information; TypeIgnore is comment metadata.
_OMITTED = (ast.expr_context, ast.TypeIgnore)


@dataclass(frozen=True)
class AstGraph:
    """A module's syntax tree in depth-first preorder from root 0: node v
    is the syntax node ast_nodes[v] (ast_nodes[0] is the module), parent[v]
    its parent (parent[0] is -1) and depth[v] its depth. The syntax nodes
    take no part in equality."""

    parent: list[int]
    depth: list[int]
    ast_nodes: list[ast.AST] = field(compare=False, repr=False)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    @property
    def edge_count(self) -> int:
        return len(self.parent) - 1


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
        # a warning, such as Python 3.12's for "\d" in a string, would
        # reach stderr without the sample's id, once per process
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = ast.parse(code)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ParseError(f"invalid Python source: {exc}") from exc

    syntax: list[ast.AST] = []
    parent: list[int] = []
    depth: list[int] = []
    # children are pushed last field first, last item first, so they pop
    # in field order then list order
    stack: list[tuple[ast.AST, int, int]] = [(tree, -1, 0)]
    while stack:
        node, up, level = stack.pop()
        node_id = len(syntax)
        syntax.append(node)
        parent.append(up)
        depth.append(level)
        level += 1
        for name in reversed(node._fields):
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                if not isinstance(value, _OMITTED):
                    stack.append((value, node_id, level))
            elif isinstance(value, list):
                for item in reversed(value):
                    if isinstance(item, ast.AST) and not isinstance(item, _OMITTED):
                        stack.append((item, node_id, level))

    return AstGraph(parent, depth, syntax)
