"""Source-level complexity metrics: cyclomatic complexity, token counts,
parameter counts, statement nesting.

Units are function and method definitions (async and nested included); a
module without any becomes a single module-level unit. Decision points
attach to the innermost enclosing unit. Counted tokens are everything the
tokenizer emits except comments and pure layout (NL, NEWLINE, INDENT,
DEDENT, ENDMARKER, ENCODING).
"""

from __future__ import annotations

import ast
import io
import token as _token
import tokenize
from bisect import bisect_left
from dataclasses import dataclass

from .pyast import ParseError

COMPLEXITY_FEATURE_NAMES = (
    "cc_total",
    "cc_mean",
    "token_total",
    "token_mean",
    "param_total",
    "param_mean",
)

NESTING_FEATURE_NAMES = ("nesting_max", "nesting_mean")

_LAYOUT_TOKEN_TYPES = {
    _token.COMMENT,
    _token.NL,
    _token.NEWLINE,
    _token.INDENT,
    _token.DEDENT,
    _token.ENDMARKER,
    _token.ENCODING,
}

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

_BRANCH_NODES = (ast.If, ast.While, ast.For, ast.AsyncFor, ast.IfExp, ast.ExceptHandler)

# compound statements that open a nesting level for the statements inside
_NESTING_NODES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.If,
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
    ast.Match,
) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())


@dataclass(frozen=True)
class ComplexityMetrics:
    cc_total: int
    cc_mean: float
    token_total: int
    token_mean: float
    param_total: int
    param_mean: float
    nesting_max: int
    nesting_mean: float

    def as_dict(self) -> dict[str, float]:
        names = COMPLEXITY_FEATURE_NAMES + NESTING_FEATURE_NAMES
        return {name: float(getattr(self, name)) for name in names}


def _decision_increment(node: ast.AST) -> int:
    """Cyclomatic contribution of one syntax node."""
    if isinstance(node, _BRANCH_NODES):
        return 1
    if isinstance(node, ast.comprehension):
        return 1 + len(node.ifs)
    if isinstance(node, ast.BoolOp):
        return len(node.values) - 1
    if isinstance(node, ast.Match):
        return max(len(node.cases) - 1, 0)
    return 0


def _iter_unit_body(unit: ast.AST):
    """Descendants of a unit, not descending into nested function defs."""
    stack = list(ast.iter_child_nodes(unit))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNC_NODES):
            stack.extend(ast.iter_child_nodes(node))


def _cyclomatic(unit: ast.AST) -> int:
    return 1 + sum(_decision_increment(node) for node in _iter_unit_body(unit))


def counted_tokens(code: str) -> list[tokenize.TokenInfo]:
    """Tokens of the source with comments and layout tokens removed."""
    try:
        stream = tokenize.generate_tokens(io.StringIO(code).readline)
        toks = list(stream)
    except (tokenize.TokenError, IndentationError, SyntaxError) as exc:
        raise ParseError(f"cannot tokenize source: {exc}") from exc
    return [t for t in toks if t.type not in _LAYOUT_TOKEN_TYPES]


def _unit_token_count(tokens, starts, unit: ast.AST) -> int:
    """Tokens lexically inside a unit, from its `def` keyword through the
    last token of its body. For async defs the leading `async` is skipped."""
    lo = bisect_left(starts, (unit.lineno, unit.col_offset))
    while lo < len(tokens) and tokens[lo].string != "def":
        lo += 1
    hi = bisect_left(starts, (unit.end_lineno, unit.end_col_offset))
    return hi - lo


def _param_count(unit: ast.AST) -> int:
    a = unit.args
    count = len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
    if a.vararg is not None:
        count += 1
    if a.kwarg is not None:
        count += 1
    return count


def _statement_depths(tree: ast.Module) -> list[int]:
    """Nesting depth of every statement: how many compound statements
    enclose it (module level = 0)."""
    depths: list[int] = []
    stack: list[tuple[ast.AST, int]] = [(tree, 0)]
    while stack:
        node, level = stack.pop()
        child_level = level + 1 if isinstance(node, _NESTING_NODES) else level
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                depths.append(child_level)
            stack.append((child, child_level))
    return depths


def compute_complexity(code: str) -> ComplexityMetrics:
    """Compute complexity metrics for one module of source text.

    Raises ParseError on syntactically invalid input and on input nested
    too deeply for the parser.
    """
    try:
        tree = ast.parse(code)
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ParseError(f"invalid Python source: {exc}") from exc
    tokens = counted_tokens(code)
    starts = [t.start for t in tokens]

    units = [node for node in ast.walk(tree) if isinstance(node, _FUNC_NODES)]
    token_total = len(tokens)

    if units:
        ccs = [_cyclomatic(u) for u in units]
        unit_tokens = [_unit_token_count(tokens, starts, u) for u in units]
        params = [_param_count(u) for u in units]
        cc_total = sum(ccs)
        cc_mean = cc_total / len(units)
        token_mean = sum(unit_tokens) / len(units)
        param_total = sum(params)
        param_mean = param_total / len(units)
    else:
        # the whole module is the single unit
        cc_total = _cyclomatic(tree)
        cc_mean = float(cc_total)
        token_mean = float(token_total)
        param_total = 0
        param_mean = 0.0

    depths = _statement_depths(tree)
    nesting_max = max(depths) if depths else 0
    nesting_mean = sum(depths) / len(depths) if depths else 0.0

    return ComplexityMetrics(
        cc_total=cc_total,
        cc_mean=cc_mean,
        token_total=token_total,
        token_mean=token_mean,
        param_total=param_total,
        param_mean=param_mean,
        nesting_max=nesting_max,
        nesting_mean=nesting_mean,
    )
