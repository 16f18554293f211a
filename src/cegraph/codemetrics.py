"""Source-level complexity metrics: cyclomatic complexity, token counts,
parameter counts, statement nesting.

Units are function and method definitions (async and nested included); a
module without any becomes a single module-level unit. Decision points
attach to the innermost enclosing unit. Counted tokens are everything the
tokenizer emits except comments and pure layout (NL, NEWLINE, INDENT,
DEDENT, ENDMARKER, ENCODING).

compute_complexity takes the module already parsed by parse_to_graph (in
AstGraph.tree) and computes every metric in one walk of it with an
explicit stack, plus one tokenizer pass over the source. Each stack entry
carries its node, the index of its innermost enclosing unit (-1 at module
level) and its statement-nesting level.
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


def compute_complexity(tree: ast.Module, code: str) -> ComplexityMetrics:
    """Compute complexity metrics for one module: `tree` is the module
    parsed from the source text `code` (AstGraph.tree).

    Raises ParseError if the tokenizer rejects the source.
    """
    tokens = counted_tokens(code)
    starts = [t.start for t in tokens]

    module_cc = 1  # counts only when the module has no units
    ccs: list[int] = []  # per unit
    unit_tokens: list[int] = []
    param_total = 0
    depths: list[int] = []  # per statement: enclosing compound statements
    stack: list[tuple[ast.AST, int, int]] = [(tree, -1, 0)]
    while stack:
        node, unit, level = stack.pop()
        if isinstance(node, _FUNC_NODES):
            unit = len(ccs)
            ccs.append(1)
            unit_tokens.append(_unit_token_count(tokens, starts, node))
            param_total += _param_count(node)
        elif unit >= 0:
            ccs[unit] += _decision_increment(node)
        else:
            module_cc += _decision_increment(node)
        if isinstance(node, _NESTING_NODES):
            level += 1
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                depths.append(level)
            stack.append((child, unit, level))

    token_total = len(tokens)
    if ccs:
        cc_total = sum(ccs)
        cc_mean = cc_total / len(ccs)
        token_mean = sum(unit_tokens) / len(ccs)
        param_mean = param_total / len(ccs)
    else:
        # the whole module is the single unit
        cc_total = module_cc
        cc_mean = float(cc_total)
        token_mean = float(token_total)
        param_mean = 0.0

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
