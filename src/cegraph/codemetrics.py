"""Source-level complexity metrics: cyclomatic complexity, token counts,
parameter counts, statement nesting.

Units are function and method definitions (async and nested included); a
module without any becomes a single module-level unit. Decision points
attach to the innermost enclosing unit. Counted tokens are the lexemes that
Python 3.11's tokenize module reports, except comments and pure layout
(NL, NEWLINE, INDENT, DEDENT, ENDMARKER, ENCODING): names, numbers,
strings, operators and stray characters. An f-string is one token, as it
is to tokenize before Python 3.12, so for sources that Python 3.11 parses
the count does not depend on the interpreter. Python 3.12 also parses
f-strings that reuse their own quote inside a replacement field, or whose
replacement fields span lines; the scanner reads those by the 3.11 string
rules and miscounts them.

compute_complexity reads the syntax nodes that parse_to_graph keeps in
preorder (AstGraph.ast_nodes) in one flat loop: each node takes its
innermost unit and its statement-nesting level from its parent, which
comes before it. Tokens are found by one compiled regular expression
matched back to back over the source, with tokenize's rules in tokenize's
order; a unit's tokens are those that start inside its source span.
"""

from __future__ import annotations

import ast
import re
from bisect import bisect_left
from dataclasses import dataclass

from .pyast import AstGraph

COMPLEXITY_FEATURE_NAMES = (
    "cc_total",
    "cc_mean",
    "token_total",
    "token_mean",
    "param_total",
    "param_mean",
)

NESTING_FEATURE_NAMES = ("nesting_max", "nesting_mean")

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

# cyclomatic contribution of each decision node class
_DECISION_INCREMENT = {
    **dict.fromkeys(
        (ast.If, ast.While, ast.For, ast.AsyncFor, ast.IfExp, ast.ExceptHandler),
        lambda node: 1,
    ),
    ast.comprehension: lambda node: 1 + len(node.ifs),
    ast.BoolOp: lambda node: len(node.values) - 1,
    ast.Match: lambda node: max(len(node.cases) - 1, 0),
}

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

# what a syntax node class does in the complexity loop, as bits
_STATEMENT, _UNIT, _NESTS, _DECIDES = 1, 2, 4, 8

_ROLES = {
    cls: _STATEMENT * issubclass(cls, ast.stmt)
    | _UNIT * issubclass(cls, _FUNC_NODES)
    | _NESTS * issubclass(cls, _NESTING_NODES)
    | _DECIDES * (cls in _DECISION_INCREMENT)
    for cls in vars(ast).values()
    if isinstance(cls, type) and issubclass(cls, ast.AST)
}

# The token rules of tokenize, in its order: triple-quoted string, number,
# operator (longest first), string, name.
_DIGITS = r"[0-9](?:_?[0-9])*"
_EXPONENT = r"[eE][-+]?" + _DIGITS
_FLOAT = (
    rf"(?:(?:{_DIGITS}\.(?:{_DIGITS})?|\.{_DIGITS})(?:{_EXPONENT})?"
    rf"|{_DIGITS}{_EXPONENT})"
)
_NUMBER = (
    rf"{_DIGITS}[jJ]|{_FLOAT}[jJ]|{_FLOAT}"
    r"|0[xX](?:_?[0-9a-fA-F])+|0[bB](?:_?[01])+|0[oO](?:_?[0-7])+"
    r"|0(?:_?0)*|[1-9](?:_?[0-9])*"
)
_OPERATOR = r"\*\*=?|//=?|>>=?|<<=?|->|:=|\.\.\.|!=|[-+*/%&|^=<>@]=?|[~:;,.()\[\]{}]"
_PREFIX = r"(?:[rR][bBfF]?|[bBfF][rR]?|[uU])?"
_ESCAPE = r"\\(?:\r\n|[\s\S])"  # an escaped newline continues a string
_TRIPLE_STRING = (
    _PREFIX + rf"(?:'''[^'\\]*(?:(?:{_ESCAPE}|'(?!''))[^'\\]*)*'''"
    rf'|"""[^"\\]*(?:(?:{_ESCAPE}|"(?!""))[^"\\]*)*""")'
)
_STRING = (
    _PREFIX + rf"(?:'[^\n'\\]*(?:{_ESCAPE}[^\n'\\]*)*'"
    rf'|"[^\n"\\]*(?:{_ESCAPE}[^\n"\\]*)*")'
)
_TOKEN = rf"{_TRIPLE_STRING}|{_NUMBER}|{_OPERATOR}|{_STRING}|\w+"
# What tokenize skips: a line whose first non-blank is a comment or a lone
# carriage return (skipped up to the newline), a backslash continuation, a
# comment, a newline. What follows it cannot fail, so the greedy repeat
# never backtracks (a possessive one would need Python 3.11's re).
_SKIPPED = r"(?:^[ \f\t]*[#\r][^\n]*|[ \f\t]*(?:\\\r?\n|#[^\r\n]*|\r?\n))*"
# One match per counted token, back to back, so no match can start inside
# skipped text: group 1 is a token; group 2 is a character no rule accepts
# (tokenize's ERRORTOKEN; in parsable source a lone carriage return or a
# blank right before one); at the end of the source neither group matches.
# re compiles it on first use and keeps it, so importing cegraph stays fast.
_LEXEME = rf"{_SKIPPED}(?:[ \f\t]*(?:({_TOKEN})|\Z)|([\s\S]))"
# line breaks as the parser counts lines
_LINE_BREAK = re.compile(r"\r\n?|\n")


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


def _token_starts(code: str) -> list[int]:
    """Source offset of each counted token, in order."""
    matches = re.finditer(_LEXEME, code, re.MULTILINE)
    return [m.start(m.lastindex) for m in matches if m.lastindex]


def _unit_token_counts(units: list[ast.AST], code: str, starts: list[int]) -> list[int]:
    """Tokens lexically inside each unit, from its `def` keyword through the
    last token of its body. For async defs the leading `async` is skipped."""
    line_starts = [0] + [m.end() for m in _LINE_BREAK.finditer(code)]

    def offset(lineno: int, col: int) -> int:
        # col counts UTF-8 bytes from the start of the line
        start = line_starts[lineno - 1]
        head = code[start : start + col]
        if not head.isascii():
            col = len(head.encode("utf-8")[:col].decode("utf-8"))
        return start + col

    counts = []
    for unit in units:
        lo = bisect_left(starts, offset(unit.lineno, unit.col_offset))
        lo += isinstance(unit, ast.AsyncFunctionDef)
        hi = bisect_left(starts, offset(unit.end_lineno, unit.end_col_offset))
        counts.append(hi - lo)
    return counts


def _param_count(unit: ast.AST) -> int:
    a = unit.args
    count = len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
    if a.vararg is not None:
        count += 1
    if a.kwarg is not None:
        count += 1
    return count


def compute_complexity(graph: AstGraph, code: str) -> ComplexityMetrics:
    """Compute complexity metrics for one module: `graph` is the graph
    parse_to_graph built from the source text `code`. Raises ValueError
    for any other graph, which lacks the syntax nodes."""
    if not graph.parsed:
        raise ValueError("compute_complexity needs the graph parse_to_graph built")
    syntax = graph.ast_nodes
    module_cc = 1  # counts only when the module has no units
    units: list[ast.AST] = []
    ccs: list[int] = []  # per unit
    # per node: index of its innermost unit (-1 at module level), and the
    # nesting level of the statements directly inside it
    unit_of = [-1]
    level_of = [0]
    statements = depth_total = depth_max = 0
    for (parent, _), node in zip(graph.edges, syntax[1:]):
        unit = unit_of[parent]
        level = level_of[parent]
        role = _ROLES[type(node)]
        if role:
            if role & _STATEMENT:
                statements += 1
                depth_total += level
                depth_max = max(depth_max, level)
            if role & _UNIT:
                unit = len(units)
                units.append(node)
                ccs.append(1)
            elif role & _DECIDES:
                if unit >= 0:
                    ccs[unit] += _DECISION_INCREMENT[type(node)](node)
                else:
                    module_cc += _DECISION_INCREMENT[type(node)](node)
            if role & _NESTS:
                level += 1
        unit_of.append(unit)
        level_of.append(level)

    starts = _token_starts(code)
    token_total = len(starts)
    if units:
        cc_total = sum(ccs)
        cc_mean = cc_total / len(units)
        token_mean = sum(_unit_token_counts(units, code, starts)) / len(units)
        param_total = sum(_param_count(unit) for unit in units)
        param_mean = param_total / len(units)
    else:
        # the whole module is the single unit
        cc_total = module_cc
        cc_mean = float(cc_total)
        token_mean = float(token_total)
        param_total = 0
        param_mean = 0.0

    return ComplexityMetrics(
        cc_total=cc_total,
        cc_mean=cc_mean,
        token_total=token_total,
        token_mean=token_mean,
        param_total=param_total,
        param_mean=param_mean,
        nesting_max=depth_max,
        nesting_mean=depth_total / statements if statements else 0.0,
    )
