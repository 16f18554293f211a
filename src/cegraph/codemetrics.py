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
preorder (AstGraph.ast_nodes) in one flat loop: each node takes from its
parent, which comes before it, whether it is inside a unit and its
statement-nesting level. It returns the integer counts the metrics are
quotients of, which add up over a module's top-level statements. Tokens
are found by one compiled regular expression matched back to back over
the source, with tokenize's rules in tokenize's order; a unit's tokens
are those that start inside its source span.
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
    """The counts the eight metrics are computed from. Each is a sum over
    the statements, units or tokens of a source, or a maximum, so the
    counts of consecutive top-level statements combine into those of the
    module they form (see combine), and every metric, a quotient of two
    integers, comes out the same."""

    statements: int
    nesting_total: int  # of the statements' nesting levels
    nesting_max: int
    module_decisions: int  # decision increments outside every unit
    units: int
    unit_cc: int  # summed over the units
    unit_tokens: int
    param_total: int
    token_total: int

    @classmethod
    def combine(cls, parts: list[ComplexityMetrics]) -> ComplexityMetrics:
        """The counts of the concatenated sources of `parts`, each a run of
        whole top-level statements."""
        return cls(
            statements=sum(p.statements for p in parts),
            nesting_total=sum(p.nesting_total for p in parts),
            nesting_max=max((p.nesting_max for p in parts), default=0),
            module_decisions=sum(p.module_decisions for p in parts),
            units=sum(p.units for p in parts),
            unit_cc=sum(p.unit_cc for p in parts),
            unit_tokens=sum(p.unit_tokens for p in parts),
            param_total=sum(p.param_total for p in parts),
            token_total=sum(p.token_total for p in parts),
        )

    @property
    def cc_total(self) -> int:
        # a module without units is the single unit
        return self.unit_cc if self.units else 1 + self.module_decisions

    @property
    def cc_mean(self) -> float:
        return self.cc_total / self.units if self.units else float(self.cc_total)

    @property
    def token_mean(self) -> float:
        return self.unit_tokens / self.units if self.units else float(self.token_total)

    @property
    def param_mean(self) -> float:
        return self.param_total / self.units if self.units else 0.0

    @property
    def nesting_mean(self) -> float:
        return self.nesting_total / self.statements if self.statements else 0.0

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
    module_decisions = 0
    units: list[ast.AST] = []
    unit_cc = 0
    # per node: whether it is inside a unit, and the nesting level of the
    # statements directly inside it
    in_unit = [False]
    level_of = [0]
    statements = nesting_total = nesting_max = 0
    for (parent, _), node in zip(graph.edges, syntax[1:]):
        inside = in_unit[parent]
        level = level_of[parent]
        role = _ROLES[type(node)]
        if role:
            if role & _STATEMENT:
                statements += 1
                nesting_total += level
                nesting_max = max(nesting_max, level)
            if role & _UNIT:
                inside = True
                units.append(node)
                unit_cc += 1
            elif role & _DECIDES:
                if inside:
                    unit_cc += _DECISION_INCREMENT[type(node)](node)
                else:
                    module_decisions += _DECISION_INCREMENT[type(node)](node)
            if role & _NESTS:
                level += 1
        in_unit.append(inside)
        level_of.append(level)

    starts = _token_starts(code)
    return ComplexityMetrics(
        statements=statements,
        nesting_total=nesting_total,
        nesting_max=nesting_max,
        module_decisions=module_decisions,
        units=len(units),
        unit_cc=unit_cc,
        unit_tokens=sum(_unit_token_counts(units, code, starts)) if units else 0,
        param_total=sum(map(_param_count, units)),
        token_total=len(starts),
    )
