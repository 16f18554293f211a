"""Complexity metrics: cyclomatic counts, token spans, params, nesting.

Token expectations were frozen from hand counts of the stated rule (all
tokens except comments and layout), cross-checked against a raw tokenizer
dump in test_token_total_matches_tokenizer_dump. The lexer traps below are
sources on which a regular-expression scanner easily parts from tokenize.
"""

import ast
import importlib
import io
import itertools
import random
import re
import sys
import token as token_mod
import tokenize

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from synth import random_module

from cegraph import codemetrics
from cegraph.codemetrics import compute_complexity
from cegraph.pyast import ParseError, parse_to_graph


def complexity_of(code):
    return compute_complexity(parse_to_graph(code), code)


def metrics_of(code):
    return oracles.complexity_metrics(complexity_of(code))


def test_identity_function_frozen_values():
    m = metrics_of("def f(x):\n    return x\n")
    # hand count: def f ( x ) : return x
    assert m["token_total"] == 8
    assert m["token_mean"] == 8.0
    assert m["cc_total"] == 1
    assert m["cc_mean"] == 1.0
    assert m["param_total"] == 1
    assert m["param_mean"] == 1.0
    assert m["nesting_max"] == 1
    assert m["nesting_mean"] == 0.5


def test_single_branch_adds_one():
    m = metrics_of("def f(x):\n    if x:\n        return 1\n    return 0\n")
    assert m["cc_total"] == 2


def test_else_and_finally_do_not_count():
    code = (
        "def f(x):\n"
        "    try:\n"
        "        if x:\n"
        "            y = 1\n"
        "        else:\n"
        "            y = 2\n"
        "    finally:\n"
        "        y = 3\n"
        "    return y\n"
    )
    m = metrics_of(code)
    assert m["cc_total"] == 2  # 1 + the if; else/try/finally add nothing


def test_except_handlers_count():
    code = (
        "def f():\n"
        "    try:\n"
        "        return 1\n"
        "    except ValueError:\n"
        "        return 2\n"
        "    except KeyError:\n"
        "        return 3\n"
    )
    assert metrics_of(code)["cc_total"] == 3


def test_boolop_counts_operands_minus_one():
    assert metrics_of("a = x and y and z\n")["cc_total"] == 3
    assert metrics_of("a = x or y\n")["cc_total"] == 2


def test_comprehension_clauses_count():
    # for clause +1, each if clause +1
    assert metrics_of("xs = [i for i in r]\n")["cc_total"] == 2
    assert metrics_of("xs = [i for i in r if i if i > 1]\n")["cc_total"] == 4
    assert metrics_of("xs = {i: j for i in r for j in s}\n")["cc_total"] == 3


def test_ternary_and_loops_count():
    assert metrics_of("y = 1 if x else 2\n")["cc_total"] == 2
    assert metrics_of("while x:\n    pass\n")["cc_total"] == 2
    assert metrics_of("for i in r:\n    pass\n")["cc_total"] == 2


def test_match_counts_cases_after_first():
    code = (
        "def f(x):\n"
        "    match x:\n"
        "        case 1:\n"
        "            return 'a'\n"
        "        case 2:\n"
        "            return 'b'\n"
        "        case _:\n"
        "            return 'c'\n"
    )
    assert metrics_of(code)["cc_total"] == 3


def test_lambda_is_not_a_unit():
    m = metrics_of("f = lambda x: x if x else 0\n")
    assert m["cc_total"] == 2  # module unit: 1 + ternary
    assert m["cc_mean"] == 2.0
    assert m["param_total"] == 0


def test_nested_function_frozen_values():
    code = (
        "def outer(x):\n"
        "    def inner(y):\n"
        "        if y:\n"
        "            return 1\n"
        "        return 0\n"
        "    return inner(x)\n"
    )
    m = metrics_of(code)
    assert m["cc_total"] == 3  # outer 1, inner 2
    assert m["cc_mean"] == 1.5
    assert m["token_total"] == 24
    # outer spans all 24 tokens, inner spans 13
    assert m["token_mean"] == pytest.approx(18.5)
    assert m["param_total"] == 2
    assert m["param_mean"] == 1.0
    assert m["nesting_max"] == 3
    assert m["nesting_mean"] == 1.5


def test_decorator_tokens_outside_unit_span():
    m = metrics_of("@deco\ndef h():\n    pass\n")
    assert m["token_total"] == 8  # @ deco def h ( ) : pass
    assert m["token_mean"] == 6.0  # def h ( ) : pass


def test_async_def_span_starts_at_def():
    m = metrics_of("async def g(a):\n    await a\n")
    assert m["token_total"] == 9  # async def g ( a ) : await a
    assert m["token_mean"] == 8.0  # async excluded from the unit span
    assert m["param_total"] == 1


def test_module_without_functions_is_one_unit():
    m = metrics_of("x = 1\nif x:\n    y = 2\n")
    assert m["cc_total"] == 2
    assert m["cc_mean"] == 2.0
    assert m["token_total"] == 9
    assert m["token_mean"] == 9.0
    assert m["param_total"] == 0
    assert m["nesting_max"] == 1
    assert m["nesting_mean"] == pytest.approx(1 / 3)


def test_param_kinds_all_count():
    code = "def f(a, b, /, c, *args, d, e=1, **kw):\n    pass\n"
    m = metrics_of(code)
    assert m["param_total"] == 7  # a b c args d e kw


def test_self_counts_as_parameter():
    code = "class A:\n    def m(self, x):\n        return x\n"
    assert metrics_of(code)["param_total"] == 2


def test_empty_module():
    m = metrics_of("")
    assert m["cc_total"] == 1
    assert m["token_total"] == 0
    assert m["nesting_max"] == 0
    assert m["nesting_mean"] == 0.0


def test_comments_and_blank_lines_do_not_count():
    a = metrics_of("x = 1\n")
    b = metrics_of("# leading comment\n\nx = 1  # trailing\n\n")
    assert a["token_total"] == b["token_total"] == 3


def test_invalid_source_raises_parse_error():
    with pytest.raises(ParseError):
        complexity_of("def broken(:\n")
    with pytest.raises(ParseError):  # RecursionError inside ast.parse
        complexity_of("x = " + "-" * 5000 + "1\n")


def test_wrapping_body_in_if_true_adds_one():
    for seed in range(10):
        rng = random.Random(600 + seed)
        body = random_module(rng, approx_lines=8)
        plain = "def unit():\n" + "".join(
            "    " + line + "\n" for line in body.splitlines()
        )
        wrapped = "def unit():\n    if True:\n" + "".join(
            "        " + line + "\n" for line in body.splitlines()
        )
        assert (
            metrics_of(wrapped)["cc_total"]
            == metrics_of(plain)["cc_total"] + 1
        )


def test_token_total_matches_tokenizer_dump():
    excluded = {
        token_mod.COMMENT,
        token_mod.NL,
        token_mod.NEWLINE,
        token_mod.INDENT,
        token_mod.DEDENT,
        token_mod.ENDMARKER,
        token_mod.ENCODING,
    }
    for seed in range(15):
        code = random_module(random.Random(700 + seed), approx_lines=25)
        dump = [
            t
            for t in tokenize.generate_tokens(io.StringIO(code).readline)
            if t.type not in excluded
        ]
        assert metrics_of(code)["token_total"] == len(dump)


def test_means_are_totals_over_unit_count():
    code = (
        "def a():\n    return 1\n\n"
        "def b(x, y):\n    if x:\n        return y\n    return 0\n"
    )
    m = metrics_of(code)
    assert m["cc_total"] == 3
    assert m["cc_mean"] == 1.5
    assert m["param_total"] == 2
    assert m["param_mean"] == 1.0


def test_appending_comment_changes_nothing():
    base = (
        "def roll(n):\n"
        "    if n > 6:\n"
        "        return 6\n"
        "    return n\n"
    )
    with_comment = base + "# trailing remark, purely lexical\n"
    assert complexity_of(with_comment) == complexity_of(base)


def test_duplicating_renamed_function_doubles_totals():
    base = (
        "def f(a, b):\n"
        "    if a and b:\n"
        "        return a\n"
        "    return b\n"
    )
    doubled = base + base.replace("def f", "def g")
    m1 = metrics_of(base)
    m2 = metrics_of(doubled)
    assert m2["cc_total"] == 2 * m1["cc_total"]
    assert m2["token_total"] == 2 * m1["token_total"]
    assert m2["param_total"] == 2 * m1["param_total"]
    assert m2["cc_mean"] == m1["cc_mean"]
    assert m2["token_mean"] == m1["token_mean"]
    assert m2["param_mean"] == m1["param_mean"]


# ------------------------------------------------------------ lexer traps


def token_counts(code):
    m = metrics_of(code)
    return {"token_total": m["token_total"], "token_mean": m["token_mean"]}


def oracle_token_counts(code):
    want = oracles.complexity_six(code)
    return {"token_total": want["token_total"], "token_mean": want["token_mean"]}


def test_trailing_comment_at_end_of_source_is_skipped_whole():
    # a scan that restarts inside the comment would count c, d and e
    code = "x = [1]  # c d e"
    assert token_counts(code) == oracle_token_counts(code)
    assert metrics_of(code)["token_total"] == 5


@pytest.mark.parametrize(
    "code",
    [
        "x = 1\ry = 2\n",  # mid-line: one stray character
        "x = 1  \ry = 2\n",  # and one per blank right before it
        "x = 1\n\ry = 2\n",  # at a line start: tokenize skips the line
        "# c\rx = 1\n",  # in a comment line: likewise
        "def f():\n    x = 1\r    return x\n",
    ],
)
def test_lone_carriage_return_counts_as_tokenize_does(code):
    # the parser takes a lone \r for a line break, tokenize does not
    assert token_counts(code) == oracle_token_counts(code)


def test_form_feed_in_indentation_keeps_the_unit_span():
    # a form feed is no line break: splitting lines at it shifts columns
    code = "\fdef f():\n    \f return 1\n"
    assert token_counts(code) == oracle_token_counts(code)
    assert metrics_of(code)["token_mean"] == 7.0


def test_semicolon_after_a_one_line_def_is_in_its_span():
    # the `;` lies outside the last statement, but the def's span ends after it
    code = "def f(): return 1;\n"
    assert token_counts(code) == oracle_token_counts(code)
    assert metrics_of(code)["token_mean"] == 8.0


def test_utf8_columns_bound_the_unit_span():
    # col_offset counts UTF-8 bytes, the scanner counts characters
    code = "def f(): return '\u00e9\u00e9'; g = 1\nx = '\u00fc'\n"
    assert token_counts(code) == oracle_token_counts(code)


def test_f_string_is_one_token_on_every_interpreter():
    # tokenize splits f-strings from Python 3.12 on; the count does not
    assert metrics_of('x = f"a{b}c" + 1\n')["token_total"] == 5


def test_nested_quote_f_string_is_read_by_3_11_rules():
    # Python 3.12 parses this; the scanner ends the string at the inner
    # quote and takes the rest of the line for a comment
    code = 'x = f"{d["#"]}"; y = 1\n'
    assert len(codemetrics._token_starts(code)) == 3


def _opcode_names(item, parser):
    if isinstance(item, parser.SubPattern):
        for op, arg in item.data:
            yield op.name
            yield from _opcode_names(arg, parser)
    elif isinstance(item, (list, tuple)):
        for part in item:
            yield from _opcode_names(part, parser)


def test_token_pattern_needs_no_python_3_11_re():
    # possessive repeats and atomic groups came with Python 3.11's re;
    # the project supports Python 3.10
    parser = getattr(re, "_parser", None) or importlib.import_module("sre_parse")
    names = set(_opcode_names(parser.parse(codemetrics._LEXEME), parser))
    assert "MAX_REPEAT" in names
    assert not names & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


# every string prefix in every case; f-strings only where tokenize keeps
# them whole
_PREFIXES = sorted(
    "".join(chars)
    for base in ("", "r", "u", "b", "br", "rb", "f", "fr", "rf")
    for chars in itertools.product(*[(c, c.upper()) for c in base])
    if sys.version_info < (3, 12) or "f" not in base
)
_TEXT = st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\x00")


@st.composite
def lexer_sources(draw):
    """A fuzzed module with comment lines, trailing comments, string
    literals of every prefix and multi-line triple-quoted strings inserted,
    then optionally indented with tabs and given CRLF line ends."""
    lines = random_module(
        random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 30))
    ).splitlines()
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(lines)))
        ref = lines[at] if at < len(lines) else ""
        indent = ref[: len(ref) - len(ref.lstrip())]
        kind = draw(st.sampled_from(["comment", "trailing", "string", "triple"]))
        prefix = draw(st.sampled_from(_PREFIXES))
        body = draw(st.text(_TEXT.filter(lambda c: c not in "'\"\\{}"), max_size=8))
        if "b" in prefix.lower():
            body = body.encode("ascii", "ignore").decode()
        if kind == "comment":
            lines.insert(at, " " * draw(st.integers(0, 9)) + "#" + draw(st.text(_TEXT)))
        elif kind == "trailing" and at < len(lines):
            lines[at] += "  #" + draw(st.text(_TEXT))
        elif kind == "string":
            lines.insert(at, f"{indent}s = {prefix}'{body}\\'' + {prefix}\"\\\\\"")
        elif kind == "triple":
            quote = draw(st.sampled_from(["'''", '"""']))
            gap = draw(st.sampled_from(["\n", "\\\n", "\n  \n"]))
            lines[at:at] = f"{indent}t = {prefix}{quote}{body}{gap}{body}{quote}".split("\n")
    code = "\n".join(lines) + "\n"
    if draw(st.booleans()):
        code = code.replace("    ", "\t")
    if draw(st.booleans()):
        code = code.replace("\n", "\r\n")
    return code


@settings(max_examples=200, deadline=None)
@given(code=lexer_sources())
def test_token_counts_match_tokenize(code):
    try:
        ast.parse(code)
    except SyntaxError:
        assume(False)  # an insertion before else/except breaks the syntax
    assert token_counts(code) == oracle_token_counts(code)
