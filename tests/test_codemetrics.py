"""Complexity metrics: cyclomatic counts, token spans, params, nesting.

Token expectations were frozen from hand counts of the stated rule (all
tokens except comments and layout), cross-checked against a raw tokenizer
dump in test_token_total_matches_tokenizer_dump.
"""

import io
import random
import token as token_mod
import tokenize

import pytest

from cegraph.codemetrics import (
    COMPLEXITY_FEATURE_NAMES,
    NESTING_FEATURE_NAMES,
    compute_complexity,
)
from cegraph.pyast import ParseError, parse_to_graph
from cegraph.synth import random_module


def complexity_of(code):
    return compute_complexity(parse_to_graph(code).tree, code)


def test_identity_function_frozen_values():
    m = complexity_of("def f(x):\n    return x\n")
    # hand count: def f ( x ) : return x
    assert m.token_total == 8
    assert m.token_mean == 8.0
    assert m.cc_total == 1
    assert m.cc_mean == 1.0
    assert m.param_total == 1
    assert m.param_mean == 1.0
    assert m.nesting_max == 1
    assert m.nesting_mean == 0.5


def test_single_branch_adds_one():
    m = complexity_of("def f(x):\n    if x:\n        return 1\n    return 0\n")
    assert m.cc_total == 2


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
    m = complexity_of(code)
    assert m.cc_total == 2  # 1 + the if; else/try/finally add nothing


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
    assert complexity_of(code).cc_total == 3


def test_boolop_counts_operands_minus_one():
    assert complexity_of("a = x and y and z\n").cc_total == 3
    assert complexity_of("a = x or y\n").cc_total == 2


def test_comprehension_clauses_count():
    # for clause +1, each if clause +1
    assert complexity_of("xs = [i for i in r]\n").cc_total == 2
    assert complexity_of("xs = [i for i in r if i if i > 1]\n").cc_total == 4
    assert complexity_of("xs = {i: j for i in r for j in s}\n").cc_total == 3


def test_ternary_and_loops_count():
    assert complexity_of("y = 1 if x else 2\n").cc_total == 2
    assert complexity_of("while x:\n    pass\n").cc_total == 2
    assert complexity_of("for i in r:\n    pass\n").cc_total == 2


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
    assert complexity_of(code).cc_total == 3


def test_lambda_is_not_a_unit():
    m = complexity_of("f = lambda x: x if x else 0\n")
    assert m.cc_total == 2  # module unit: 1 + ternary
    assert m.cc_mean == 2.0
    assert m.param_total == 0


def test_nested_function_frozen_values():
    code = (
        "def outer(x):\n"
        "    def inner(y):\n"
        "        if y:\n"
        "            return 1\n"
        "        return 0\n"
        "    return inner(x)\n"
    )
    m = complexity_of(code)
    assert m.cc_total == 3  # outer 1, inner 2
    assert m.cc_mean == 1.5
    assert m.token_total == 24
    # outer spans all 24 tokens, inner spans 13
    assert m.token_mean == pytest.approx(18.5)
    assert m.param_total == 2
    assert m.param_mean == 1.0
    assert m.nesting_max == 3
    assert m.nesting_mean == 1.5


def test_decorator_tokens_outside_unit_span():
    m = complexity_of("@deco\ndef h():\n    pass\n")
    assert m.token_total == 8  # @ deco def h ( ) : pass
    assert m.token_mean == 6.0  # def h ( ) : pass


def test_async_def_span_starts_at_def():
    m = complexity_of("async def g(a):\n    await a\n")
    assert m.token_total == 9  # async def g ( a ) : await a
    assert m.token_mean == 8.0  # async excluded from the unit span
    assert m.param_total == 1


def test_module_without_functions_is_one_unit():
    m = complexity_of("x = 1\nif x:\n    y = 2\n")
    assert m.cc_total == 2
    assert m.cc_mean == 2.0
    assert m.token_total == 9
    assert m.token_mean == 9.0
    assert m.param_total == 0
    assert m.nesting_max == 1
    assert m.nesting_mean == pytest.approx(1 / 3)


def test_param_kinds_all_count():
    code = "def f(a, b, /, c, *args, d, e=1, **kw):\n    pass\n"
    m = complexity_of(code)
    assert m.param_total == 7  # a b c args d e kw


def test_self_counts_as_parameter():
    code = "class A:\n    def m(self, x):\n        return x\n"
    assert complexity_of(code).param_total == 2


def test_empty_module():
    m = complexity_of("")
    assert m.cc_total == 1
    assert m.token_total == 0
    assert m.nesting_max == 0
    assert m.nesting_mean == 0.0


def test_comments_and_blank_lines_do_not_count():
    a = complexity_of("x = 1\n")
    b = complexity_of("# leading comment\n\nx = 1  # trailing\n\n")
    assert a.token_total == b.token_total == 3


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
            complexity_of(wrapped).cc_total
            == complexity_of(plain).cc_total + 1
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
        assert complexity_of(code).token_total == len(dump)


def test_means_are_totals_over_unit_count():
    code = (
        "def a():\n    return 1\n\n"
        "def b(x, y):\n    if x:\n        return y\n    return 0\n"
    )
    m = complexity_of(code)
    assert m.cc_total == 3
    assert m.cc_mean == 1.5
    assert m.param_total == 2
    assert m.param_mean == 1.0


def test_as_dict_order():
    m = complexity_of("x = 1\n")
    assert tuple(m.as_dict().keys()) == COMPLEXITY_FEATURE_NAMES + NESTING_FEATURE_NAMES


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
    m1 = complexity_of(base)
    m2 = complexity_of(doubled)
    assert m2.cc_total == 2 * m1.cc_total
    assert m2.token_total == 2 * m1.token_total
    assert m2.param_total == 2 * m1.param_total
    assert m2.cc_mean == m1.cc_mean
    assert m2.token_mean == m1.token_mean
    assert m2.param_mean == m1.param_mean
