import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpc import (
    Concat,
    Cond,
    Descriptor,
    Direction,
    EdgePat,
    Join,
    NodePat,
    ParseError,
    Repeat,
    Restricted,
    Restrictor,
    Union_,
    parse,
    parse_pattern,
    parse_query,
    parse_ruleset,
    render,
)
from gpc.ast import And, PropEqConst, PropEqProp
from gpc.parser import KEYWORDS, MAX_NESTING, tokenize

import gen
import lexer_reference


def node(var=None, label=None):
    return NodePat(Descriptor(var, label))


def edge(direction, var=None, label=None):
    return EdgePat(direction, Descriptor(var, label))


def test_basic_edge_pattern():
    got = parse_pattern('(x:A) -[e:b]-> (y:A)')
    want = Concat(
        Concat(node("x", "A"), edge(Direction.FORWARD, "e", "b")), node("y", "A")
    )
    assert got == want


def test_empty_descriptor():
    assert parse_pattern("()") == node()


def test_quantified_edge():
    got = parse_pattern("(x:A) -[y]->{1..} (z:B)")
    want = Concat(
        Concat(node("x", "A"), Repeat(edge(Direction.FORWARD, "y"), 1, None)),
        node("z", "B"),
    )
    assert got == want


def test_unbound_condition_still_parses():
    got = parse_pattern('[()] <x.a = "5">')
    assert got == Cond(node(), PropEqConst("x", "a", "5"))


def test_precedence_example():
    got = parse_pattern('(a)(b)<x.k="1">+(c)')
    want = Union_(
        Concat(node("a"), Cond(node("b"), PropEqConst("x", "k", "1"))),
        node("c"),
    )
    assert got == want


def test_quantifier_sugar():
    assert parse_pattern("-[:a]->{3}") == parse_pattern("-[:a]->{3..3}")


def test_edge_shorthands():
    assert parse_pattern("->") == edge(Direction.FORWARD)
    assert parse_pattern("<-") == edge(Direction.BACKWARD)
    assert parse_pattern("--") == edge(Direction.UNDIRECTED)
    assert parse_pattern("-[u]-") == edge(Direction.UNDIRECTED, "u")
    assert parse_pattern("<-[w:a]-") == edge(Direction.BACKWARD, "w", "a")


def test_adjacent_edge_tokens_split_greedily():
    assert parse_pattern("-[x]--[y]-") == Concat(
        edge(Direction.UNDIRECTED, "x"), edge(Direction.UNDIRECTED, "y")
    )
    assert parse_pattern("-[x]-->(y)") == Concat(
        Concat(edge(Direction.UNDIRECTED, "x"), edge(Direction.FORWARD)),
        node("y"),
    )
    assert parse_pattern("(a)<-(b)") == Concat(
        Concat(node("a"), edge(Direction.BACKWARD)), node("b")
    )


def test_reserved_words_not_identifiers():
    for bad in ("(and)", "(trail)", "(x) <simple.k = 1>", "(x) <x.k = ans.m>"):
        with pytest.raises(ParseError):
            parse_pattern(bad)


@pytest.mark.parametrize("word", sorted(KEYWORDS) + sorted(k.lower() for k in KEYWORDS))
def test_labels_and_keys_may_be_keywords(word):
    assert parse_pattern(f"(x:{word})") == node("x", word)
    assert parse_pattern(f"(:{word}) <-[:{word}]-") == Concat(
        node(None, word), edge(Direction.BACKWARD, None, word)
    )
    got = parse_pattern(f"-[e:{word}]- <e.{word} = 1 AND e.{word} = e.{word}>")
    want = Cond(
        edge(Direction.UNDIRECTED, "e", word),
        And(PropEqConst("e", word, 1), PropEqProp("e", word, "e", word)),
    )
    assert got == want
    assert parse_pattern(render(want)) == want


def test_keywords_case_insensitive():
    q = parse_query("shortest trail (x)")
    assert q.restrictor is Restrictor.SHORTEST_TRAIL
    assert parse_pattern('[(x)] <x.k = TRUE and not x.m = "1">') is not None


def test_condition_keywords_and_parens():
    got = parse_pattern('[(x)] <NOT (x.k = "1" AND x.m = true) OR x.k = 2>')
    assert isinstance(got, Cond)


def test_negative_integer_constant():
    got = parse_pattern("[(x)] <x.k = -3>")
    assert got == Cond(node("x"), PropEqConst("x", "k", -3))


def test_query_forms():
    q = parse_query("SHORTEST TRAIL (x) -> (y)")
    assert isinstance(q, Restricted)
    assert q.restrictor is Restrictor.SHORTEST_TRAIL
    b = parse_query("p = simple (x)")
    assert b == Restricted(Restrictor.SIMPLE, node("x"), "p")
    j = parse_query("TRAIL (x), SHORTEST (y)")
    assert isinstance(j, Join)


def test_ruleset():
    rs = parse_ruleset("Ans(x, y) <- SHORTEST (x) -> (y); Ans(y, x) <- TRAIL (x) -- (y)")
    assert len(rs.rules) == 2
    assert rs.rules[0].head == ("x", "y")


def test_ruleset_arity_mismatch():
    with pytest.raises(ParseError):
        parse_ruleset("Ans(x, y) <- SHORTEST (x) -> (y); Ans(x) <- TRAIL (x)")


def test_ruleset_head_var_not_in_body():
    with pytest.raises(ParseError):
        parse_ruleset("Ans(w) <- SHORTEST (x) -> (y)")


def test_reserved_variable_prefix_rejected():
    with pytest.raises(ParseError):
        parse_pattern("(_v0)")
    with pytest.raises(ParseError):
        parse_query("_v1 = SHORTEST ()")


def test_error_carries_location_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_pattern("(x:A) -[e:b]-> (y:A")
    assert err.value.line == 1
    assert err.value.column == 20
    assert err.value.expected


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_pattern("(x) (y) ]")


def test_bad_quantifier_bounds():
    with pytest.raises(ParseError):
        parse_pattern("-[:a]->{3..1}")


@pytest.mark.parametrize(
    "text",
    [
        "[" * 600 + "(x)" + "]" * 600,
        "(x) <" + "NOT " * 600 + "x.k = 1>",
        "(x) <" + "(" * 600 + "x.k = 1" + ")" * 600 + ">",
    ],
)
def test_deep_nesting_is_parse_error(text):
    with pytest.raises(ParseError, match="nesting"):
        parse_pattern(text)


def test_nesting_at_the_limit_parses():
    depth = MAX_NESTING
    assert parse_pattern("[" * depth + "(x)" + "]" * depth) == node("x")


def test_render_examples():
    assert render(node("x", "A")) == "(x:A)"
    assert render(Repeat(edge(Direction.FORWARD, None, "a"), 0, None)) == "-[:a]->{0..}"
    assert render(Union_(node(None, "A"), node(None, "B"))) == "[(:A)] + [(:B)]"


def test_roundtrip_random_patterns():
    rng = random.Random(31)
    for _ in range(300):
        pat = gen.rand_pattern(rng, rng.randint(1, 4))
        assert parse_pattern(render(pat)) == pat, render(pat)


def test_roundtrip_random_queries():
    rng = random.Random(32)
    for _ in range(200):
        query = gen.rand_query(rng, 3)
        assert parse_query(render(query)) == query, render(query)


def test_roundtrip_rulesets():
    from gpc import Rule, RuleSet
    from gpc.ast import expr_vars

    rng = random.Random(33)
    for _ in range(100):
        rules = []
        arity = rng.randint(0, 2)
        for _ in range(rng.randint(1, 3)):
            body = gen.rand_query(rng, 3)
            in_scope = sorted(expr_vars(body))
            if len(in_scope) < arity:
                continue
            rules.append(Rule(tuple(rng.sample(in_scope, arity)), body))
        if not rules:
            continue
        ruleset = RuleSet(tuple(rules))
        assert parse_ruleset(render(ruleset)) == ruleset


def test_roundtrip_string_escapes():
    got = parse_pattern('[(x)] <x.k = "a\\"b\\\\c">')
    assert got == Cond(node("x"), PropEqConst("x", "k", 'a"b\\c'))
    assert parse_pattern(render(got)) == got


@settings(max_examples=500, deadline=None)
@given(text=st.text())
def test_roundtrip_any_string_constant(text):
    got = Cond(node("x"), PropEqConst("x", "k", text))
    assert parse_pattern(render(got)) == got


@pytest.mark.parametrize(
    ("text", "want"),
    [
        ("Ans(x) <- SIMPLE (x)", parse_ruleset("Ans(x) <- SIMPLE (x)")),
        ("\n  (x) -> (y)", Concat(Concat(node("x"), edge(Direction.FORWARD)), node("y"))),
        ("[(x)]", node("x")),
        ("TRAIL (x)", Restricted(Restrictor.TRAIL, node("x"))),
        ("answer = SHORTEST (x)", Restricted(Restrictor.SHORTEST, node("x"), "answer")),
        ("ans_1 = SIMPLE (x)", Restricted(Restrictor.SIMPLE, node("x"), "ans_1")),
    ],
)
def test_parse_picks_the_grammar_by_the_first_token(text, want):
    assert parse(text) == want


def test_parse_reads_every_rendered_expression():
    rng = random.Random(34)
    for _ in range(100):
        for expr in (gen.rand_pattern(rng, 3), gen.rand_query(rng, 3)):
            assert parse(render(expr)) == expr, render(expr)
    ruleset = parse_ruleset("Ans(x) <- SIMPLE (x) -> (y); Ans(y) <- TRAIL (y)")
    assert parse(render(ruleset)) == ruleset


@pytest.mark.parametrize(
    ("text", "where"),
    [
        ("Ans(x) <- (x)", (1, 11)),  # the rule set grammar: no restrictor
        ("(x) -> (", (1, 9)),  # the pattern grammar: the atom is cut short
        ("x", (1, 1)),  # the query grammar: no restrictor
        ("", (1, 1)),
    ],
)
def test_parse_reports_the_error_of_the_grammar_it_picked(text, where):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.column) == where


@st.composite
def patterns(draw, depth=3):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return gen.rand_pattern(rng, draw(st.integers(min_value=1, max_value=depth)))


@settings(max_examples=150, deadline=None)
@given(patterns())
def test_roundtrip_property(pat):
    assert parse_pattern(render(pat)) == pat


# -- the lexer -----------------------------------------------------------------

# The grammar's characters, keywords in mixed case, and non-ASCII letters,
# decimal digits (Arabic-Indic three), other numeric characters and spaces.
LEXER_PIECES = list('()[]{}<>-+,;=:."\\ \t\n_xA07') + [
    "and", "Shortest", "TRUE", "é", "ß", "\u0663", "\u00b2", "\u2167", "\u00a0", "\u2028",
]


def _lexed(lex, text):
    try:
        return [(t.kind, t.value, t.line, t.column) for t in lex(text)]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column, exc.expected)
    except ValueError:
        return ("ValueError",)


def _without_positions(outcome):
    if outcome[0] == "ParseError":
        return (outcome[0], re.sub(r" at \d+:\d+", "", outcome[1]), outcome[4])
    return [token[:2] for token in outcome]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=24).map("".join))
def test_tokenize_matches_the_reference_lexer(text):
    got, want = _lexed(tokenize, text), _lexed(lexer_reference.tokenize, text)
    if want == ("ValueError",):
        # int() of a numeric character that is no decimal digit, such as '²'.
        assert got[0] == "ParseError" and got[1].startswith("unexpected character")
    elif got != want:
        # The reference counts no newline inside a string literal, so only
        # the positions after such a literal may differ.
        assert re.search(r'"[^"]*\n', text)
        assert _without_positions(got) == _without_positions(want)


def test_regex_classes_are_the_str_predicates():
    """tokenize relies on these equivalences for every code point."""
    text = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", text)) == {ch for ch in text if ch.isspace()}
    assert set(re.findall(r"\w", text)) == {ch for ch in text if ch.isalnum() or ch == "_"}
    assert set(re.findall(r"\d", text)) == {ch for ch in text if ch.isdecimal()}


def test_numeric_character_that_is_no_digit_is_a_parse_error():
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_pattern("(x)-[e]->{\u00b2}")
    assert (err.value.line, err.value.column) == (1, 11)
    assert parse_pattern("-[e]->{\u0663}") == Repeat(edge(Direction.FORWARD, "e"), 3, 3)


def test_positions_count_the_newlines_inside_a_string():
    with pytest.raises(ParseError, match="trailing input") as err:
        parse_pattern('(x) <x.k = "a\nb"> ]')
    assert (err.value.line, err.value.column) == (2, 5)
