import random

import pytest

from gpc import (
    C2rpq,
    Concat,
    Descriptor,
    EvalConfig,
    Inverse,
    Label,
    Nest,
    NodePat,
    NodeVal,
    NreConcat,
    NrePlus,
    NreStar,
    NreUnion,
    Repeat,
    ResourceLimitError,
    Restricted,
    Restrictor,
    Rule,
    RuleSet,
    TypeCheckError,
    eval_query,
    eval_ruleset,
    parse_c2rpq,
    parse_nre,
    parse_pattern,
    parse_ruleset,
    parse_query,
    product_2rpq,
    recursive_nre,
    render,
    translate_2rpq,
    translate_c2rpq,
    translate_nre,
    translate_source,
    validate_graph,
)
from gpc.ast import Direction, EdgePat, expr_vars, query_patterns
from gpc.engine import COLLECT_MODES, satisfiable_pairs

import gen


def _pairs(tuples):
    return {(a.id, b.id) for a, b in tuples}


def test_eval_ruleset_single_rule(g_tiny):
    rules = parse_ruleset("Ans(x, y) <- SHORTEST (x) -> (y)")
    assert eval_ruleset(g_tiny, rules) == {(NodeVal("n1"), NodeVal("n2"))}


def test_eval_ruleset_union_of_rules(g_tiny):
    rules = parse_ruleset(
        "Ans(x, y) <- SHORTEST (x) -[:a]-> (y); Ans(x, y) <- SHORTEST (x) -[:s]- (y)"
    )
    assert _pairs(eval_ruleset(g_tiny, rules)) == {("n1", "n2"), ("n2", "n2")}


def test_projection_collapses(g_exp):
    rules = parse_ruleset("Ans(x) <- SHORTEST (x) -> (y)")
    tuples = eval_ruleset(g_exp, rules)
    answers = eval_query(g_exp, parse_query("SHORTEST (x) -> (y)"))
    assert len(tuples) < len(answers)
    assert {t[0].id for t in tuples} == {"u", "v"}


def test_translate_2rpq_shapes():
    assert translate_2rpq(Label("a")) == EdgePat(Direction.FORWARD, descriptor=__import__("gpc").Descriptor(label="a"))
    assert translate_2rpq(Inverse("a")) == EdgePat(
        Direction.BACKWARD, descriptor=__import__("gpc").Descriptor(label="a")
    )
    concat = translate_2rpq(NreConcat(Label("a"), Label("b")))
    assert isinstance(concat, Concat)
    star = translate_2rpq(NreStar(Label("a")))
    assert star == Repeat(translate_2rpq(Label("a")), 0, None)
    plus = translate_2rpq(NrePlus(Label("a")))
    assert plus == Repeat(translate_2rpq(Label("a")), 1, None)
    with pytest.raises(ValueError):
        translate_2rpq(Nest(Label("a")))


def test_2rpq_simple_cases(g_tiny):
    assert product_2rpq(g_tiny, Label("a")) == {("n1", "n2")}
    assert product_2rpq(g_tiny, Inverse("a")) == {("n2", "n1")}
    rules = translate_c2rpq(C2rpq(("x", "y"), (("x", Label("a"), "y"),)))
    assert _pairs(eval_ruleset(g_tiny, rules)) == {("n1", "n2")}


def test_c2rpq_join_example():
    g = validate_graph(
        {
            "nodes": [{"id": "1"}, {"id": "2"}, {"id": "3"}],
            "directed_edges": [
                {"id": "d1", "src": "1", "tgt": "2", "labels": ["a"]},
                {"id": "d2", "src": "2", "tgt": "2", "labels": ["a"]},
                {"id": "d3", "src": "2", "tgt": "3", "labels": ["b"]},
            ],
        }
    )
    q = C2rpq(("x", "z"), (("x", NrePlus(Label("a")), "y"), ("y", Label("b"), "z")))
    rules = translate_c2rpq(q)
    assert len(rules.rules) == 1
    got = _pairs(eval_ruleset(g, rules))
    assert got == {("1", "3"), ("2", "3")}


def test_nre_worked_example_shape():
    rules = translate_nre(parse_nre("(a [b+] c)+"))
    body = rules.rules[0].body
    text = render(rules)
    assert rules.rules[0].head == ("x", "y")
    assert "-[:a]->" in text and "-[:b]->{1..}" in text and "-[:c]->" in text
    assert "<-[:b]-{1..}" in text  # the way back mirrors the way out
    assert "_v0" in text  # fresh anchor variable, reserved prefix
    assert expr_vars(body) == {"x", "y", "_v0"}


def test_nre_fresh_vars_deterministic():
    first = translate_nre(parse_nre("a [b] [c+]"))
    second = translate_nre(parse_nre("a [b] [c+]"))
    assert first == second
    assert "_v0" in render(first) and "_v1" in render(first)


def test_nest_anchor_pins_excursion():
    g = validate_graph(
        {
            "nodes": [{"id": "1"}, {"id": "2"}, {"id": "3"}],
            "directed_edges": [
                {"id": "d1", "src": "1", "tgt": "2", "labels": ["a"]},
                {"id": "d2", "src": "2", "tgt": "3", "labels": ["b"]},
                {"id": "d3", "src": "2", "tgt": "1", "labels": ["c"]},
            ],
        }
    )
    rules = translate_nre(parse_nre("a [b] c"))
    answers = eval_query(g, rules.rules[0].body)
    assert answers
    for answer in answers:
        p = answer.paths[0]
        anchor = answer.bindings["_v0"].id
        # excursion leaves the anchor and the reverse walk returns to it
        assert p.elements[2] == anchor and p.elements[6] == anchor


def test_nest_free_nre_equals_2rpq_translation():
    rng = random.Random(61)
    for _ in range(20):
        regex = gen.rand_regex(rng, rng.randint(1, 5))
        assert translate_nre(regex).rules[0].body == translate_c2rpq(
            C2rpq(("x", "y"), (("x", regex, "y"),))
        ).rules[0].body


def test_nre_with_failing_nest_excludes_route():
    g = validate_graph(
        {
            "nodes": [{"id": str(i)} for i in range(1, 6)],
            "directed_edges": [
                {"id": "d1", "src": "1", "tgt": "2", "labels": ["a"]},
                {"id": "d2", "src": "2", "tgt": "2", "labels": ["b"]},
                {"id": "d3", "src": "2", "tgt": "3", "labels": ["c"]},
                {"id": "d4", "src": "3", "tgt": "4", "labels": ["a"]},
                {"id": "d5", "src": "4", "tgt": "5", "labels": ["c"]},
            ],
        }
    )
    expr = parse_nre("(a [b+] c)+")
    expected = recursive_nre(g, expr)
    assert expected == {("1", "3")}  # the a-edge into 4 fails the b-test
    got = _pairs(eval_ruleset(g, translate_nre(expr)))
    assert got == expected


def test_parse_formats():
    nre = parse_nre("(a [b+] c)+")
    assert nre == NrePlus(
        NreConcat(NreConcat(Label("a"), Nest(NrePlus(Label("b")))), Label("c"))
    )
    assert parse_nre("a | b* . c-") == NreUnion(
        Label("a"), NreConcat(NreStar(Label("b")), Inverse(Label("c").label))
    )
    q = parse_c2rpq("Ans(x, z) <- (x, a+ b, y), (y, c, z)")
    assert q.head == ("x", "z")
    assert len(q.atoms) == 2
    with pytest.raises(ValueError):
        parse_c2rpq("Ans(x, y) <- (x, a [b] c, y)")
    with pytest.raises(ValueError):
        parse_nre("(a")


def test_translate_source_dispatch():
    rules = translate_source("#nre\n(a [b+] c)+\n")
    assert rules.rules[0].head == ("x", "y")
    rules2 = translate_source("#c2rpq\nAns(x, y) <- (x, a, y)")
    assert rules2.rules[0].head == ("x", "y")
    with pytest.raises(ValueError):
        translate_source("no header")


def test_random_2rpq_equivalence():
    rng = random.Random(62)
    for _ in range(15):
        g = gen.rand_labeled_digraph(rng)
        regex = gen.rand_regex(rng, rng.randint(1, 5))
        expected = product_2rpq(g, regex)
        rules = translate_c2rpq(C2rpq(("x", "y"), (("x", regex, "y"),)))
        assert _pairs(eval_ruleset(g, rules)) == expected


def test_random_nre_equivalence():
    rng = random.Random(63)
    for _ in range(10):
        g = gen.rand_labeled_digraph(rng, max_nodes=4, max_edges=6)
        expr = gen.rand_nre(rng, rng.randint(1, 3))
        expected = recursive_nre(g, expr)
        got = _pairs(eval_ruleset(g, translate_nre(expr)))
        assert got == expected


def test_nested_nests_answer_within_the_ceiling():
    # A way back by unlabeled backward steps may cross any edge; on this
    # graph, such ways back from `[a]` and `[c]` exceed the answer ceiling.
    edges = [
        ("d0", "n0", "n0", "a"), ("d1", "n1", "n0", "a"), ("d2", "n1", "n0", "a"),
        ("d3", "n1", "n1", "b"), ("d6", "n0", "n0", "b"),
        ("d4", "n0", "n0", "c"), ("d5", "n0", "n1", "c"), ("d7", "n1", "n1", "c"),
    ]
    g = validate_graph(
        {
            "nodes": [{"id": "n0"}, {"id": "n1"}],
            "directed_edges": [
                {"id": i, "src": s, "tgt": t, "labels": [label]} for i, s, t, label in edges
            ],
        }
    )
    expr = parse_nre("[[[a] b] [c]] [[a]]")
    assert recursive_nre(g, expr) == {("n0", "n0"), ("n1", "n1")}
    for mode in ("grouping", "dynamic"):
        config = EvalConfig(collect_mode=mode)
        assert _pairs(eval_ruleset(g, translate_nre(expr), config)) == recursive_nre(g, expr)


# Nest bodies of every shape the translation builds: a label, an inverse
# label, closures of each, concatenation, union, and a nest inside a nest;
# then nests inside closures.
NEST_SHAPES = [
    "[b]", "[b-]", "[b+]", "[b*]", "[(b-)+]", "[b c]", "[b | c]", "[(b | c)+]",
    "[(b c)*]", "[b [c]]", "a [b] c", "[b*] a+", "(a [b | c])+", "(a [b+])+",
    "(a [b-] c)*", "([b c] a)+ | [c-]",
]


def test_every_nest_shape_matches_recursive_nre():
    rng = random.Random(1919)
    exprs = [parse_nre(text) for text in NEST_SHAPES]
    for _ in range(40):
        g = gen.rand_labeled_digraph(rng, max_nodes=5, max_edges=8)
        for expr in exprs:
            got = _pairs(eval_ruleset(g, translate_nre(expr)))
            assert got == recursive_nre(g, expr), (gen.nre_text(expr), g)
    assert "[<-[:b]-] + [<-[:c]-]" in render(translate_nre(parse_nre("[b | c]")))


def test_ruleset_heads_must_share_one_arity():
    q = parse_query("SHORTEST (x) -> (y)")
    with pytest.raises(ValueError, match="arity"):
        RuleSet((Rule(("x",), q), Rule(("x", "y"), q)))


def test_ruleset_shares_one_evaluator(monkeypatch, g_intro):
    from gpc import engine

    built = []

    class Counting(engine._Evaluator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(engine, "_Evaluator", Counting)
    rules = parse_ruleset(
        "Ans(x) <- SHORTEST (x)-[e]->{1..}(y); Ans(y) <- SHORTEST (x)-[e]->(y)"
    )
    assert {t[0].id for t in eval_ruleset(g_intro, rules)} == {"nA", "nB", "nC"}
    assert len(built) == 1


def test_ruleset_tuples_meet_the_answer_ceiling(g_intro):
    # Each rule gives three tuples, within the ceiling; their union does not.
    rules = parse_ruleset("Ans(x) <- SHORTEST (x); Ans(e) <- SHORTEST ()-[e]->()")
    assert len(eval_ruleset(g_intro, rules, EvalConfig(max_answers=6))) == 6
    with pytest.raises(ResourceLimitError):
        eval_ruleset(g_intro, rules, EvalConfig(max_answers=4))


def _body_projection(graph, rules, cfg) -> set:
    """The union over rules of the head projections of `eval_query` of
    each rule's body."""
    return {
        tuple(answer.bindings[var] for var in rule.head)
        for rule in rules.rules
        for answer in eval_query(graph, rule.body, cfg)
    }


def test_ruleset_equals_the_head_projection_of_its_bodies(listed_legs):
    # Translated NREs and C2RPQs, and random rules over SHORTEST legs
    # between endpoint atoms, in every collect mode. The pair analysis
    # answers some legs; a head with an inner or a path variable, a leg
    # that is not plain SHORTEST, and an explicit length bound keep others
    # listing their paths. Both plans must give the bodies' projections.
    rng = random.Random(2121)
    compared = pair_answered = listed = 0
    for i in range(400):
        kind = i % 4
        if kind < 2:
            g = gen.rand_labeled_digraph(rng, max_nodes=4, max_edges=6)
            if kind == 0:
                rules = translate_nre(gen.rand_nre(rng, rng.randint(1, 3)))
            else:
                rules = translate_c2rpq(gen.rand_c2rpq(rng))
        else:
            g = gen.rand_graph(rng)
            drawn = [gen.rand_endpoint_rule(rng) for _ in range(rng.randint(1, 2))]
            if None in drawn:
                continue
            rules = RuleSet(tuple(drawn))
        cfg = EvalConfig(
            collect_mode=COLLECT_MODES[i % 3],
            max_len=rng.choice((1, 3)) if rng.random() < 0.2 else None,
        )
        try:
            expected = _body_projection(g, rules, cfg)
        except ResourceLimitError:
            continue  # where no body answers, the rule set may
        except TypeCheckError:
            with pytest.raises(TypeCheckError):
                eval_ruleset(g, rules, cfg)
            continue
        listed_legs.clear()
        assert eval_ruleset(g, rules, cfg) == expected, (render(rules), cfg)
        compared += 1
        # A leg that lists no stratum is answered by the pair analysis.
        listed += len(listed_legs)
        pair_answered += len(list(query_patterns(rules))) - len(listed_legs)
    assert compared > 300
    assert pair_answered > 100 and listed > 100


def _endpoint_leg(pattern, tgt):
    """`SHORTEST (s) pattern (tgt)`."""
    return Restricted(
        Restrictor.SHORTEST,
        Concat(Concat(NodePat(Descriptor("s")), pattern), NodePat(Descriptor(tgt))),
    )


def test_loop_legs_answer_from_the_pair_analysis(listed_legs):
    # A head that names the one variable of both endpoints is answered by
    # the pair analysis alone, which must keep only loops: the endpoint
    # atom re-checks the variable where the other end binds it. Legs over
    # a random pattern of one length list their one stratum instead.
    rng = random.Random(3131)
    fixed = [
        parse_pattern("-[:a]->{1..}"),
        parse_pattern("->{1..} () ->{1..}"),
        parse_pattern("[-[:a]-> + <-[:b]-]{1..}"),
    ]
    compared = pair_answered = answered = open_ended = 0
    for i in range(300):
        g = gen.rand_graph(rng)
        pattern = fixed[i // 6 % 3] if i % 2 else gen.rand_pattern(rng, 3)
        cfg = EvalConfig(collect_mode=COLLECT_MODES[i % 3])
        rules = RuleSet((Rule(("s",), _endpoint_leg(pattern, "s")),))
        # The patterns name neither s nor t, so `(s) π (s)` answers the
        # loops of `(s) π (t)`. That is checked first: a pair analysis that
        # keeps other pairs also keeps the body's listing from stopping.
        pairs = RuleSet((Rule(("s", "t"), _endpoint_leg(pattern, "t")),))
        listed_legs.clear()
        try:
            loop_pairs = satisfiable_pairs(g, rules.rules[0].body.pattern, cfg.collect_mode)
            assert all(a == b for a, b in loop_pairs), (render(rules), cfg)
            got = eval_ruleset(g, rules, cfg)
            listed = list(listed_legs)
            between = eval_ruleset(g, pairs, cfg)
            assert got == {(a,) for a, b in between if a == b}, (render(rules), cfg)
            expected = _body_projection(g, rules, cfg)
        except (ResourceLimitError, TypeCheckError):
            continue
        assert got == expected, (render(rules), cfg)
        assert listed == [] or i % 2 == 0
        compared += 1
        pair_answered += not listed
        answered += bool(expected)
        open_ended += any(a != b for a, b in _pairs(between))
    assert compared > 250
    assert pair_answered > 150 and answered > 100 and open_ended > 75


def _two_cycle():
    return validate_graph(
        {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "directed_edges": [
                {"id": "e1", "src": "a", "tgt": "b"},
                {"id": "e2", "src": "b", "tgt": "a"},
            ],
        }
    )


def test_ruleset_answers_past_the_bound_ceiling():
    # The leg's one stratum lies past the 10^6 ceiling of the default bound.
    # Its query form refuses; the rule needs only its endpoint pairs.
    g = _two_cycle()
    rules = parse_ruleset("Ans(x, y) <- SHORTEST (x) ->{1000001} (y)")
    assert _pairs(eval_ruleset(g, rules)) == {("a", "b"), ("b", "a")}
    with pytest.raises(ResourceLimitError, match="bound ceiling"):
        eval_query(g, rules.rules[0].body)


def test_nested_nests_answer_from_the_pair_analysis(listed_legs):
    # Listing every path of each nest's excursion exceeds the answer
    # ceiling here; the pair analysis answers the one leg, listing none.
    edges = [
        ("n0", "n1", "b"), ("n0", "n1", "b"), ("n0", "n1", "b"), ("n1", "n1", "a"),
        ("n1", "n1", "c"), ("n1", "n0", "a"), ("n0", "n0", "b"),
    ]
    g = validate_graph(
        {
            "nodes": [{"id": "n0"}, {"id": "n1"}],
            "directed_edges": [
                {"id": f"d{i}", "src": s, "tgt": t, "labels": [label]}
                for i, (s, t, label) in enumerate(edges)
            ],
        }
    )
    expr = parse_nre("([([(c | b)] ([b] b))] ([a-])+)")
    rules = translate_nre(expr)
    got = _pairs(eval_ruleset(g, rules))
    assert got == recursive_nre(g, expr) == {("n0", "n0")}
    assert listed_legs == []
    with pytest.raises(ResourceLimitError, match="ceiling"):
        eval_query(g, rules.rules[0].body)
