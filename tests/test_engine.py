import collections
import dataclasses
import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpc import (
    Assignment,
    Concat,
    Cond,
    Descriptor,
    Direction,
    EdgePat,
    NodePat,
    Repeat,
    Restricted,
    Rule,
    RuleSet,
    Union_,
    EdgeVal,
    EvalConfig,
    GroupVal,
    Join,
    NodeVal,
    NOTHING,
    Path,
    PathVal,
    ResourceLimitError,
    Restrictor,
    TypeCheckError,
    brute_force_query,
    collect_fn,
    default_length_bound,
    enumerate_paths,
    eval_pattern,
    eval_query,
    eval_ruleset,
    infer_schema,
    naive_match,
    parse_c2rpq,
    parse_pattern,
    parse_query,
    parse_ruleset,
    path,
    power,
    refactor,
    satisfies,
    translate_c2rpq,
    unify,
    validate_for_mode,
    validate_graph,
)
from gpc import engine, typecheck
from gpc.ast import And, Not, Or, PropEqConst, PropEqProp, expr_vars, match_lengths, subpatterns
from gpc.engine import COLLECT_MODES, ruleset_rows, satisfiable_pairs
from gpc.render import render
from gpc.typecheck import check_ruleset
from gpc.values import EMPTY

import gen


# -- conditions ---------------------------------------------------------------


def test_satisfies_examples(g_tiny):
    mu = Assignment({"x": NodeVal("n1")})
    assert satisfies(g_tiny, mu, PropEqConst("x", "k", "5"))
    assert not satisfies(g_tiny, mu, PropEqConst("x", "missing", "5"))
    assert satisfies(g_tiny, mu, Not(PropEqConst("x", "missing", "5")))
    # strict same-kind comparison: "5" is not 5
    assert not satisfies(g_tiny, mu, PropEqConst("x", "k", 5))
    # every condition variable must be bound to a node or an edge
    for y in ({}, {"y": NOTHING}, {"y": GroupVal(())}):
        binding = Assignment({"x": NodeVal("n1"), **y})
        for theta in (PropEqConst("y", "k", "5"), PropEqProp("x", "k", "y", "k")):
            with pytest.raises(KeyError):
                satisfies(g_tiny, binding, theta)


def _nestings(theta) -> set:
    """The (outer, inner) kinds of each And, Or or Not directly holding
    another one in the condition."""
    operands = (theta.operand,) if isinstance(theta, Not) else (
        (theta.left, theta.right) if isinstance(theta, (And, Or)) else ()
    )
    out = {(type(theta), type(op)) for op in operands if isinstance(op, (And, Or, Not))}
    for op in operands:
        out |= _nestings(op)
    return out


def test_satisfies_agrees_with_the_oracle():
    # The evaluator compiles each condition once into a test; `satisfies`
    # runs that test, and the oracle interprets the condition itself.
    from gpc.oracle import _holds

    nestings, outcomes = set(), set()
    for i in range(500):
        rng = random.Random(f"satisfies:{i}")
        g = gen.rand_graph(rng)
        elements = sorted(g.nodes) + sorted(g.directed_edges) + sorted(g.undirected_edges)
        mu = Assignment(
            {
                var: NodeVal(el) if el in g.nodes else EdgeVal(el)
                for var in gen.VAR_POOL
                for el in [rng.choice(elements)]
            }
        )
        theta = gen.rand_condition(rng, list(gen.VAR_POOL), depth=4)
        got = satisfies(g, mu, theta)
        assert got == _holds(g, mu, theta), (i, theta, mu)
        nestings |= _nestings(theta)
        outcomes.add(got)
    kinds = (And, Or, Not)
    assert {(a, b) for a in kinds for b in kinds} <= nestings
    assert outcomes == {True, False}


def test_satisfies_compares_kinds_strictly_and_undefined_is_false():
    from gpc.oracle import _holds

    g = validate_graph(
        {
            "nodes": [
                {"id": "n1", "properties": {"k": 1, "m": True}},
                {"id": "n2", "properties": {"k": "1"}},
            ],
            "directed_edges": [
                {"id": "d1", "src": "n1", "tgt": "n2", "properties": {"k": True}}
            ],
            "undirected_edges": [{"id": "u1", "endpoints": ["n2"], "properties": {"m": 1}}],
        }
    )
    mu = Assignment(
        {"x": NodeVal("n1"), "y": NodeVal("n2"), "e": EdgeVal("d1"), "u": EdgeVal("u1")}
    )
    one, one_str = PropEqConst("x", "k", 1), PropEqConst("y", "k", "1")
    true = PropEqConst("e", "k", True)
    cases = [
        # 1 against 1, "1" and True
        (one, True),
        (PropEqConst("y", "k", 1), False),
        (PropEqConst("e", "k", 1), False),
        (PropEqConst("x", "m", 1), False),
        (true, True),
        (one_str, True),
        (PropEqProp("x", "k", "u", "m"), True),
        (PropEqProp("x", "k", "y", "k"), False),
        (PropEqProp("x", "k", "e", "k"), False),
        (PropEqProp("x", "m", "e", "k"), True),
        # an undefined side, either one, or both
        (PropEqProp("x", "none", "y", "k"), False),
        (PropEqProp("y", "k", "x", "none"), False),
        (PropEqProp("x", "none", "y", "none"), False),
        (Not(PropEqProp("u", "k", "x", "k")), True),
        (PropEqConst("u", "k", 1), False),
        # nested connectives
        (Or(Not(one_str), Not(And(one, true))), False),
        (And(Not(PropEqConst("y", "k", 1)), Or(PropEqConst("x", "k", "1"), true)), True),
        (Not(Or(Not(one), And(true, Not(one_str)))), True),
        (Or(And(one, Not(true)), Not(Or(Not(one_str), Not(one)))), True),
    ]
    for theta, expected in cases:
        assert satisfies(g, mu, theta) is expected, theta
        assert _holds(g, mu, theta) is expected, theta


# -- refactor and collect -----------------------------------------------------


def test_refactor_figure():
    bounds = refactor([1, 2, 0, 0, 0, 3, 0, 2, 0, 0])
    groups = [
        [1, 2, 0, 0, 0, 3, 0, 2, 0, 0][bounds[i] : bounds[i + 1]]
        for i in range(len(bounds) - 1)
    ]
    assert groups == [[1], [2], [0, 0, 0], [3], [0], [2], [0, 0]]


def test_refactor_simple_cases():
    assert refactor([1, 1, 1]) == [0, 1, 2, 3]
    assert refactor([0, 0]) == [0, 2]
    with pytest.raises(ValueError):
        refactor([])


def _seg(p, **bindings):
    return (p, Assignment(bindings))


def test_collect_positive_segments_all_modes_agree():
    segments = [
        _seg(path("a", "e1", "b"), x=EdgeVal("e1")),
        _seg(path("b", "e2", "c"), x=EdgeVal("e2")),
    ]
    expected = Assignment(
        {
            "x": GroupVal(
                (
                    (path("a", "e1", "b"), EdgeVal("e1")),
                    (path("b", "e2", "c"), EdgeVal("e2")),
                )
            )
        }
    )
    for mode in ("syntactic", "dynamic", "grouping"):
        assert collect_fn(mode, segments) == expected


def test_collect_dynamic_rejects_edgeless():
    segments = [_seg(path("a"), x=NodeVal("a")), _seg(path("a", "e", "b"), x=EdgeVal("e"))]
    assert collect_fn("dynamic", segments) is None


def test_collect_grouping_merges_equal_edgeless():
    segments = [_seg(path("u"), x=NodeVal("u")), _seg(path("u"), x=NodeVal("u"))]
    assert collect_fn("grouping", segments) == Assignment(
        {"x": GroupVal(((path("u"), NodeVal("u")),))}
    )


def test_collect_grouping_rejects_conflicting_edgeless():
    segments = [_seg(path("u"), x=NodeVal("u")), _seg(path("u"), x=NOTHING)]
    assert collect_fn("grouping", segments) is None
    merged = collect_fn("grouping", segments, lenient=True)
    assert merged == Assignment({"x": GroupVal(((path("u"), NodeVal("u")),))})


def _stream_collect(segments, lenient, domain):
    """Incremental replica of the repeat machine's group construction."""
    closed = []
    open_mu = None
    open_node = None
    for p, mu in segments:
        if p.length == 0:
            merged = mu if open_mu is None else unify(open_mu, mu, lenient)
            if merged is None:
                return None
            open_mu, open_node = merged, p.src
        else:
            if open_mu is not None:
                closed.append((path(open_node), open_mu))
                open_mu = None
            closed.append((p, mu))
    if open_mu is not None:
        closed.append((path(open_node), open_mu))
    return Assignment(
        {x: GroupVal(tuple((p, mu[x]) for p, mu in closed)) for x in domain}
    )


def test_incremental_collect_matches_batch():
    rng = random.Random(21)
    nodes = ["a", "b", "c"]
    values = [NodeVal("a"), NodeVal("b"), NOTHING]
    for lenient in (False, True):
        for _ in range(300):
            at = rng.choice(nodes)
            segments = []
            for i in range(rng.randint(1, 6)):
                mu = Assignment({"x": rng.choice(values)})
                if rng.random() < 0.5:
                    segments.append((path(at), mu))
                else:
                    nxt = rng.choice(nodes)
                    segments.append((path(at, f"e{i}", nxt), mu))
                    at = nxt
            batch = collect_fn("grouping", segments, lenient)
            stream = _stream_collect(segments, lenient, ("x",))
            assert batch == stream


# -- atomic and compound evaluation --------------------------------------------


def test_single_label_node(g_tiny):
    got = eval_pattern(g_tiny, parse_pattern("(x:A)"), EvalConfig(max_len=2))
    assert got == {(path("n1"), Assignment({"x": NodeVal("n1")}))}


def test_undirected_self_loop_single_answer(g_tiny):
    got = eval_pattern(g_tiny, parse_pattern("-[z]-"), EvalConfig(max_len=2))
    assert got == {(path("n2", "u1", "n2"), Assignment({"z": EdgeVal("u1")}))}


def test_undirected_edge_two_orientations(g_undirected_pair):
    got = eval_pattern(g_undirected_pair, parse_pattern("-[z]-"), EvalConfig(max_len=1))
    mu = Assignment({"z": EdgeVal("u2")})
    assert got == {(path("n1", "u2", "n2"), mu), (path("n2", "u2", "n1"), mu)}


def test_directed_self_loop_matches_both_directions():
    g = validate_graph(
        {
            "nodes": [{"id": "n"}],
            "directed_edges": [{"id": "e", "src": "n", "tgt": "n"}],
        }
    )
    fwd = eval_pattern(g, parse_pattern("->"), EvalConfig(max_len=1))
    bwd = eval_pattern(g, parse_pattern("<-"), EvalConfig(max_len=1))
    assert fwd == bwd == {(path("n", "e", "n"), EMPTY)}


def test_condition_filters(g_tiny):
    got = eval_pattern(
        g_tiny,
        parse_pattern("[(x:A)-[:a]->(y:B)] <x.k = y.k>"),
        EvalConfig(max_len=2),
    )
    assert got == {
        (
            path("n1", "e1", "n2"),
            Assignment({"x": NodeVal("n1"), "y": NodeVal("n2")}),
        )
    }


def test_union_extends_missing_vars_to_nothing(g_tiny):
    got = eval_pattern(
        g_tiny, parse_pattern("[(x)-[e]->()] + [(x)]"), EvalConfig(max_len=2)
    )
    schema = infer_schema(parse_pattern("[(x)-[e]->()] + [(x)]"))
    for p, mu in got:
        assert set(mu) == set(schema)
        assert mu.conforms_to(schema)
    nothing_answers = {(p, mu) for p, mu in got if mu["e"] is NOTHING}
    assert {p for p, _ in nothing_answers} == {path("n1"), path("n2")}


def test_grouping_star_example(g_tiny):
    got = eval_pattern(g_tiny, parse_pattern("[-[g]->]{0..}"), EvalConfig(max_len=2))
    assert got == {
        (path("n1"), Assignment({"g": GroupVal(())})),
        (path("n2"), Assignment({"g": GroupVal(())})),
        (
            path("n1", "e1", "n2"),
            Assignment(
                {"g": GroupVal(((path("n1", "e1", "n2"), EdgeVal("e1")),))}
            ),
        ),
    }


def test_edgeless_concat_joins_on_same_node(g_tiny):
    got = eval_pattern(g_tiny, parse_pattern("(x)(y)"), EvalConfig(max_len=0))
    expected = {
        (path(n), Assignment({"x": NodeVal(n), "y": NodeVal(n)}))
        for n in ("n1", "n2")
    }
    assert got == expected


def test_max_len_respected(g_exp):
    cfg = EvalConfig(max_len=2)
    got = eval_pattern(g_exp, parse_pattern("[->]{0..}"), cfg)
    assert all(p.length <= 2 for p, _ in got)
    assert any(p.length == 2 for p, _ in got)


def test_resource_ceiling(g_exp):
    cfg = EvalConfig(max_len=6, max_answers=10)
    with pytest.raises(ResourceLimitError):
        eval_pattern(g_exp, parse_pattern("[-[g]->]{0..}"), cfg)


def test_answer_ceiling_counts_each_leg_afresh():
    # Both legs of the join are one pattern object. The ceiling counts a
    # subpattern's answers over one leg's strata, so the second leg must
    # not start from the first one's counts: its edge atom alone has 50
    # answers, the whole ceiling.
    g = gen.g_random(40, 1)
    text = "SHORTEST (x:A) -[e:a]-> (y)"
    leg = parse_query(text)
    cfg = EvalConfig(max_answers=50)
    assert len(eval_query(g, leg, cfg)) == 22
    shared = eval_query(g, Join(leg, leg), cfg)
    assert shared == eval_query(g, Join(leg, parse_query(text)), cfg)
    assert len(shared) == 22


def test_huge_repetition_bounds_collapse():
    """Counts beyond the stabilization bound reuse the stable power, so
    astronomically large quantifiers evaluate immediately."""
    g = validate_graph({"nodes": [{"id": "n"}]})
    import time

    started = time.monotonic()
    big = eval_pattern(g, parse_pattern("(x){5..100000000}"), EvalConfig(max_len=1))
    open_bound = eval_pattern(g, parse_pattern("(x){99999999..}"), EvalConfig(max_len=1))
    assert time.monotonic() - started < 1.0
    expected = {
        (path("n"), Assignment({"x": GroupVal(((path("n"), NodeVal("n")),))}))
    }
    assert big == open_bound == expected
    # n > hi window that is entirely above the stable regime still matches
    small = eval_pattern(g, parse_pattern("(x){2..3}"), EvalConfig(max_len=1))
    assert small == expected


def _cycle(n):
    """A directed n-cycle whose odd nodes carry label A."""
    return validate_graph(
        {
            "nodes": [
                {"id": f"n{i}", "labels": ["A"] if i % 2 else []} for i in range(n)
            ],
            "directed_edges": [
                {"id": f"e{i}", "src": f"n{i}", "tgt": f"n{(i + 1) % n}"}
                for i in range(n)
            ],
        }
    )


@pytest.mark.parametrize(
    "text, lenient, count",
    [
        ("SHORTEST (x) [(y) + -[e]->]{100000..} (z)", False, 720),
        ("SHORTEST (x) [(y) + -[e]->]{3..100000} (z)", False, 738),
        ("SHORTEST (x) [[(y) + (z:A)] + -[e]->]{100000..} (w)", False, 2157),
        ("SHORTEST (x) [[(y) + (z:A)] + -[e]->]{100000..} (w)", True, 4782),
    ],
)
def test_large_repetition_counts_on_cycle(monkeypatch, text, lenient, count):
    # A repetition whose groups hold an edgeless run reaches any count at
    # or above its own with the same bindings, so these counts are met by
    # the answers of short paths. Building the counts one by one would
    # charge about 10^5 states; these queries charge at most 14,526.
    built = []

    class Recording(engine._Evaluator):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(engine, "_Evaluator", Recording)
    answers = eval_query(_cycle(6), parse_query(text), EvalConfig(lenient_unify=lenient))
    assert len(answers) == count
    (evaluator,) = built
    assert evaluator.work < 30_000


def test_repetition_that_dies_out_stops_early():
    # No a-edge exists, so no repetition state outlives length 0: the
    # stratum at length 10^6 must not build every shorter length.
    import time

    started = time.monotonic()
    query = parse_query("SHORTEST (x) -[:a]->{1000000..} (y)")
    assert eval_query(_cycle(6), query) == set()
    assert time.monotonic() - started < 1.0


def test_negative_limits_rejected():
    with pytest.raises(ValueError):
        EvalConfig(max_len=-1)
    with pytest.raises(ValueError):
        EvalConfig(max_answers=-1)


# -- powers ---------------------------------------------------------------------


def test_power_zero_maps_group_vars_to_empty_list(g_two_plus_edge):
    got = power(g_two_plus_edge, parse_pattern("-[g]->"), 0, EvalConfig(max_len=2))
    assert got == {
        (path("u"), Assignment({"g": GroupVal(())})),
        (path("v"), Assignment({"g": GroupVal(())})),
    }


def test_power_one_wraps_each_binding(g_two_plus_edge):
    got = power(g_two_plus_edge, parse_pattern("-[g]->"), 1, EvalConfig(max_len=2))
    assert got == {
        (
            path("u", "e", "v"),
            Assignment({"g": GroupVal(((path("u", "e", "v"), EdgeVal("e")),))}),
        )
    }


def test_power_two_on_chain():
    g = validate_graph(
        {
            "nodes": [{"id": "n1"}, {"id": "n2"}, {"id": "n3"}],
            "directed_edges": [
                {"id": "e1", "src": "n1", "tgt": "n2"},
                {"id": "e2", "src": "n2", "tgt": "n3"},
            ],
        }
    )
    got = power(g, parse_pattern("-[g]->"), 2, EvalConfig(max_len=4))
    assert got == {
        (
            path("n1", "e1", "n2", "e2", "n3"),
            Assignment(
                {
                    "g": GroupVal(
                        (
                            (path("n1", "e1", "n2"), EdgeVal("e1")),
                            (path("n2", "e2", "n3"), EdgeVal("e2")),
                        )
                    )
                }
            ),
        )
    }


# -- bounds and reachability ------------------------------------------------------


def test_default_length_bounds():
    g5 = validate_graph({"nodes": [{"id": f"n{i}"} for i in range(5)]})
    pat = parse_pattern("->")
    assert default_length_bound(Restrictor.SIMPLE, g5, pat) == 5
    g_edges = validate_graph(
        {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "directed_edges": [
                {"id": f"d{i}", "src": "a", "tgt": "b"} for i in range(3)
            ],
            "undirected_edges": [{"id": "u", "endpoints": ["a", "b"]}],
        }
    )
    assert default_length_bound(Restrictor.TRAIL, g_edges, pat) == 4
    shortest = default_length_bound(Restrictor.SHORTEST, g_edges, pat)
    assert default_length_bound(Restrictor.SHORTEST_TRAIL, g_edges, pat) == min(
        4, shortest
    )
    assert default_length_bound(Restrictor.SHORTEST, g_edges, pat, ceiling=10) == 10


def test_satisfiable_pairs_cover_observed_pairs():
    rng = random.Random(35)
    from gpc.ast import Restricted

    for _ in range(40):
        g = gen.rand_graph(rng)
        query = gen.well_typed_query(rng, 3)
        if not isinstance(query, Restricted):
            continue
        cfg = EvalConfig(max_len=3)
        try:
            answers = eval_pattern(g, query.pattern, cfg)
        except ResourceLimitError:
            continue
        observed = {(p.src, p.tgt) for p, _ in answers}
        sat = satisfiable_pairs(g, query.pattern, cfg.collect_mode)
        assert observed <= sat


def test_satisfiable_pairs_are_exactly_the_shortest_endpoints():
    # At default bounds SHORTEST answers every pair the pattern connects,
    # so the analysis must name those pairs, no more and no fewer.
    from gpc.ast import Restricted

    rng = random.Random(38)
    checked = 0
    for _ in range(600):
        g = gen.rand_graph(rng)
        pattern = gen.rand_pattern(rng, 4)
        mode = rng.choice(COLLECT_MODES)
        query = Restricted(Restrictor.SHORTEST, pattern)
        try:
            infer_schema(query)
            validate_for_mode(query, mode)
            answers = eval_query(g, query, EvalConfig(collect_mode=mode))
        except (TypeCheckError, ResourceLimitError):
            continue
        observed = {(a.paths[0].src, a.paths[0].tgt) for a in answers}
        assert satisfiable_pairs(g, pattern, mode) == observed
        checked += 1
    assert checked > 400


def _bfs_label_pairs(g, step):
    """(s, t) with s an A-node, t a B-node, and 1 or more a-steps from s to t.

    `step` is "->", "<-" or "-": which edges an a-step uses, and which way.
    """
    succ: dict = {}
    for e, (src, tgt) in g.directed_edges.items():
        if "a" in g.label_set(e) and step != "-":
            u, v = (src, tgt) if step == "->" else (tgt, src)
            succ.setdefault(u, set()).add(v)
    for e, ends in g.undirected_edges.items():
        if "a" in g.label_set(e) and step == "-":
            for u in ends:
                succ.setdefault(u, set()).update(ends - {u} or ends)
    pairs = set()
    for s in g.nodes:
        if "A" not in g.label_set(s):
            continue
        seen: set = set()
        frontier = list(succ.get(s, ()))
        while frontier:
            u = frontier.pop()
            if u not in seen:
                seen.add(u)
                frontier.extend(succ.get(u, ()))
        pairs |= {(s, t) for t in seen if "B" in g.label_set(t)}
    return pairs


@pytest.mark.parametrize("step", ["->", "<-", "-"])
def test_satisfiable_pairs_match_a_breadth_first_search(step):
    # An independent pin for the analysis: node atoms on both sides filter
    # the repetition's endpoints, and a BFS written here finds the pairs.
    edge = {"->": "-[:a]->", "<-": "<-[:a]-", "-": "-[:a]-"}[step]
    pattern = parse_pattern(f"(x:A) {edge}{{1..}} (y:B)")
    rng = random.Random(42)
    nonempty = 0
    for _ in range(60):
        g = gen.rand_graph(rng, 6, 10)
        expected = _bfs_label_pairs(g, step)
        assert satisfiable_pairs(g, pattern) == expected
        nonempty += bool(expected)
    assert nonempty > 10


def _steps(g, label=None):
    """The directed edges with `label` (any, if None), as a successor map."""
    succ: dict = {}
    for e, (src, tgt) in g.directed_edges.items():
        if label is None or label in g.label_set(e):
            succ.setdefault(src, set()).add(tgt)
    return succ


def _walk_targets(succ, src):
    """The nodes that a walk of one or more steps from src reaches."""
    seen: set = set()
    frontier = list(succ.get(src, ()))
    while frontier:
        u = frontier.pop()
        if u not in seen:
            seen.add(u)
            frontier.extend(succ.get(u, ()))
    return seen


def _cycles_back(g, text):
    """The (n, n) pairs of the three patterns below, by a search here."""
    a, b, any_edge = _steps(g, "a"), _steps(g, "b"), _steps(g)
    labelled_a = {n for n in g.nodes if "A" in g.label_set(n)}
    if text == "(x) -[:a]->{1..} (x)":
        return {(n, n) for n in g.nodes if n in _walk_targets(a, n)}
    if text == "(x:A) -[e:a]-> (y) -[f]-> (x)":
        return {
            (n, n) for n in labelled_a if any(n in any_edge.get(m, ()) for m in a.get(n, ()))
        }
    return {(n, n) for n in labelled_a if any(n in _walk_targets(b, m) for m in a.get(n, ()))}


@pytest.mark.parametrize(
    "text",
    [
        # the last atom re-checks the variable that the first one binds
        "(x) -[:a]->{1..} (x)",
        "(x:A) -[e:a]-> (y) -[f]-> (x)",
        # the two operands of a concatenation share x at its two ends
        "[(x:A) -[:a]-> (y)] [(y) -[:b]->{1..} (x)]",
    ],
)
def test_pair_analysis_keeps_the_bindings_an_operator_compares(text):
    # The analysis drops every binding that no operator above compares, so
    # a variable bound at one end and compared at the other must survive.
    # A walk from n back to n is found here without the engine.
    pattern = parse_pattern(text)
    rng = random.Random(text)
    closed = 0
    for _ in range(60):
        g = gen.rand_graph(rng, 6, 10)
        expected = _cycles_back(g, text)
        assert satisfiable_pairs(g, pattern) == expected
        closed += bool(expected)
    assert closed > 10


def test_finite_window_on_a_complete_digraph_runs_the_pair_analysis():
    # Every pair is answered at length 1 or 2, which the analysis sees, so
    # the leg never builds the 20 x 19^3 walks of length 3. Without the
    # analysis the answer ceiling stops the leg at that stratum.
    nodes = [f"n{i}" for i in range(20)]
    g = validate_graph(
        {
            "nodes": [{"id": n} for n in nodes],
            "directed_edges": [
                {"id": f"{s}-{t}", "src": s, "tgt": t} for s in nodes for t in nodes if s != t
            ],
        }
    )
    answers = eval_query(g, parse_query("SHORTEST (x) -[e]->{1..3} (y)"))
    # 380 pairs of distinct nodes at length 1, and 20 x 19 two-step walks
    # from each node back to itself.
    assert len(answers) == 760


def test_pair_analysis_stops_where_the_pattern_cannot_die_out():
    # Every pair is covered at length 0, which the analysis sees at once. A
    # stop that waited for the huge-count branch to die out would walk a
    # million lengths first.
    g = validate_graph(
        {
            "nodes": [{"id": "n"}],
            "directed_edges": [
                {"id": f"b{i}", "src": "n", "tgt": "n", "labels": ["b"]} for i in range(3)
            ]
            + [{"id": "d", "src": "n", "tgt": "n"}],
            "undirected_edges": [{"id": "u", "endpoints": ["n"]}],
        }
    )
    query = parse_query(
        "SHORTEST [<-[:b]-{1000000..2000000} [() + (:B)]] + [(){0..3} + () --]"
    )
    start = time.perf_counter()
    answers = eval_query(g, query, EvalConfig())
    assert time.perf_counter() - start < 1.0
    assert [a.paths for a in answers] == [(path("n"),)]


def test_pair_analysis_charges_the_evaluator(g_intro):
    pattern = parse_pattern("(x)-[e]->{1..}(y)")
    evaluator = engine._Evaluator(g_intro, EvalConfig())
    assert satisfiable_pairs(g_intro, pattern, "grouping", evaluator)
    assert evaluator.work > 0
    evaluator = engine._Evaluator(g_intro, EvalConfig())
    evaluator.work_limit = 3
    with pytest.raises(ResourceLimitError):
        satisfiable_pairs(g_intro, pattern, "grouping", evaluator)


# -- match-length window -----------------------------------------------------


@pytest.mark.parametrize(
    "text, window",
    [
        ("(x) -[e]-> (y) -> (z)", (2, 2)),
        ("[-[:a]->] + [-[:a]-> -[:b]->]", (1, 2)),
        ("-[e]->{2..3}", (2, 3)),
        ("[-> <-]{1..}", (2, None)),
        ("[() + ->]{0..2}", (0, 2)),
        ("[(x) (y)]{1..}", (0, 0)),
        ("[(x) -> (y)] <x.k = 1>", (1, 1)),
    ],
)
def test_match_lengths(text, window):
    assert match_lengths(parse_pattern(text)) == window


@pytest.mark.parametrize("mode", COLLECT_MODES)
@pytest.mark.parametrize(
    "restrictor", ["SHORTEST", "SHORTEST TRAIL", "SHORTEST SIMPLE", "TRAIL", "SIMPLE"]
)
@pytest.mark.parametrize(
    "text, longest",
    [
        ("(x) -[e]->{2..3} (y)", 3),
        ("(x) [[-[:a]->] + [-[:a]-> -[:b]->]] (y)", 2),
        ("(:A) -[:a]->{1..3} (:B)", 3),
        ("[-[:a]->] + [-[:a]-> -[:b]->]", 2),
        ("[-[:a]->{1..2}]{1..2}", 4),
        ("(x) [-[e]-> (y)]{1..2}", 2),
    ],
)
def test_window_matches_oracle_at_default_bounds(text, longest, restrictor, mode):
    query = parse_query(f"{restrictor} {text}")
    rng = random.Random(37)
    for _ in range(30):
        g = gen.rand_graph(rng)
        # No match is longer than `longest`, so the oracle's answers at that
        # bound are its answers at any larger one; the default SHORTEST bound
        # itself lies beyond the oracle's path budget.
        expected = brute_force_query(
            g, query, EvalConfig(collect_mode=mode, max_len=longest)
        )
        assert eval_query(g, query, EvalConfig(collect_mode=mode)) == expected


def test_variable_free_shortest_on_cyclic_graph():
    # An a-chain n0 -> ... -> n9 from the only A to the only B. The b edges
    # i -> i+1, i+2, i+3 (mod 10) give the graph over 100000 walks of length
    # 5 (edges traversed either way), none of which the pattern can use.
    labels = ["A"] + ["C"] * 8 + ["B"]
    g = validate_graph(
        {
            "nodes": [{"id": f"n{i}", "labels": [lab]} for i, lab in enumerate(labels)],
            "directed_edges": [
                {"id": f"a{i}", "src": f"n{i}", "tgt": f"n{i + 1}", "labels": ["a"]}
                for i in range(9)
            ]
            + [
                {"id": f"b{i}_{k}", "src": f"n{i}", "tgt": f"n{(i + k) % 10}", "labels": ["b"]}
                for i in range(10)
                for k in (1, 2, 3)
            ],
        }
    )
    chain = path(*[x for i in range(9) for x in (f"n{i}", f"a{i}")], "n9")
    free = eval_query(g, parse_query("SHORTEST (:A) -[:a]->{1..} (:B)"))
    named = eval_query(g, parse_query("SHORTEST (x:A) -[:a]->{1..} (:B)"))
    assert [a.paths for a in free] == [a.paths for a in named] == [(chain,)]


@pytest.mark.parametrize("mode", COLLECT_MODES)
@pytest.mark.parametrize("restrictor", ["TRAIL", "SHORTEST"])
def test_variable_free_repetition_of_repetition_on_long_chain(restrictor, mode):
    # Every path along the chain splits into segments of one or two edges
    # in Fib(length + 1) ways, about 1.6e8 for the whole chain. A variable-
    # free body records no segmentation, so the work stays near the number
    # of (path, count) states.
    g = validate_graph(
        {
            "nodes": [{"id": f"n{i}"} for i in range(41)],
            "directed_edges": [
                {"id": f"a{i}", "src": f"n{i}", "tgt": f"n{i + 1}", "labels": ["a"]}
                for i in range(40)
            ],
        }
    )
    query = parse_query(f"{restrictor} [-[:a]->{{1..2}}]{{1..}}")
    answers = eval_query(g, query, EvalConfig(collect_mode=mode))
    assert len(answers) == 40 * 41 // 2


def _count_pair_analyses(monkeypatch) -> list:
    calls: list = []
    original = engine.satisfiable_pairs

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "satisfiable_pairs", counting)
    return calls


def test_single_hop_shortest_skips_pair_analysis(monkeypatch, g_intro):
    calls = _count_pair_analyses(monkeypatch)
    answers = eval_query(g_intro, parse_query("SHORTEST (x)-[e]->(y)"))
    assert len(answers) == 3
    assert calls == []
    # an open repetition still needs the analysis to stop early
    eval_query(g_intro, parse_query("SHORTEST (x)-[e]->{1..}(y)"))
    assert calls


@pytest.mark.parametrize(
    "text, expected",
    [
        ("SHORTEST (x)-[e]->(y)", 0),  # one stratum
        ("TRAIL (x)-[e]->{1..}(y)", 0),  # no SHORTEST
        ("SHORTEST (x)-[e]->{1..}(y)", 1),
        ("SHORTEST (x)-[e]->{1..}(y), SHORTEST (y)-[f]->{1..}(z)", 2),
    ],
)
def test_pair_analysis_runs_once_per_leg_that_can_stop_early(
    monkeypatch, g_intro, text, expected
):
    calls = _count_pair_analyses(monkeypatch)
    eval_query(g_intro, parse_query(text))
    assert len(calls) == expected


def test_pair_analysis_runs_once_for_a_bound_cut_at_the_ceiling(monkeypatch):
    # The leg's one stratum lies past the 10^6 ceiling, so the loop runs no
    # stratum, and only the analysis can tell that pairs went unanswered.
    g = validate_graph(
        {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "directed_edges": [
                {"id": "e1", "src": "a", "tgt": "b"},
                {"id": "e2", "src": "b", "tgt": "a"},
            ],
        }
    )
    calls = _count_pair_analyses(monkeypatch)
    with pytest.raises(ResourceLimitError, match="bound ceiling"):
        eval_query(g, parse_query("SHORTEST (x) ->{1000001} (y)"))
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text, analysed, listed",
    [
        # Both legs run the analysis anyway and join on endpoints.
        ("Ans(x, z) <- (x, a+, y), (y, b+, z)", 2, 0),
        # The second leg is one hop, one stratum, and lists its paths.
        ("Ans(x, z) <- (x, a+, y), (y, b, z)", 1, 1),
        # Neither leg qualifies, so both list their paths.
        ("Ans(x, z) <- (x, a, y), (y, b, z)", 0, 2),
    ],
)
def test_the_pair_analysis_answers_endpoint_legs(
    monkeypatch, listed_legs, text, analysed, listed
):
    g = gen.g_random(12, 3)
    rules = translate_c2rpq(parse_c2rpq(text))
    analyses = _count_pair_analyses(monkeypatch)
    tuples = eval_ruleset(g, rules)
    assert tuples
    assert (len(analyses), len(listed_legs)) == (analysed, listed)
    # The query form runs the same analyses, then lists both legs.
    answers = eval_query(g, rules.rules[0].body)
    assert {tuple(a.bindings[v] for v in ("x", "z")) for a in answers} == tuples
    assert (len(analyses), len(listed_legs)) == (2 * analysed, listed + 2)


@pytest.mark.parametrize(
    "text",
    [
        "Ans(x, e) <- SHORTEST (x) -[e]->{1..} (y)",  # an inner variable
        "Ans(x, p) <- p = SHORTEST (x) ->{1..} (y)",  # a path variable
        "Ans(x, y) <- SHORTEST TRAIL (x) ->{1..} (y)",  # not plain SHORTEST
        "Ans(x, y) <- SHORTEST [(x) ->{1..} (y)] <x.k = 1>",  # no endpoint atom
    ],
)
def test_other_legs_list_their_paths(listed_legs, g_intro, text):
    eval_ruleset(g_intro, parse_ruleset(text))
    assert len(listed_legs) == 1
    eval_ruleset(g_intro, parse_ruleset("Ans(x, y) <- SHORTEST (x) ->{1..} (y)"), EvalConfig(max_len=4))
    assert len(listed_legs) == 2


def test_assignments_are_built_only_for_the_answers_returned(monkeypatch):
    # Inside the evaluator bindings are positional; an `Assignment` is built
    # once per answer that `eval_query` returns, and nowhere else.
    built = []
    init = Assignment.__init__

    def counting(self, mapping=()):
        built.append(self)
        init(self, mapping)

    monkeypatch.setattr(Assignment, "__init__", counting)
    answers = eval_query(gen.g_random(40, 1), parse_query("SHORTEST (x:A) -[e:a]-> (y)"))
    assert len(answers) > 5
    assert len(built) == len(answers)


def _walk(value, paths: set, ids: set, kinds: collections.Counter) -> None:
    """Count a value's classes, and gather its node and edge values and
    the element tuples of its paths."""
    kinds[type(value).__name__] += 1
    if isinstance(value, (NodeVal, EdgeVal)):
        ids.add(value)
    elif isinstance(value, PathVal):
        paths.add(value.path.elements)
    elif isinstance(value, GroupVal):
        for p, item in value.items:
            paths.add(p.elements)
            _walk(item, paths, ids, kinds)


def test_values_are_built_only_for_the_answers_returned(monkeypatch):
    # Inside the evaluator paths are element tuples and nodes and edges
    # ids; `eval_query` wraps only the values it returns. It shares one
    # `Path` per element tuple among answer paths, path values and group
    # items, and one `NodeVal` or `EdgeVal` per id.
    built = collections.Counter()
    for cls in (Path, NodeVal, EdgeVal, PathVal, GroupVal):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    query = parse_query("p = SHORTEST (x:A) [-[e]->]{1..2} (y) [[-[f:a]-> (z)] + [<-]] ()")
    answers = eval_query(gen.g_random(12, 1), query)
    paths: set = set()
    ids: set = set()
    kinds: collections.Counter = collections.Counter()
    for answer in answers:
        paths.update(p.elements for p in answer.paths)
        for value in answer.bindings.values():
            _walk(value, paths, ids, kinds)
    assert len(answers) > 20
    assert kinds["GroupVal"] and kinds["NothingVal"] and kinds["EdgeVal"] > len(ids)
    assert built["Path"] == len(paths)
    assert built["NodeVal"] == sum(isinstance(v, NodeVal) for v in ids)
    assert built["EdgeVal"] == sum(isinstance(v, EdgeVal) for v in ids)
    assert (built["PathVal"], built["GroupVal"]) == (kinds["PathVal"], kinds["GroupVal"])


def test_one_evaluator_per_query(monkeypatch, g_intro):
    built = []

    class Counting(engine._Evaluator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(engine, "_Evaluator", Counting)
    eval_query(g_intro, parse_query("SHORTEST (x)-[e]->{1..}(y), SHORTEST (y)-[f]->(z)"))
    assert len(built) == 1


def _count_typings(monkeypatch) -> list:
    """The patterns that `_pattern_schema` is called on from now on, one
    entry per call."""
    calls = []
    pattern_schema = typecheck._pattern_schema

    def counting(pat):
        calls.append(pat)
        return pattern_schema(pat)

    monkeypatch.setattr(typecheck, "_pattern_schema", counting)
    return calls


def test_each_subpattern_is_typed_once(monkeypatch):
    # A query or pattern is typed once, up front, by one walk, and the
    # evaluator reads no type: each pattern node is typed exactly once.
    n = 400
    g = validate_graph({"nodes": [{"id": "a"}]})
    query = parse_query("SHORTEST " + " ".join(["()"] * n))
    nodes = sorted(map(id, subpatterns(query.pattern)))
    assert len(set(nodes)) == 2 * n - 1
    calls = _count_typings(monkeypatch)
    assert len(eval_query(g, query)) == 1
    assert sorted(map(id, calls)) == nodes
    calls.clear()
    assert len(eval_pattern(g, query.pattern, EvalConfig(max_len=0))) == 1
    assert sorted(map(id, calls)) == nodes


def test_ruleset_rows_types_each_body_once(monkeypatch):
    # The rule check types each body once, up front; the evaluation types
    # nothing again.
    rules = parse_ruleset("Ans(x) <- SHORTEST (x) " + "() " * 50 + "(y)")
    nodes = sorted(map(id, subpatterns(rules.rules[0].body.pattern)))
    assert len(set(nodes)) == 103
    g = validate_graph({"nodes": [{"id": "a"}]})
    calls = _count_typings(monkeypatch)
    result = ruleset_rows(g, rules, EvalConfig(), lambda types: tuple)
    assert sorted(map(id, calls)) == nodes
    assert result == ({("a",)}, 0)


def test_each_record_lays_out_its_schema():
    # A record's layout is built from its operands' layouts alone, and no
    # record holds a type; on a well-typed pattern that layout is its
    # schema's variables, sorted.
    typed = records = 0
    for i in range(300):
        rng = random.Random(f"layout:{i}")
        g = gen.rand_graph(rng)
        pattern = gen.rand_pattern(rng, rng.randint(1, 4))
        if rng.random() < 0.3:  # an endpoint filter at the root
            pattern = Concat(NodePat(gen.rand_descriptor(rng)), pattern)
        try:
            infer_schema(pattern)
        except TypeCheckError:
            continue
        typed += 1
        for mode in COLLECT_MODES:
            stack = [engine._Evaluator(g, EvalConfig(collect_mode=mode)).compile(pattern)]
            while stack:
                sub = stack.pop()
                assert sub.names == tuple(sorted(infer_schema(sub.pat)))
                stack.extend(sub.kids)
                records += 1
    assert typed > 200
    assert records > 2000


def _type_error(run) -> tuple:
    with pytest.raises(TypeCheckError) as caught:
        run()
    error = caught.value
    return error.kind, error.variable, error.location, str(error)


def test_evaluation_raises_the_typecheckers_error():
    # Types and the collect mode are checked once, at the boundary, before
    # anything else: every entry point raises the typechecker's error, with
    # its kind, variable and location, in every collect mode.
    seen = collections.Counter()
    for i in range(400):
        rng = random.Random(f"ill-typed:{i}")
        g = gen.rand_graph(rng)
        mode = COLLECT_MODES[i % 3]
        cfg = EvalConfig(collect_mode=mode, max_len=2)
        query = parse_query(render(gen.rand_query(rng)))
        try:
            infer_schema(query)
        except TypeCheckError:
            expected = _type_error(lambda: infer_schema(query))
            assert _type_error(lambda: eval_query(g, query, cfg)) == expected
            seen["query", expected[0]] += 1
        pattern = parse_pattern(render(gen.rand_pattern(rng, 4)))
        try:
            infer_schema(pattern)
        except TypeCheckError:
            expected = _type_error(lambda: infer_schema(pattern))
            assert _type_error(lambda: eval_pattern(g, pattern, cfg)) == expected
            assert _type_error(lambda: satisfiable_pairs(g, pattern, mode)) == expected
            seen["pattern", expected[0]] += 1
        else:
            try:
                validate_for_mode(pattern, mode)
            except TypeCheckError:
                expected = _type_error(lambda: validate_for_mode(pattern, mode))
                assert _type_error(lambda: eval_pattern(g, pattern, cfg)) == expected
                assert _type_error(lambda: satisfiable_pairs(g, pattern, mode)) == expected
                seen["pattern", expected[0]] += 1
        # The parser rejects a head variable that its body lacks; built
        # directly, such a rule reaches the rule check.
        bodies = [parse_query(render(gen.rand_query(rng))) for _ in range(rng.randint(1, 2))]
        rules = RuleSet(tuple(Rule((rng.choice(gen.VAR_POOL),), body) for body in bodies))
        try:
            check_ruleset(rules)
        except TypeCheckError:
            expected = _type_error(lambda: check_ruleset(rules))
            assert _type_error(lambda: eval_ruleset(g, rules, cfg)) == expected
            seen["rules", expected[0]] += 1
    kinds = {kind for _, kind in seen}
    assert {"conflicting_types", "unbound_condition_var"} <= kinds
    assert min(seen[what, "conflicting_types"] for what in ("query", "pattern", "rules")) > 10
    assert seen["rules", "unbound_condition_var"] > 10
    assert seen["pattern", "edgeless_repetition"] > 10


def test_pattern_rows_asks_the_root_only_for_its_window(root_asks, g_two_plus_edge):
    # No answer lies outside the root's match-length window, so
    # `pattern_rows` asks the root for no other length, and a huge max_len
    # costs nothing on a pattern of bounded length.
    asked = root_asks
    cycle = validate_graph(
        {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "directed_edges": [
                {"id": "e1", "src": "a", "tgt": "b"},
                {"id": "e2", "src": "b", "tgt": "a"},
            ],
        }
    )
    cases = {
        "(x) -> (y)": (1, 1),
        "(x) -[]->{2..3} (y)": (2, 3),
        "-[]->{2..}": (2, 50),
        "[(x)] + [-[]->{4..5}]": (0, 5),
        "(x)": (0, 0),
    }
    for text, (lo, hi) in cases.items():
        asked.clear()
        answers = eval_pattern(cycle, parse_pattern(text), EvalConfig(max_len=50))
        assert answers and asked == list(range(lo, hi + 1)), text
    asked.clear()
    assert len(eval_pattern(cycle, parse_pattern("(x) -> (y)"), EvalConfig(max_len=10**9))) == 2
    assert asked == [1]
    # An open repetition that runs dry closes the root's end too.
    asked.clear()
    pattern = parse_pattern("(x) -[]->{1..} (y)")
    assert len(eval_pattern(g_two_plus_edge, pattern, EvalConfig(max_len=10**5))) == 1
    assert len(asked) <= 3


@pytest.mark.parametrize(
    "text, lengths",
    [
        ("(x) [-[]->{1..}]{1..} (y)", 4),
        # The body's end is 1 + 2 = 3 by the window rule, though its longest
        # answer has length 2, so the outer repetition closes one length later.
        ("(x) [-[]-> -[]->{0..}]{1..} (y)", 5),
    ],
)
def test_nested_repetitions_close_the_roots_end(root_asks, text, lengths):
    # The inner repetition runs dry and closes its end; the outer one reads
    # its body's end from it, runs dry in turn, and closes the root's. So
    # `pattern_rows` stops there, whatever max_len allows.
    chain = validate_graph(
        {
            "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
            "directed_edges": [
                {"id": "e1", "src": "a", "tgt": "b"},
                {"id": "e2", "src": "b", "tgt": "c"},
            ],
        }
    )
    pattern = parse_pattern(text)
    answers = eval_pattern(chain, pattern, EvalConfig(max_len=2000))
    assert root_asks == list(range(1, lengths + 1))
    # No answer is longer than the chain, so a short bound lists them all.
    assert answers == _oracle_pattern(chain, pattern, EvalConfig(max_len=3))
    assert len(answers) == 3


def test_lenient_unify_enlarges_grouping_answers():
    # one node carrying both labels: two distinct edgeless answers coexist
    g = validate_graph({"nodes": [{"id": "n1", "labels": ["A", "B"]}]})
    pat = parse_pattern("[[(a:A)] + [(b:B)]]{0..}")
    strict = eval_pattern(g, pat, EvalConfig(max_len=1))
    lenient = eval_pattern(g, pat, EvalConfig(max_len=1, lenient_unify=True))
    assert strict < lenient
    extra = next(iter(lenient - strict))[1]
    assert extra["a"].items[0][1] == NodeVal("n1")
    assert extra["b"].items[0][1] == NodeVal("n1")
    rng = random.Random(36)
    for _ in range(40):
        graph = gen.rand_graph(rng)
        pattern = gen.rand_pattern(rng, 3)
        try:
            infer_schema(pattern)
        except Exception:
            continue
        try:
            strict = eval_pattern(graph, pattern, EvalConfig(max_len=3))
            lenient = eval_pattern(
                graph, pattern, EvalConfig(max_len=3, lenient_unify=True)
            )
        except ResourceLimitError:
            continue
        assert strict <= lenient


# -- pruning inside the evaluator ---------------------------------------------


def test_shortest_keeps_edgeless_repetition_states_apart():
    # The inner {0..} has a length-0 answer at each node, and the outer
    # repetition, which drops edgeless segments in dynamic mode, needs the
    # inner cycles n0 -> n1 -> n0. A length-0 state must not stand in for
    # them. No shortest answer is longer than 3 edges.
    g = validate_graph(
        {
            "nodes": [{"id": "n0"}, {"id": "n1"}],
            "directed_edges": [
                {"id": "d0", "src": "n0", "tgt": "n1", "labels": ["a"]},
                {"id": "d1", "src": "n1", "tgt": "n0", "labels": ["a"]},
            ],
        }
    )
    query = parse_query("SHORTEST [<-[z:a]-{0..}]{2..3}")
    expected = brute_force_query(g, query, EvalConfig(collect_mode="dynamic", max_len=3))
    assert eval_query(g, query, EvalConfig(collect_mode="dynamic")) == expected
    assert len(expected) == 8


@pytest.mark.parametrize("mode", COLLECT_MODES)
def test_shortest_trail_keeps_longer_repetition_states(mode):
    # The shortest repetition from n2 back to n0 is n2 <-d1- n0, but after
    # n0 -d1-> n2 only the longer n2 <-d4- n1 <-d3- n0 keeps the path a
    # trail. Under SHORTEST TRAIL a shorter repetition state with the same
    # endpoints cannot stand in for a longer one.
    g = validate_graph(
        {
            "nodes": [{"id": f"n{i}"} for i in range(5)],
            "directed_edges": [
                {"id": "d0", "src": "n1", "tgt": "n4"},
                {"id": "d1", "src": "n0", "tgt": "n2"},
                {"id": "d2", "src": "n1", "tgt": "n4"},
                {"id": "d3", "src": "n0", "tgt": "n1"},
                {"id": "d4", "src": "n1", "tgt": "n2"},
            ],
        }
    )
    query = parse_query("SHORTEST TRAIL [[(y)] + [-[z]->]] <-{1..}")
    cfg = EvalConfig(collect_mode=mode)
    answers = eval_query(g, query, cfg)
    assert answers == brute_force_query(g, query, cfg)
    assert len(answers) == 11


def test_evaluation_builds_no_reference_cycles():
    # `gpc run` turns the cyclic collector off while a command runs. That
    # is safe only while reference counting alone frees what evaluation
    # builds, also when it stops with a resource limit.
    rng = random.Random(41)
    cases = [(gen.rand_graph(rng, 5, 8), gen.rand_query(rng, 3)) for _ in range(300)]
    outcomes = {"answers": 0, "limit": 0, "type": 0}
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i, (graph, query) in enumerate(cases):
            cfg = EvalConfig(
                collect_mode=COLLECT_MODES[i % 3], max_answers=rng.choice((3, 100_000))
            )
            try:
                answers = eval_query(graph, query, cfg)
            except ResourceLimitError:
                outcomes["limit"] += 1
            except TypeCheckError:
                outcomes["type"] += 1
            else:
                outcomes["answers"] += len(answers) > 0
                del answers
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert min(outcomes.values()) > 10, outcomes
    assert unreachable == 0


# -- node atoms as endpoint filters -------------------------------------------


def _filter_graph():
    """Labels A, B, both and none; self-loops and non-loops, both kinds."""
    return validate_graph(
        {
            "nodes": [
                {"id": "a", "labels": ["A"]},
                {"id": "b", "labels": ["B"]},
                {"id": "c", "labels": ["A", "B"]},
                {"id": "d"},
            ],
            "directed_edges": [
                {"id": "e1", "src": "a", "tgt": "b", "labels": ["r"]},
                {"id": "e2", "src": "b", "tgt": "b"},
                {"id": "e3", "src": "c", "tgt": "a", "labels": ["r"]},
                {"id": "e4", "src": "d", "tgt": "c"},
                {"id": "e5", "src": "a", "tgt": "a", "labels": ["r"]},
                {"id": "e6", "src": "b", "tgt": "a"},
            ],
            "undirected_edges": [
                {"id": "u1", "endpoints": ["b", "d"]},
                {"id": "u2", "endpoints": ["c"]},
            ],
        }
    )


# A node atom on the left and on the right, with and without a label or a
# variable, beside forward, backward and undirected edges. The `(x) ... (x)`
# patterns bind x on one side and test it on the other, both ways round.
NODE_FILTER_PATTERNS = [
    "(x) -[e]-> ()",
    "(:A) -[e]-> (y:B)",
    "-[e:r]-> (y:A)",
    "(x:B) -[e]->",
    "(x) <-[e]- (y:A)",
    "(:B) <-[e]-",
    "(x:A) -[e]- (y)",
    "-[e]- (:B)",
    "(x) -[e]-> (x)",
    "(x) [-[e]-> (x)]",
    "(x) <-[e]- (x)",
    "(x:B) -[e]- (x)",
    "(x) [-[e]- (x:A)]",
    "(x) -[e]-> -[f]-> (x)",
    "(x:A) [-[e]->]{0..2} (y)",
]


def _oracle_pattern(graph, pattern, cfg):
    return {
        (p, mu)
        for p in enumerate_paths(graph, cfg.max_len)
        for mu in naive_match(graph, pattern, p, cfg)
    }


@pytest.mark.parametrize("text", NODE_FILTER_PATTERNS)
def test_node_filter_matches_oracle(text):
    g = _filter_graph()
    pattern = parse_pattern(text)
    cfg = EvalConfig(max_len=3)
    expected = _oracle_pattern(g, pattern, cfg)
    assert expected
    assert eval_pattern(g, pattern, cfg) == expected


@pytest.mark.parametrize("restrictor", ["SHORTEST", "TRAIL", "SIMPLE", "SHORTEST TRAIL"])
@pytest.mark.parametrize("text", NODE_FILTER_PATTERNS)
def test_node_filter_queries_match_oracle(text, restrictor):
    g = _filter_graph()
    query = parse_query(f"{restrictor} {text}")
    cfg = EvalConfig(max_len=3)
    expected = brute_force_query(g, query, cfg)
    assert expected or restrictor == "SIMPLE"  # a self-loop is not simple
    assert eval_query(g, query, cfg) == expected


def test_bound_node_variable_keeps_only_loops():
    g = _filter_graph()
    answers = eval_query(g, parse_query("SHORTEST (x) -[e]-> (x)"), EvalConfig())
    assert sorted(a.paths[0].elements for a in answers) == [
        ("a", "e5", "a"),
        ("b", "e2", "b"),
    ]


@pytest.mark.parametrize(
    "mode, lenient",
    [("syntactic", False), ("dynamic", False), ("grouping", False), ("grouping", True)],
)
@pytest.mark.parametrize(
    "text",
    [
        "(x:A) [()]{0..}",
        "[(y) + -[e]->]{0..} (x:B)",
        "(x) [(:A) + <-[e]-]{1..2} (x)",
        "(:B) [[(z:A)] + [(z:B)]]{0..}",
    ],
)
def test_node_filter_beside_edgeless_repetition(text, mode, lenient):
    # Syntactic mode rejects a repetition whose body may be edgeless, in
    # the engine and the oracle alike; the other modes must agree with it.
    g = _filter_graph()
    pattern = parse_pattern(text)
    cfg = EvalConfig(collect_mode=mode, max_len=2, lenient_unify=lenient)
    query = parse_query(f"SHORTEST {text}")
    if mode == "syntactic":
        with pytest.raises(TypeCheckError):
            eval_pattern(g, pattern, cfg)
        with pytest.raises(TypeCheckError):
            brute_force_query(g, query, cfg)
        return
    expected = _oracle_pattern(g, pattern, cfg)
    assert expected
    assert eval_pattern(g, pattern, cfg) == expected
    assert eval_query(g, query, cfg) == brute_force_query(g, query, cfg)


# -- start sets: a source atom's label starts the repetition --------------------


def _one_a_graph():
    """A four-node cycle with a chord and a self-loop; only n1 has label A."""
    return validate_graph(
        {
            "nodes": [{"id": "n0"}, {"id": "n1", "labels": ["A"]}, {"id": "n2"}, {"id": "n3"}],
            "directed_edges": [
                {"id": "e0", "src": "n0", "tgt": "n1"},
                {"id": "e1", "src": "n1", "tgt": "n2"},
                {"id": "e2", "src": "n2", "tgt": "n3"},
                {"id": "e3", "src": "n3", "tgt": "n0"},
                {"id": "e4", "src": "n2", "tgt": "n0"},
                {"id": "e5", "src": "n3", "tgt": "n3"},
            ],
        }
    )


@pytest.mark.parametrize(
    "text",
    [
        "SHORTEST (x:A) -[e]->{1..} (y)",
        "SHORTEST TRAIL (x:A) -[e]->{1..} (y)",
        "SHORTEST (x:A) [-[e]->{1..} ->] (y)",
    ],
)
def test_source_label_starts_the_repetition(monkeypatch, text):
    # The repetition builds its length-0 states, and the pair analysis
    # starts its powers, only at the one node that the atom admits.
    starts, sources = [], []

    class Recording(engine._Evaluator):
        def _repeat(self, sub, k):
            rows = super()._repeat(sub, k)
            if k == 0:
                starts.extend(state[0] for state in sub.levels[0])
            return rows

    power_range = engine._z_power_range

    def recording_range(rel, lo, hi, domain, start=None):
        sources.append(start)
        return power_range(rel, lo, hi, domain, start)

    monkeypatch.setattr(engine, "_Evaluator", Recording)
    monkeypatch.setattr(engine, "_z_power_range", recording_range)
    g, query, cfg = _one_a_graph(), parse_query(text), EvalConfig(max_len=4)
    answers = eval_query(g, query, cfg)
    assert answers
    assert set(starts) == {("n1",)}
    assert sources == [frozenset({"n1"})]
    assert answers == brute_force_query(g, query, cfg)


@pytest.mark.parametrize(
    "text",
    [
        "(x:A) [-[e]->{1..} -[f]->{0..}] (y)",
        "(x:A) [-[e]->{1..}]{2} (y)",
        "(x:A) [[-[e]->{0..}] + [<-[f]-{1..2} (:A)]] -[g]->{0..} (y)",
    ],
)
def test_start_sets_stay_on_the_left_spine(text):
    # The repetitions right of the first one, and inside a repetition's
    # body, start wherever the path before them ends.
    g = _one_a_graph()
    for restrictor in ("SHORTEST", "TRAIL"):
        query = parse_query(f"{restrictor} {text}")
        cfg = EvalConfig(max_len=4)
        answers = eval_query(g, query, cfg)
        assert answers
        assert answers == brute_force_query(g, query, cfg)


def _unshared(pat):
    """A structurally equal copy of `pat` in which no node sits in two places."""
    if isinstance(pat, (Union_, Concat)):
        return dataclasses.replace(pat, left=_unshared(pat.left), right=_unshared(pat.right))
    if isinstance(pat, (Cond, Repeat)):
        return dataclasses.replace(pat, pattern=_unshared(pat.pattern))
    return dataclasses.replace(pat)


def _outcome(run):
    """What `run()` returns, or the class of the limit or type error it raises."""
    try:
        return run()
    except (ResourceLimitError, TypeCheckError) as error:
        return type(error)


def test_a_subpattern_in_two_places_answers_as_its_copy():
    # A library caller can build one node into two places of a pattern.
    # Each place gets its own record, so a repetition beside a source atom
    # starts there alone, and the same repetition elsewhere starts
    # everywhere: the answers equal those of an unshared copy.
    answered = 0
    for i in range(200):
        rng = random.Random(f"two-places:{i}")
        g = gen.rand_graph(rng, max_nodes=4, max_edges=5)
        r = gen.rand_pattern(rng, rng.randint(1, 3))
        if rng.random() < 0.5:
            r = Repeat(r, rng.randint(0, 1), rng.choice((None, 2)))
        atom = NodePat(Descriptor(label=rng.choice(gen.NODE_LABELS)))
        shared = (
            Union_(Concat(atom, r), r),
            Concat(r, r),
            Concat(Concat(atom, r), r),
            Union_(r, Concat(atom, r)),
        )[i % 4]
        copy = _unshared(shared)
        for mode in COLLECT_MODES:
            for restrictor in Restrictor:
                cfg = EvalConfig(collect_mode=mode)
                got = _outcome(lambda: eval_query(g, Restricted(restrictor, shared), cfg))
                assert got == _outcome(lambda: eval_query(g, Restricted(restrictor, copy), cfg))
                answered += isinstance(got, set) and bool(got)
            cfg = EvalConfig(collect_mode=mode, max_len=2)
            assert _outcome(lambda: eval_pattern(g, shared, cfg)) == _outcome(
                lambda: eval_pattern(g, copy, cfg)
            )
            assert _outcome(lambda: satisfiable_pairs(g, shared, mode)) == _outcome(
                lambda: satisfiable_pairs(g, copy, mode)
            )
    assert answered > 600


def _spine(rng: random.Random, depth: int):
    """A random pattern with a repetition on its left spine, and more
    repetitions where a start set must not reach: on the right of a
    concatenation and at the start of a repetition's body."""
    if depth == 0:
        lo = rng.randint(0, 1)
        if rng.random() < 0.3:
            body = gen.rand_pattern(rng, 2)
        else:
            label = rng.choice((None, *gen.EDGE_LABELS))
            body = EdgePat(rng.choice(list(Direction)), Descriptor(label=label))
        return Repeat(body, lo, rng.choice((None, lo + 1, lo + 2)))
    sub = _spine(rng, depth - 1)
    roll = rng.random()
    if roll < 0.15:
        return Union_(sub, gen.rand_pattern(rng, 2))
    if roll < 0.3:
        return Union_(gen.rand_pattern(rng, 2), sub)
    if roll < 0.55:
        right = _spine(rng, depth - 1) if rng.random() < 0.6 else gen.rand_pattern(rng, 2)
        return Concat(sub, right)
    if roll < 0.7:
        variables = sorted(expr_vars(sub))
        return Cond(sub, gen.rand_condition(rng, variables)) if variables else sub
    if roll < 0.85:
        return Repeat(sub, rng.randint(0, 1), rng.choice((None, 2)))
    # A nested source atom; its variable may be bound by the operand too.
    var = rng.choice((None, *gen.VAR_POOL))
    return Concat(NodePat(Descriptor(var, rng.choice(gen.NODE_LABELS))), sub)


def _start_leg(rng: random.Random) -> Restricted:
    """A random leg whose pattern starts with a labelled node atom in
    front of an operand with a repetition on its left spine."""
    var = rng.choice((None, *gen.VAR_POOL))
    pattern = Concat(NodePat(Descriptor(var, rng.choice(gen.NODE_LABELS))), _spine(rng, 2))
    if rng.random() < 0.3:
        pattern = Concat(pattern, NodePat(Descriptor(label=rng.choice(gen.NODE_LABELS))))
    return Restricted(rng.choice(list(Restrictor)), pattern)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(COLLECT_MODES),
    st.booleans(),
)
def test_start_sets_match_oracle(seed, mode, lenient):
    rng = random.Random(seed)
    g = gen.rand_graph(rng, max_nodes=4, max_edges=5)
    leg = _start_leg(rng)
    cfg = EvalConfig(collect_mode=mode, max_len=2, lenient_unify=lenient)
    try:
        infer_schema(leg)
        validate_for_mode(leg, mode)
    except TypeCheckError:
        return
    assert eval_query(g, leg, cfg) == brute_force_query(g, leg, cfg)
    assert eval_pattern(g, leg.pattern, cfg) == _oracle_pattern(g, leg.pattern, cfg)


def test_list_branches_hold_distinct_rows(monkeypatch):
    # The atom, endpoint-filter and condition branches return lists; every
    # record's answers, lists and sets alike, hold each row once. No record
    # computes a length twice. Each record keeps one memo entry per length
    # up to its end: the rows themselves, or, where its parent reads them by
    # source node (a merging concatenation's right operand and a
    # repetition's body), only those rows in lists by source node. Past its
    # end, which a repetition that runs dry closes, it returns no rows and
    # stores no entry, and it has no answer there.
    checked, computed, parents, keyed, static, refused = [], {}, {}, [], {}, []

    def read_by_source(sub) -> bool:
        parent = parents.get(sub)
        if parent is None:
            return False
        if isinstance(parent.pat, Repeat):
            return True
        merging = isinstance(parent.pat, Concat) and isinstance(parent.plan, engine._Merge)
        return merging and sub is parent.kids[1]

    class Checking(engine._Evaluator):
        def compile(self, pat, within=None):
            sub = super().compile(pat, within)
            static[sub] = sub.hi
            for kid in sub.kids:
                parents[kid] = sub
            return sub

        def _compute(self, sub, k):
            assert (sub, k) not in computed
            rows = super()._compute(sub, k)
            computed[sub, k] = rows
            assert len(set(rows)) == len(rows)
            checked.append(type(rows))
            return rows

        def answers(self, sub, k):
            fresh = (sub, k) not in computed
            past = sub.hi is not None and k > sub.hi
            stored = super().answers(sub, k)
            if past and fresh:
                assert not stored and k not in sub.memo
                refused.append(sub)
                return stored
            assert stored is sub.memo[k]
            if not fresh:
                return stored
            rows = computed[sub, k]
            if read_by_source(sub):
                keyed.append(sub)
                assert type(stored) is dict
                assert all(type(held) is list for held in stored.values())
                assert all(p[0] == src for src, held in stored.items() for p, _ in held)
                flat = [row for held in stored.values() for row in held]
                assert collections.Counter(flat) == collections.Counter(rows)
            else:
                assert stored is rows
            return stored

    monkeypatch.setattr(engine, "_Evaluator", Checking)
    for i in range(300):
        rng = random.Random(f"distinct-rows:{i}")
        g = gen.rand_graph(rng)
        query = gen.well_typed_query(rng, 3)
        cfg = EvalConfig(collect_mode=COLLECT_MODES[i % 3], max_len=rng.choice((2, 3, None)))
        computed.clear()
        parents.clear()
        try:
            eval_query(g, query, cfg)
        except (TypeCheckError, ResourceLimitError):
            continue
    # A union reads the side that ran dry at every length of the other.
    g = validate_graph(
        {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "directed_edges": [
                {"id": "e1", "src": "a", "tgt": "b", "labels": ["x"]},
                {"id": "e2", "src": "b", "tgt": "b", "labels": ["y"]},
            ],
        }
    )
    eval_pattern(g, parse_pattern("[-[:x]->{1..}] + [-[:y]->{1..}]"), EvalConfig(max_len=4))
    assert {type(sub.pat) for sub in keyed} >= {NodePat, EdgePat, Concat, Union_, Repeat}
    # Some records were refused past an end that closed below their window.
    assert Repeat in {type(sub.pat) for sub in refused if sub.hi != static[sub]}
    # No record's end lies below a length at which it has answers.
    for sub in static:
        assert sub.hi is None or all(k <= sub.hi for k, rows in sub.memo.items() if rows)
    assert list in checked and set in checked
