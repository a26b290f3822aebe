import random
from collections import Counter

import pytest

from gpc import (
    EvalConfig,
    PathVal,
    ResourceLimitError,
    brute_force_query,
    eval_query,
    infer_schema,
    parse_query,
    path,
    path_is_valid,
    validate_graph,
)
from gpc.engine import COLLECT_MODES

import gen


def test_shortest_keeps_only_minimal_per_pair(g_intro):
    answers = eval_query(g_intro, parse_query("SHORTEST (:A) -[x]->{0..} (:B)"))
    assert len(answers) == 1
    (answer,) = answers
    assert answer.paths == (path("nA", "e2", "nB"),)


def test_trail_keeps_both_routes(g_intro):
    answers = eval_query(g_intro, parse_query("TRAIL (:A) -[x]->{0..} (:B)"))
    assert {a.paths[0] for a in answers} == {
        path("nA", "e2", "nB"),
        path("nA", "e1", "nC", "e3", "nB"),
    }


def test_trail_excludes_edge_repetition(g_two_plus_edge):
    # the only length-2 walks reuse the single edge back and forth
    answers = eval_query(g_two_plus_edge, parse_query("TRAIL -[g]->{0..}"))
    assert all(len(set(a.paths[0].edges())) == a.paths[0].length for a in answers)
    assert max(a.paths[0].length for a in answers) == 1


def test_trail_subset_of_bounded_pattern_answers():
    rng = random.Random(40)
    from gpc import eval_pattern

    for _ in range(25):
        g = gen.rand_graph(rng)
        query = gen.well_typed_query(rng, 3)
        from gpc.ast import Restricted, Restrictor

        if not isinstance(query, Restricted):
            continue
        cfg = EvalConfig(max_len=3)
        trail = eval_query(g, Restricted(Restrictor.TRAIL, query.pattern), cfg)
        unrestricted = eval_pattern(g, query.pattern, cfg)
        assert {(a.paths[0], a.bindings) for a in trail} <= unrestricted


def test_simple_implies_trail():
    rng = random.Random(41)
    for _ in range(30):
        g = gen.rand_graph(rng)
        query_s = parse_query("SIMPLE [->]{0..}")
        query_t = parse_query("TRAIL [->]{0..}")
        cfg = EvalConfig(max_len=3)
        simple = {a.paths for a in eval_query(g, query_s, cfg)}
        trail = {a.paths for a in eval_query(g, query_t, cfg)}
        assert simple <= trail


def test_shortest_subset_and_equal_lengths():
    rng = random.Random(42)
    for _ in range(30):
        g = gen.rand_graph(rng)
        cfg = EvalConfig(max_len=3)
        plain = eval_query(g, parse_query("TRAIL -[g]->{0..}"), cfg)
        shortest = eval_query(g, parse_query("SHORTEST TRAIL -[g]->{0..}"), cfg)
        assert shortest <= plain
        lengths: dict = {}
        for a in shortest:
            ends = (a.paths[0].src, a.paths[0].tgt)
            lengths.setdefault(ends, set()).add(a.paths[0].length)
        assert all(len(ls) == 1 for ls in lengths.values())


def test_binding_adds_path_value(g_two_plus_edge):
    answers = eval_query(g_two_plus_edge, parse_query("w = SHORTEST (x) -> (y)"))
    (answer,) = answers
    assert answer.bindings["w"] == PathVal(path("u", "e", "v"))


def test_join_shares_singleton(g_intro):
    q = parse_query("p1 = SHORTEST (x:A) ->(y), p2 = SHORTEST (y) -> (z:B)")
    answers = eval_query(g_intro, q)
    for a in answers:
        assert len(a.paths) == 2
        assert a.paths[0].tgt == a.paths[1].src
    assert {(a.bindings["x"].id, a.bindings["y"].id, a.bindings["z"].id) for a in answers} == {
        ("nA", "nC", "nB")
    }


def test_join_disjoint_is_product():
    g = validate_graph(
        {
            "nodes": [{"id": "m"}, {"id": "n"}],
            "directed_edges": [{"id": "e", "src": "m", "tgt": "n"}],
        }
    )
    q = parse_query("SIMPLE (a), SIMPLE (b)")
    answers = eval_query(g, q)
    assert len(answers) == 4


@pytest.mark.parametrize("mode", COLLECT_MODES)
@pytest.mark.parametrize(
    "text",
    [
        # no shared variable: a cartesian product
        "TRAIL (x) -[e]-> (y), SIMPLE (z:A)",
        # one shared node variable
        "TRAIL (x) -[e]-> (y), SHORTEST TRAIL (y) -[f]->{1..2} (z)",
        # two shared node variables
        "SIMPLE (x) -[e]-> (y), SHORTEST TRAIL (x) ->{1..2} (y)",
        # a shared edge variable
        "TRAIL (x) -[e]-> (y), SHORTEST TRAIL (z) <-[e]- (w)",
        # a path-bound side
        "p = SHORTEST TRAIL (x) -[e:a]->{1..2} (y), SIMPLE (y) -> (z:B)",
    ],
)
def test_join_matches_oracle_at_default_bounds(text, mode):
    query = parse_query(text)
    cfg = EvalConfig(collect_mode=mode)
    rng = random.Random(45)
    for _ in range(15):
        g = gen.rand_graph(rng)
        assert eval_query(g, query, cfg) == brute_force_query(g, query, cfg)


def test_join_over_answer_ceiling_raises():
    g = validate_graph({"nodes": [{"id": f"n{i}"} for i in range(10)]})
    with pytest.raises(ResourceLimitError):
        eval_query(g, parse_query("SIMPLE (a), SIMPLE (b)"), EvalConfig(max_answers=50))


def test_answers_conform_and_paths_valid():
    rng = random.Random(43)
    for _ in range(50):
        g = gen.rand_graph(rng)
        query = gen.well_typed_query(rng, 3)
        schema = infer_schema(query)
        cfg = EvalConfig(max_len=3)
        for answer in eval_query(g, query, cfg):
            assert answer.bindings.conforms_to(schema)
            assert all(path_is_valid(g, p) for p in answer.paths)


def test_mode_agreement_when_no_edgeless_repeats():
    rng = random.Random(44)
    for _ in range(40):
        g = gen.rand_graph(rng)
        query = gen.well_typed_query(rng, 3, require_positive_repeats=True)
        cfg = lambda mode: EvalConfig(collect_mode=mode, max_len=3)
        grouping = eval_query(g, query, cfg("grouping"))
        dynamic = eval_query(g, query, cfg("dynamic"))
        syntactic = eval_query(g, query, cfg("syntactic"))
        assert grouping == dynamic == syntactic


def test_exp_graph_counts(g_exp):
    answers = eval_query(g_exp, parse_query("x = SHORTEST () ->{3..3} ()"))
    assert len(answers) == 16
    per_pair = Counter((a.paths[0].src, a.paths[0].tgt) for a in answers)
    assert per_pair == {("u", "v"): 8, ("v", "u"): 8}
