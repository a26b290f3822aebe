import ast
import random
from pathlib import Path

import pytest

from gpc import (
    Assignment,
    BudgetExceededError,
    EvalConfig,
    GroupVal,
    NodeVal,
    OracleBudget,
    brute_force_query,
    enumerate_paths,
    eval_pattern,
    eval_query,
    infer_schema,
    naive_match,
    parse_pattern,
    parse_query,
    path,
    path_is_valid,
    validate_graph,
)
from gpc import engine, oracle
from gpc.values import EMPTY

import gen


def test_enumerate_length_zero(g_tiny):
    assert enumerate_paths(g_tiny, 0) == {path("n1"), path("n2")}


def test_enumerate_single_directed_edge(g_two_plus_edge):
    assert enumerate_paths(g_two_plus_edge, 1) == {
        path("u"),
        path("v"),
        path("u", "e", "v"),
        path("v", "e", "u"),
    }


def test_enumerate_exp_graph_level_one(g_exp):
    paths = enumerate_paths(g_exp, 1)
    assert len([p for p in paths if p.length == 0]) == 2
    assert len([p for p in paths if p.length == 1]) == 8


def test_enumerate_monotone_and_valid(g_exp):
    previous: set = set()
    for level in range(4):
        got = enumerate_paths(g_exp, level)
        assert previous <= got
        assert all(path_is_valid(g_exp, p) for p in got)
        previous = got


def test_enumerate_budget_refusal(g_exp):
    with pytest.raises(BudgetExceededError):
        enumerate_paths(g_exp, 9, OracleBudget(max_path_len=4))
    with pytest.raises(BudgetExceededError):
        enumerate_paths(g_exp, 8, OracleBudget(max_path_len=8, max_answers=10))


def test_naive_match_node(g_tiny):
    assert naive_match(g_tiny, parse_pattern("()"), path("n1")) == {EMPTY}
    assert naive_match(g_tiny, parse_pattern("(x)(y)"), path("n1")) == {
        Assignment({"x": NodeVal("n1"), "y": NodeVal("n1")})
    }


def test_naive_match_power_zero_needs_edgeless(g_tiny):
    got = naive_match(g_tiny, parse_pattern("[-[g]->]{0..0}"), path("n1", "e1", "n2"))
    assert got == set()
    got0 = naive_match(g_tiny, parse_pattern("[-[g]->]{0..0}"), path("n1"))
    assert got0 == {Assignment({"g": GroupVal(())})}


def test_simple_star_on_triangle():
    # complete directed graph on three nodes: an arc in each direction
    k3 = validate_graph(
        {
            "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
            "directed_edges": [
                {"id": f"{s}{t}", "src": s, "tgt": t}
                for s in "abc"
                for t in "abc"
                if s != t
            ],
        }
    )
    answers = brute_force_query(k3, parse_query("SIMPLE ->{0..}"))
    # 3 single nodes + 6 one-step + 6 two-step simple paths
    assert len(answers) == 15
    engine = eval_query(k3, parse_query("SIMPLE ->{0..}"))
    assert engine == answers


def test_empty_graph_no_edge_answers():
    g = validate_graph({"nodes": [{"id": "n"}]})
    assert brute_force_query(g, parse_query("TRAIL ->")) == set()


def test_naive_match_agrees_with_eval_on_fixed_paths():
    rng = random.Random(51)
    checked = 0
    while checked < 60:
        g = gen.rand_graph(rng)
        pattern = gen.rand_pattern(rng, rng.randint(1, 3))
        try:
            infer_schema(pattern)
        except Exception:
            continue
        paths = sorted(enumerate_paths(g, 3), key=lambda q: q.elements)
        if not paths:
            continue
        p = rng.choice(paths)
        cfg = EvalConfig(max_len=p.length)
        engine_for_p = {
            mu for q, mu in eval_pattern(g, pattern, cfg) if q == p
        }
        assert naive_match(g, pattern, p, cfg) == engine_for_p
        checked += 1


def test_differential_small_batch():
    rng = random.Random(52)
    budget = OracleBudget(max_path_len=4, max_answers=100_000)
    for _ in range(60):
        g = gen.rand_graph(rng)
        query = gen.well_typed_query(rng, 3)
        cfg = EvalConfig(max_len=rng.randint(0, 4))
        engine = eval_query(g, query, cfg)
        oracle = brute_force_query(g, query, cfg, budget)
        assert engine == oracle


@pytest.mark.parametrize(
    "mode,lenient", [("dynamic", False), ("dynamic", True), ("grouping", True)]
)
def test_differential_other_modes(mode, lenient):
    rng = random.Random(53)
    budget = OracleBudget(max_path_len=4, max_answers=100_000)
    for _ in range(50):
        g = gen.rand_graph(rng)
        query = gen.well_typed_query(rng, 3)
        cfg = EvalConfig(
            collect_mode=mode, max_len=rng.randint(0, 4), lenient_unify=lenient
        )
        engine = eval_query(g, query, cfg)
        oracle = brute_force_query(g, query, cfg, budget)
        assert engine == oracle


def test_differential_syntactic_mode():
    rng = random.Random(54)
    budget = OracleBudget(max_path_len=4, max_answers=100_000)
    for _ in range(50):
        g = gen.rand_graph(rng)
        query = gen.well_typed_query(rng, 3, require_positive_repeats=True)
        cfg = EvalConfig(collect_mode="syntactic", max_len=rng.randint(0, 4))
        engine = eval_query(g, query, cfg)
        oracle = brute_force_query(g, query, cfg, budget)
        assert engine == oracle


def test_dynamic_mode_edgeless_repeat_is_empty():
    """Regression: a variable-free edgeless repetition has no dynamic-mode
    powers above zero."""
    g = validate_graph({"nodes": [{"id": "n0"}]})
    q = parse_query("p = SHORTEST (){2..3}")
    cfg = EvalConfig(collect_mode="dynamic", max_len=3)
    assert eval_query(g, q, cfg) == set()
    assert eval_query(g, q, EvalConfig(collect_mode="grouping", max_len=3)) != set()


# -- the boundary between the evaluator and the oracle -------------------------


def _imports(module) -> set[str]:
    """Each name that the module's source imports, dotted as written:
    `itertools`, `.engine.EvalConfig`."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_the_evaluator_shares_no_merging_or_collecting_with_the_oracle():
    # The paper's unify, refactor and collect live in the oracle, which
    # checks the evaluator, so the evaluator must merge and collect with
    # its own code.
    assert not {"unify", "refactor", "collect_fn"} & vars(engine).keys()
    assert not [name for name in _imports(engine) if "oracle" in name.split(".")]
    from_engine = {name for name in _imports(oracle) if "engine" in name.split(".")}
    assert from_engine == {".engine.EvalConfig", ".engine.default_length_bound"}
