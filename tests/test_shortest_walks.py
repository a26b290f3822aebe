"""Default-bound SHORTEST over a repetition, against a breadth-first count.

The CLI runs SHORTEST legs at their default bound, where the brute-force
oracle cannot follow. For single-label repetitions the answers are the
shortest walks of at least one edge, which a BFS that knows nothing of the
engine or the oracle counts per endpoint pair: parallel edges make
distinct walks. A finite window {1..h} truncates the BFS at h steps, and
labelled endpoints keep only the pairs whose ends carry the labels. Under plain SHORTEST the engine keeps a repetition state
only at the first length where its endpoints and count class appear, so
graphs of up to 60 edges stay cheap.
"""

import random
import time
from collections import Counter

import pytest

from gpc import EvalConfig, eval_query, parse_query
from gpc.engine import COLLECT_MODES

import gen


def shortest_walks(steps, src, limit=None):
    """BFS from src over (from, to) steps, one per edge traversal.

    Returns, per node reached by a walk of at least one step and at most
    `limit` steps, the length of its shortest such walks and their number.
    """
    succ: dict = {}
    for s, t in steps:
        succ.setdefault(s, []).append(t)
    dist, count = {}, {}
    frontier, length = {src: 1}, 0
    while frontier and length != limit:
        length += 1
        reached: Counter = Counter()
        for u, walks in frontier.items():
            for v in succ.get(u, ()):
                reached[v] += walks
        frontier = {v: walks for v, walks in reached.items() if v not in dist}
        for v, walks in frontier.items():
            dist[v], count[v] = length, walks
    return dist, count


def check_shortest_walks(g, answers, steps, limit=None, ends=(None, None)):
    """The answers are exactly the shortest walks along `steps`, of at most
    `limit` steps, from a node with label ends[0] to one with ends[1]."""

    def labelled(node, label):
        return label is None or label in g.label_set(node)

    found = Counter((a.paths[0].src, a.paths[0].tgt) for a in answers)
    expected = {}
    for src in g.nodes:
        if not labelled(src, ends[0]):
            continue
        dist, count = shortest_walks(steps, src, limit)
        for tgt in dist:
            if labelled(tgt, ends[1]):
                expected[(src, tgt)] = dist[tgt], count[tgt]
    assert found.keys() == expected.keys()
    for a in answers:
        p = a.paths[0]
        assert p.length == expected[(p.src, p.tgt)][0]
    assert {pair: n for pair, (_, n) in expected.items()} == dict(found)


@pytest.mark.parametrize("mode", COLLECT_MODES)
@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
def test_default_bound_shortest_counts_every_shortest_walk(mode, backward):
    query = parse_query(
        "SHORTEST (x) <-[e:a]-{1..} (y)" if backward else "SHORTEST (x) -[e:a]->{1..} (y)"
    )
    rng = random.Random(f"{mode}-{backward}")
    for _ in range(20):
        g = gen.rand_graph(rng, max_nodes=40, max_edges=60)
        steps = [
            (t, s) if backward else (s, t)
            for e, (s, t) in g.directed_edges.items()
            if "a" in g.label_set(e)
        ]
        answers = eval_query(g, query, EvalConfig(collect_mode=mode))
        check_shortest_walks(g, answers, steps)


@pytest.mark.parametrize("mode", COLLECT_MODES)
@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_finite_window_shortest_counts_every_shortest_walk(mode, h):
    # A finite window runs the pair analysis too; its labelled endpoints
    # filter the analysis's witnesses as they filter the answers.
    query = parse_query(f"SHORTEST (x:A) -[e:a]->{{1..{h}}} (y:B)")
    rng = random.Random(f"{mode}-{h}")
    for _ in range(20):
        g = gen.rand_graph(rng, max_nodes=40, max_edges=60)
        steps = [(s, t) for e, (s, t) in g.directed_edges.items() if "a" in g.label_set(e)]
        answers = eval_query(g, query, EvalConfig(collect_mode=mode))
        check_shortest_walks(g, answers, steps, limit=h, ends=("A", "B"))


def test_open_shortest_on_g40_answers_quickly():
    # Keeping every walk of every length ran into the work budget here.
    g = gen.g_random(40, 1)
    started = time.perf_counter()
    answers = eval_query(g, parse_query("SHORTEST (x) -[e]->{1..} (y)"))
    assert time.perf_counter() - started < 1.0
    assert len(answers) == 1490
    check_shortest_walks(g, answers, list(g.directed_edges.values()))
