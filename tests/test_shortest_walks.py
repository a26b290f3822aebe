"""Default-bound SHORTEST over an open repetition, against a breadth-first count.

The CLI runs SHORTEST legs at their default bound, where the brute-force
oracle cannot follow. For single-label repetitions the answers are the
shortest walks of at least one edge, which a BFS that knows nothing of the
engine or the oracle counts per endpoint pair: parallel edges make
distinct walks. Under plain SHORTEST the engine keeps a repetition state
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


def shortest_walks(steps, src):
    """BFS from src over (from, to) steps, one per edge traversal.

    Returns, per node reached by a walk of at least one step, the length
    of its shortest such walks and their number.
    """
    succ: dict = {}
    for s, t in steps:
        succ.setdefault(s, []).append(t)
    dist, count = {}, {}
    frontier, length = {src: 1}, 0
    while frontier:
        length += 1
        reached: Counter = Counter()
        for u, walks in frontier.items():
            for v in succ.get(u, ()):
                reached[v] += walks
        frontier = {v: walks for v, walks in reached.items() if v not in dist}
        for v, walks in frontier.items():
            dist[v], count[v] = length, walks
    return dist, count


def check_shortest_walks(g, answers, steps):
    """The answers are exactly the shortest walks along `steps`."""
    found = Counter((a.paths[0].src, a.paths[0].tgt) for a in answers)
    expected = {}
    for src in g.nodes:
        dist, count = shortest_walks(steps, src)
        for tgt in dist:
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


def test_open_shortest_on_g40_answers_quickly():
    # Keeping every walk of every length ran into the work budget here.
    g = gen.g_random(40, 1)
    started = time.perf_counter()
    answers = eval_query(g, parse_query("SHORTEST (x) -[e]->{1..} (y)"))
    assert time.perf_counter() - started < 1.0
    assert len(answers) == 1490
    check_shortest_walks(g, answers, list(g.directed_edges.values()))
