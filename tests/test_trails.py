"""Default-bound TRAIL and SIMPLE over an open repetition, against a DFS.

The CLI runs TRAIL and SIMPLE legs at their default bounds, |E| and |N|.
For single-label repetitions the answers are the trails or simple paths of
at least one edge, which a depth-first search that knows nothing of the
engine or the oracle lists: parallel edges make distinct paths. The
graphs stop at 14 edges: with 16, a graph of a few nodes with stacked
a-edges can have more trails than the default answer ceiling of 100000.
"""

import random
import time
from collections import Counter

import pytest

from gpc import EvalConfig, eval_query, parse_query
from gpc.engine import COLLECT_MODES

import gen


def restricted_paths(steps, restrictor):
    """Every trail or simple path of at least one step, as element tuples.

    `steps` are (edge, from, to) traversals. A trail repeats no edge, a
    simple path no node.
    """
    succ: dict = {}
    for e, s, t in steps:
        succ.setdefault(s, []).append((e, t))
    out = []
    stack = [(n,) for n in succ]
    while stack:
        path = stack.pop()
        for e, t in succ.get(path[-1], ()):
            if e in path[1::2] if restrictor == "TRAIL" else t in path[0::2]:
                continue
            out.append(path + (e, t))
            stack.append(path + (e, t))
    return out


def check_paths(answers, steps, restrictor, src_ok=lambda n: True, tgt_ok=lambda n: True):
    expected = Counter(
        p for p in restricted_paths(steps, restrictor) if src_ok(p[0]) and tgt_ok(p[-1])
    )
    assert Counter(a.paths[0].elements for a in answers) == expected


@pytest.mark.parametrize("mode", COLLECT_MODES)
@pytest.mark.parametrize("restrictor", ["TRAIL", "SIMPLE"])
def test_default_bound_trails_and_simple_paths(restrictor, mode):
    query = parse_query(f"{restrictor} (x) -[e:a]->{{1..}} (y)")
    rng = random.Random(f"{restrictor}-{mode}")
    for _ in range(40):
        g = gen.rand_graph(rng, max_nodes=12, max_edges=14)
        steps = [(e, s, t) for e, (s, t) in g.directed_edges.items() if "a" in g.label_set(e)]
        answers = eval_query(g, query, EvalConfig(collect_mode=mode))
        check_paths(answers, steps, restrictor)


def test_trail_on_g16_answers_quickly():
    # Building every walk up to |E| and filtering at the leg ran into the
    # work budget here.
    g = gen.g_random(16, 1)
    started = time.perf_counter()
    answers = eval_query(g, parse_query("TRAIL (x:A) -[e]->{1..} (y:B)"))
    assert time.perf_counter() - started < 1.0
    assert len(answers) == 477
    steps = [(e, s, t) for e, (s, t) in g.directed_edges.items()]
    check_paths(
        answers, steps, "TRAIL",
        lambda n: "A" in g.label_set(n), lambda n: "B" in g.label_set(n),
    )
