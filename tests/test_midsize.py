"""Differential tier on mid-size graphs (50-200 nodes, 2n edges).

Translated 2RPQ and NRE rule sets run on the engine at default bounds, so
every leg is a SHORTEST leg that must stop only once each endpoint pair it
can connect has its answers. Their endpoint pairs are checked against the
oracle's product automaton (`product_2rpq`) and recursive evaluation
(`recursive_nre`), which run in polynomial time where `brute_force_query`
cannot.
"""

import random

import pytest

from gpc import (
    C2rpq,
    eval_ruleset,
    product_2rpq,
    recursive_nre,
    translate_c2rpq,
    translate_nre,
    validate_graph,
)

import gen

LABELS = ("a", "b")


def _graph(rng: random.Random):
    """n nodes, 50 <= n <= 200, and 2n directed edges labeled a or b."""
    names = [f"n{i}" for i in range(rng.randint(50, 200))]
    edges = [
        {
            "id": f"d{i}",
            "src": rng.choice(names),
            "tgt": rng.choice(names),
            "labels": [rng.choice(LABELS)],
        }
        for i in range(2 * len(names))
    ]
    return validate_graph({"nodes": [{"id": n} for n in names], "directed_edges": edges})


def _pairs(tuples):
    return {(a.id, b.id) for a, b in tuples}


@pytest.mark.parametrize("case", range(10))
def test_midsize_2rpq_pairs_match_the_product_automaton(case):
    rng = random.Random(f"midsize-2rpq:{case}")
    g = _graph(rng)
    regex = gen.rand_regex(rng, rng.randint(1, 5), LABELS)
    rules = translate_c2rpq(C2rpq(("x", "y"), (("x", regex, "y"),)))
    assert _pairs(eval_ruleset(g, rules)) == product_2rpq(g, regex)


@pytest.mark.parametrize("case", range(5))
def test_midsize_nre_pairs_match_recursive_evaluation(case):
    rng = random.Random(f"midsize-nre:{case}")
    g = _graph(rng)
    expr = gen.rand_nre(rng, rng.randint(1, 3), LABELS)
    assert _pairs(eval_ruleset(g, translate_nre(expr))) == recursive_nre(g, expr)
