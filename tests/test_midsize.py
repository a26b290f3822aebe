"""Differential tier on mid-size graphs (50-200 nodes, 2n edges), and on
small graphs for the SHORTEST-leg errors that show mainly there.

Translated 2RPQ and NRE rule sets run on the engine at default bounds, so
every leg is a SHORTEST leg that must stop only once each endpoint pair it
can connect has its answers. Their endpoint pairs are checked against the
oracle's product automaton (`product_2rpq`) and recursive evaluation
(`recursive_nre`), which run in polynomial time where `brute_force_query`
cannot.

The SHORTEST-leg tests run single legs `(x:A) r (y:B)` of translated
expressions r, with labelled node atoms at the ends, and check the leg's
endpoint pairs and its pair analysis (`satisfiable_pairs`), in grouping
and in dynamic collect mode. Under SHORTEST TRAIL, r is a closure of a
set of letters. With forward letters only, every matching walk contains
a matching trail with the same endpoints, so the product automaton still
names the pairs. With inverse letters a walk may take one edge both
ways, so a trail search in this file names them. Two errors show mainly
on small graphs: a leg that misses a cycle through one node, such as a
self-loop in dynamic mode, and a SHORTEST TRAIL leg that keeps only the
shortest way to a node, where the trail on must avoid an edge taken on
that way.
"""

import random

import pytest

from gpc import (
    C2rpq,
    Concat,
    Descriptor,
    EvalConfig,
    Inverse,
    Label,
    NodePat,
    NreConcat,
    NrePlus,
    NreStar,
    NreUnion,
    Restricted,
    Restrictor,
    eval_query,
    eval_ruleset,
    product_2rpq,
    recursive_nre,
    translate_2rpq,
    translate_c2rpq,
    translate_nre,
    validate_graph,
)
from gpc.engine import satisfiable_pairs

import gen

LABELS = ("a", "b")


def _graph(rng: random.Random, density: int = 2):
    """n nodes, 50 <= n <= 200, and density * n directed edges labeled a or b."""
    names = [f"n{i}" for i in range(rng.randint(50, 200))]
    edges = [
        {
            "id": f"d{i}",
            "src": rng.choice(names),
            "tgt": rng.choice(names),
            "labels": [rng.choice(LABELS)],
        }
        for i in range(density * len(names))
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


# -- SHORTEST legs ---------------------------------------------------------------


def _small_graph(rng: random.Random):
    """2 to 7 nodes and 1 to 10 directed edges labeled a or b."""
    names = [f"n{i}" for i in range(rng.randint(2, 7))]
    edges = [
        {"id": f"d{i}", "src": rng.choice(names), "tgt": rng.choice(names),
         "labels": [rng.choice(LABELS)]}
        for i in range(rng.randint(1, 10))
    ]
    return validate_graph({"nodes": [{"id": n} for n in names], "directed_edges": edges})


def _ends(rng: random.Random, g):
    """Label the graph's nodes A, B, both or neither, and draw the leg's
    end labels (None for an unlabelled atom)."""
    doc = {
        "nodes": [
            {"id": n, "labels": [lab for lab in ("A", "B") if rng.random() < 0.5]}
            for n in sorted(g.nodes)
        ],
        "directed_edges": [
            {"id": e, "src": s, "tgt": t, "labels": sorted(g.label_set(e))}
            for e, (s, t) in sorted(g.directed_edges.items())
        ],
    }
    return validate_graph(doc), rng.choice(("A", None)), rng.choice(("B", None))


def _leg(restrictor, start, regex, end):
    pattern = Concat(
        Concat(NodePat(Descriptor("x", start)), translate_2rpq(regex)),
        NodePat(Descriptor("y", end)),
    )
    return pattern, Restricted(restrictor, pattern)


def _labelled(g, pairs, start, end):
    return {
        (s, t)
        for s, t in pairs
        if (start is None or start in g.label_set(s)) and (end is None or end in g.label_set(t))
    }


def _leg_pairs(answers):
    return {(a.bindings["x"].id, a.bindings["y"].id) for a in answers}


def _nonempty(regex):
    """An expression for the nonempty words of `regex`."""
    if isinstance(regex, (Label, Inverse)):
        return regex
    if isinstance(regex, NreUnion):
        return NreUnion(_nonempty(regex.left), _nonempty(regex.right))
    if isinstance(regex, NreConcat):
        return NreUnion(
            NreConcat(_nonempty(regex.left), regex.right),
            NreConcat(regex.left, _nonempty(regex.right)),
        )
    return NrePlus(_nonempty(regex.operand))


def _dynamic(regex):
    """The words the translation of `regex` matches in dynamic collect mode.

    There a repetition drops edgeless segments, so `r+` matches the
    concatenations of one or more nonempty words of r, and `r*` those and
    the empty word.
    """
    if isinstance(regex, (Label, Inverse)):
        return regex
    if isinstance(regex, NreConcat):
        return NreConcat(_dynamic(regex.left), _dynamic(regex.right))
    if isinstance(regex, NreUnion):
        return NreUnion(_dynamic(regex.left), _dynamic(regex.right))
    if isinstance(regex, NreStar):
        return NreStar(_dynamic(regex.operand))
    return NrePlus(_nonempty(_dynamic(regex.operand)))


def _size(regex) -> int:
    if isinstance(regex, (Label, Inverse)):
        return 1
    if isinstance(regex, (NreConcat, NreUnion)):
        return 1 + _size(regex.left) + _size(regex.right)
    return 1 + _size(regex.operand)


def _check_shortest_leg(g, start, regex, end, mode, max_len=None):
    pattern, leg = _leg(Restrictor.SHORTEST, start, regex, end)
    words = regex if mode == "grouping" else _dynamic(regex)
    want = _labelled(g, product_2rpq(g, words), start, end)
    assert satisfiable_pairs(g, pattern, mode) == want
    cfg = EvalConfig(collect_mode=mode, max_len=max_len)
    assert _leg_pairs(eval_query(g, leg, cfg)) == want


@pytest.mark.parametrize("case", range(12))
def test_midsize_shortest_legs_match_the_product_automaton(case):
    rng = random.Random(f"midsize-shortest:{case}")
    g, start, end = _ends(rng, _graph(rng))
    regex = gen.rand_regex(rng, rng.randint(1, 5), LABELS)
    _check_shortest_leg(g, start, regex, end, ("grouping", "dynamic")[case % 2])


def test_shortest_legs_on_small_graphs_match_the_product_automaton():
    # Every other expression is a closure whose body may match the empty
    # word, so that in dynamic mode a cycle through one node needs a
    # positive segment. A shortest match visits each pair of a node and a
    # Thompson automaton state (at most 2 per expression node) at most
    # once; that bound, as max_len, ends a leg that misses a pair.
    rng = random.Random("small-shortest")
    for case in range(300):
        g, start, end = _ends(rng, _small_graph(rng))
        regex = gen.rand_regex(rng, rng.randint(1, 5), LABELS)
        if case % 4 >= 2:
            regex = NrePlus(gen.rand_regex(rng, rng.randint(1, 4), LABELS))
        mode = ("grouping", "dynamic")[case % 2]
        words = regex if mode == "grouping" else _dynamic(regex)
        _check_shortest_leg(g, start, regex, end, mode, 2 * _size(words) * len(g.nodes))


def _closure(rng: random.Random, letters):
    regex = letters[0]
    for letter in letters[1:]:
        regex = NreUnion(regex, letter)
    return (NrePlus if rng.random() < 0.7 else NreStar)(regex)


@pytest.mark.parametrize("case", range(8))
def test_midsize_shortest_trail_over_forward_closures(case):
    rng = random.Random(f"midsize-trail:{case}")
    # At 2n edges the trails up to the longest shortest one run into the
    # hundreds of thousands; SHORTEST TRAIL prunes by no dominance.
    g, start, end = _ends(rng, _graph(rng, density=1))
    regex = _closure(rng, rng.sample([Label(lab) for lab in LABELS], rng.randint(1, 2)))
    _, leg = _leg(Restrictor.SHORTEST_TRAIL, start, regex, end)
    want = _labelled(g, product_2rpq(g, regex), start, end)
    assert _leg_pairs(eval_query(g, leg)) == want


def _trail_pairs(g, letters, empty: bool):
    """(s, t) joined by a trail, of length 0 if `empty`, whose every step is
    one of the letters: a label forward, or an inverse label backward."""
    steps: dict = {}
    for e, (s, t) in g.directed_edges.items():
        for letter in letters:
            if letter.label in g.label_set(e):
                a, b = (t, s) if isinstance(letter, Inverse) else (s, t)
                steps.setdefault(a, set()).add((e, b))
    pairs = {(n, n) for n in g.nodes} if empty else set()

    def walk(origin, at, used):
        for e, nxt in steps.get(at, ()):
            if e not in used:
                pairs.add((origin, nxt))
                walk(origin, nxt, used | {e})

    for n in g.nodes:
        walk(n, n, frozenset())
    return pairs


def test_shortest_trail_with_inverse_letters_matches_a_trail_search():
    rng = random.Random("small-trail")
    for _ in range(300):
        g, start, end = _ends(rng, _small_graph(rng))
        # One forward and one inverse letter at least, and maybe more.
        letters = [Label(rng.choice(LABELS)), Inverse(rng.choice(LABELS))]
        letters += [
            letter
            for letter in (Label("a"), Label("b"), Inverse("a"), Inverse("b"))
            if letter not in letters and rng.random() < 0.3
        ]
        regex = _closure(rng, letters)
        _, leg = _leg(Restrictor.SHORTEST_TRAIL, start, regex, end)
        want = _labelled(g, _trail_pairs(g, letters, isinstance(regex, NreStar)), start, end)
        assert _leg_pairs(eval_query(g, leg)) == want
