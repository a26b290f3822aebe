"""Random instance generators shared by differential and property tests."""

from __future__ import annotations

import random

from gpc import (
    C2rpq,
    Concat,
    Cond,
    Descriptor,
    Direction,
    EdgePat,
    Inverse,
    Join,
    Label,
    Nest,
    NodePat,
    NreConcat,
    NrePlus,
    NreStar,
    NreUnion,
    PropertyGraph,
    Repeat,
    Restricted,
    Restrictor,
    Rule,
    TypeCheckError,
    Union_,
    infer_schema,
    validate_graph,
)
from gpc.ast import PropEqConst, PropEqProp, And, Or, Not, expr_vars, subpatterns
from gpc.typecheck import may_match_edgeless

NODE_LABELS = ("A", "B")
EDGE_LABELS = ("a", "b")
KEYS = ("k", "m")
VALUES = ("1", "2", 1, True)
VAR_POOL = ("x", "y", "z")


def rand_graph(rng: random.Random, max_nodes: int = 4, max_edges: int = 6) -> PropertyGraph:
    return validate_graph(rand_graph_data(rng, max_nodes, max_edges))


def rand_graph_data(rng: random.Random, max_nodes: int = 4, max_edges: int = 6) -> dict:
    """The JSON document of a random graph, as `gpc run` reads it."""
    node_count = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(node_count)]
    data: dict = {"nodes": [], "directed_edges": [], "undirected_edges": []}
    for name in names:
        data["nodes"].append(
            {
                "id": name,
                "labels": [lab for lab in NODE_LABELS if rng.random() < 0.5],
                "properties": {
                    key: rng.choice(VALUES) for key in KEYS if rng.random() < 0.5
                },
            }
        )
    for i in range(rng.randint(0, max_edges)):
        labels = [lab for lab in EDGE_LABELS if rng.random() < 0.6]
        props = {key: rng.choice(VALUES) for key in KEYS if rng.random() < 0.4}
        if rng.random() < 0.75:
            data["directed_edges"].append(
                {
                    "id": f"d{i}",
                    "src": rng.choice(names),
                    "tgt": rng.choice(names),
                    "labels": labels,
                    "properties": props,
                }
            )
        else:
            ends = {rng.choice(names)}
            if rng.random() < 0.7:
                ends.add(rng.choice(names))
            data["undirected_edges"].append(
                {
                    "id": f"u{i}",
                    "endpoints": sorted(ends),
                    "labels": labels,
                    "properties": props,
                }
            )
    return data


def g_random(n: int, seed: int) -> PropertyGraph:
    """The benchmark's G(n), copied so that the tests import nothing from it.

    Nodes n0..n{n-1} with one label each from A/B/C, an a-labelled chain
    n_i -> n_{i+1}, and n//2 random directed edges labelled a or b, all
    drawn from `random.Random(seed)`.
    """
    rng = random.Random(seed)
    nodes = [{"id": f"n{i}", "labels": [rng.choice("ABC")]} for i in range(n)]
    edges = [
        {"id": f"c{i}", "src": f"n{i}", "tgt": f"n{i + 1}", "labels": ["a"]}
        for i in range(n - 1)
    ]
    for j in range(n // 2):
        src, tgt = rng.randrange(n), rng.randrange(n)
        edges.append(
            {"id": f"r{j}", "src": f"n{src}", "tgt": f"n{tgt}", "labels": [rng.choice("ab")]}
        )
    return validate_graph({"nodes": nodes, "directed_edges": edges})


def rand_descriptor(rng: random.Random, labels=NODE_LABELS) -> Descriptor:
    var = rng.choice(VAR_POOL) if rng.random() < 0.45 else None
    label = rng.choice(labels) if rng.random() < 0.5 else None
    return Descriptor(var, label)


def rand_atom(rng: random.Random):
    if rng.random() < 0.45:
        return NodePat(rand_descriptor(rng, NODE_LABELS))
    direction = rng.choice(list(Direction))
    return EdgePat(direction, rand_descriptor(rng, EDGE_LABELS))


def rand_condition(rng: random.Random, variables: list[str], depth: int = 2):
    if depth > 0 and rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.4:
            return And(
                rand_condition(rng, variables, depth - 1),
                rand_condition(rng, variables, depth - 1),
            )
        if roll < 0.8:
            return Or(
                rand_condition(rng, variables, depth - 1),
                rand_condition(rng, variables, depth - 1),
            )
        return Not(rand_condition(rng, variables, depth - 1))
    var = rng.choice(variables)
    key = rng.choice(KEYS)
    if rng.random() < 0.4:
        return PropEqProp(var, key, rng.choice(variables), rng.choice(KEYS))
    return PropEqConst(var, key, rng.choice(VALUES))


def rand_pattern(rng: random.Random, depth: int):
    if depth <= 1:
        return rand_atom(rng)
    roll = rng.random()
    if roll < 0.30:
        return Concat(rand_pattern(rng, depth - 1), rand_pattern(rng, depth - 1))
    if roll < 0.48:
        return Union_(rand_pattern(rng, depth - 1), rand_pattern(rng, depth - 1))
    if roll < 0.66:
        lo = rng.randint(0, 2)
        hi = None if rng.random() < 0.4 else rng.randint(lo, 3)
        return Repeat(rand_pattern(rng, depth - 1), lo, hi)
    if roll < 0.80:
        sub = rand_pattern(rng, depth - 1)
        in_scope = sorted(expr_vars(sub))
        if not in_scope:
            return sub
        return Cond(sub, rand_condition(rng, in_scope))
    return rand_atom(rng)


def rand_query(rng: random.Random, depth: int = 3):
    def leg():
        restrictor = rng.choice(list(Restrictor))
        pattern = rand_pattern(rng, rng.randint(1, depth))
        if rng.random() < 0.2:
            return Restricted(restrictor, pattern, rng.choice(("p", "q")))
        return Restricted(restrictor, pattern)

    query = leg()
    if rng.random() < 0.25:
        query = Join(query, leg())
    return query


def well_typed_query(rng: random.Random, depth: int = 3, require_positive_repeats: bool = False):
    """Rejection-sample queries until one type-checks (and, optionally,
    has no repetition body that may match an edgeless path)."""
    for _ in range(200):
        query = rand_query(rng, depth)
        try:
            infer_schema(query)
        except TypeCheckError:
            continue
        if require_positive_repeats and _has_edgeless_repeat(query):
            continue
        return query
    return Restricted(Restrictor.SIMPLE, NodePat(Descriptor(var="x")))


def rand_endpoint_rule(rng: random.Random):
    """An arity-2 rule over a leg `(s) π (t)`, sometimes joined with a leg
    `(t) π' (u)`, for random patterns π and π' over `VAR_POOL`; most legs
    are SHORTEST. Most heads name the two outer endpoints; some name an
    inner variable, and some the first leg's path variable `p` in place of
    an endpoint. None if the body does not type-check."""
    ends = [("s", "t")] if rng.random() < 0.6 else [("s", "t"), ("t", "u")]
    roll = rng.random()
    body = None
    for src, tgt in ends:
        restrictor = Restrictor.SHORTEST if rng.random() < 0.8 else rng.choice(list(Restrictor))
        pattern = Concat(Concat(NodePat(Descriptor(src)), rand_pattern(rng, 3)), NodePat(Descriptor(tgt)))
        if body is None:
            body = Restricted(restrictor, pattern, "p" if roll < 0.1 else None)
        else:
            body = Join(body, Restricted(restrictor, pattern))
    try:
        schema = infer_schema(body)
    except TypeCheckError:
        return None
    head = [ends[0][0], ends[-1][1]]
    inner = sorted(set(schema) & set(VAR_POOL))
    if roll < 0.1:
        head[rng.randrange(2)] = "p"
    elif inner and roll < 0.35:
        head[rng.randrange(2)] = rng.choice(inner)
    return Rule(tuple(head), body)


def _has_edgeless_repeat(query) -> bool:
    from gpc.ast import query_patterns

    for _, pattern in query_patterns(query):
        for sub in subpatterns(pattern):
            if isinstance(sub, Repeat) and may_match_edgeless(sub.pattern):
                return True
    return False


# -- classical query classes ---------------------------------------------------


def rand_regex(rng: random.Random, ops: int, labels=("a", "b", "c")):
    if ops <= 1:
        label = rng.choice(labels)
        return Inverse(label) if rng.random() < 0.3 else Label(label)
    roll = rng.random()
    split = rng.randint(1, ops - 1)
    if roll < 0.4:
        return NreConcat(rand_regex(rng, split, labels), rand_regex(rng, ops - split, labels))
    if roll < 0.65:
        return NreUnion(rand_regex(rng, split, labels), rand_regex(rng, ops - split, labels))
    if roll < 0.85:
        return NrePlus(rand_regex(rng, ops - 1, labels))
    return NreStar(rand_regex(rng, ops - 1, labels))


def rand_nre(rng: random.Random, depth: int, labels=("a", "b", "c")):
    if depth <= 1:
        label = rng.choice(labels)
        return Inverse(label) if rng.random() < 0.25 else Label(label)
    roll = rng.random()
    if roll < 0.30:
        return NreConcat(rand_nre(rng, depth - 1, labels), rand_nre(rng, depth - 1, labels))
    if roll < 0.45:
        return NreUnion(rand_nre(rng, depth - 1, labels), rand_nre(rng, depth - 1, labels))
    if roll < 0.60:
        return NrePlus(rand_nre(rng, depth - 1, labels))
    if roll < 0.70:
        return NreStar(rand_nre(rng, depth - 1, labels))
    if roll < 0.90:
        inner = rand_nre(rng, depth - 1, labels)
        follow = rand_nre(rng, depth - 1, labels)
        return NreConcat(Nest(inner), follow)
    return Nest(rand_nre(rng, depth - 1, labels))


def rand_c2rpq(
    rng: random.Random, labels=("a", "b", "c"), variables=("x", "y", "z", "w")
) -> C2rpq:
    atom_count = rng.randint(1, 3)
    atoms = []
    used: list[str] = []
    for _ in range(atom_count):
        if used and rng.random() < 0.7:
            x = rng.choice(used)
        else:
            x = rng.choice(variables)
        y = rng.choice(variables)
        atoms.append((x, rand_regex(rng, rng.randint(1, 4), labels), y))
        used.extend((x, y))
    head_size = rng.randint(1, min(2, len(set(used))))
    head = tuple(rng.sample(sorted(set(used)), head_size))
    return C2rpq(head, tuple(atoms))


def nre_text(e) -> str:
    """`e` in the '#nre' syntax, with every operator bracketed."""
    if isinstance(e, Label):
        return e.label
    if isinstance(e, Inverse):
        return f"{e.label}-"
    if isinstance(e, NreConcat):
        return f"({nre_text(e.left)} {nre_text(e.right)})"
    if isinstance(e, NreUnion):
        return f"({nre_text(e.left)} | {nre_text(e.right)})"
    if isinstance(e, NrePlus):
        return f"({nre_text(e.operand)})+"
    if isinstance(e, NreStar):
        return f"({nre_text(e.operand)})*"
    return f"[{nre_text(e.operand)}]"


def c2rpq_text(query: C2rpq) -> str:
    """`query` in the '#c2rpq' syntax."""
    atoms = ", ".join(f"({x}, {nre_text(regex)}, {y})" for x, regex, y in query.atoms)
    return f"Ans({', '.join(query.head)}) <- {atoms}"


def rand_labeled_digraph(
    rng: random.Random, max_nodes: int = 5, max_edges: int = 7, labels=("a", "b", "c")
) -> PropertyGraph:
    """Directed, single-labeled graphs: the classical model for path queries."""
    node_count = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(node_count)]
    data: dict = {"nodes": [{"id": name} for name in names], "directed_edges": []}
    for i in range(rng.randint(1, max_edges)):
        data["directed_edges"].append(
            {
                "id": f"d{i}",
                "src": rng.choice(names),
                "tgt": rng.choice(names),
                "labels": [rng.choice(labels)],
            }
        )
    return validate_graph(data)
