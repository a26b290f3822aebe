"""Output checks, run after the timed loop.

Every case's NDJSON output must be in canonical order without
duplicates, every witness path must be valid in the graph, every answer
must conform to the query's schema, and the answer set must equal the
case's reference (see `cases`). The first instance of each path-query
family is also compared with the brute-force oracle, at the length the
answers can reach, whenever the oracle finishes within its budget.
"""

from __future__ import annotations

import json

from cases import Case, Rules, Walk

ORACLE_PATHS = 10_000  # oracle path budget; beyond it the comparison is skipped


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _value(gpc, raw: dict):
    v = gpc.values
    kind = raw["kind"]
    if kind == "node":
        return v.NodeVal(raw["id"])
    if kind == "edge":
        return v.EdgeVal(raw["id"])
    if kind == "path":
        return v.PathVal(gpc.graph.Path(tuple(raw["elements"])))
    if kind == "nothing":
        return v.NOTHING
    return v.GroupVal(
        tuple((gpc.graph.Path(tuple(p["elements"])), _value(gpc, x)) for p, x in raw["items"])
    )


def _diff(got: set, want: set) -> str:
    missing, extra = sorted(want - got), sorted(got - want)
    return (
        f"{len(got)} answers, reference {len(want)}; "
        f"missing {missing[:1]}, unexpected {extra[:1]}"
    )


def _shortest_pairs(gpc, case: Case, graph, records: list[dict]) -> list[str]:
    """For a SHORTEST walk over an open repetition: its endpoint pairs are
    the product automaton's pairs, and all witnesses of a pair are equally
    long (minimality itself is part of the reference comparison)."""
    walk = case.query
    if not isinstance(walk, Walk) or walk.restrictor != "SHORTEST":
        return []
    if not walk.repeat or walk.hi is not None:
        return []
    plus = gpc.gpcplus
    labels = [walk.edge_label] if walk.edge_label else sorted(
        {lab for e in graph.directed_edges for lab in graph.label_set(e)}
    )
    regex = plus.Label(labels[0])
    for lab in labels[1:]:
        regex = plus.NreUnion(regex, plus.Label(lab))
    want = {
        (s, t)
        for s, t in gpc.oracle.product_2rpq(graph, plus.NrePlus(regex))
        if walk.src.label in (None, *graph.label_set(s))
        and walk.tgt.label in (None, *graph.label_set(t))
    }
    lengths: dict = {}
    for r in records:
        elements = r["paths"][0]["elements"]
        lengths.setdefault((elements[0], elements[-1]), set()).add(len(elements))
    problems = []
    if set(lengths) != want:
        problems.append("endpoint pairs: " + _diff(set(lengths), want))
    if any(len(v) > 1 for v in lengths.values()):
        problems.append("witnesses of one endpoint pair differ in length")
    return problems


def check_case(gpc, case: Case, doc: dict, stdout: str, oracle: bool) -> tuple[list[str], bool]:
    """Problems found in one case's output, and whether the oracle ran."""
    graph = gpc.graph.validate_graph(doc)
    lines = stdout.splitlines()
    records = [json.loads(line) for line in lines]
    if isinstance(case.query, Rules):
        if lines != sorted(set(lines)):
            return ["tuples not in canonical order or repeated"], False
        got = set()
        for r in records:
            if any(v["kind"] != "node" or v["id"] not in graph.nodes for v in r["tuple"]):
                return [f"tuple {r} holds something other than graph nodes"], False
            got.add(tuple(v["id"] for v in r["tuple"]))
        want = case.query.reference(gpc, graph)
        return ([] if got == want else [_diff(got, want)]), False

    problems = []
    keys = [(_canon(r["paths"]), _canon(r["bindings"])) for r in records]
    if keys != sorted(set(keys)):
        problems.append("answers not in canonical order or repeated")
    query = gpc.parser.parse_query(case.query.text())
    schema = gpc.typecheck.infer_schema(query)
    for r in records:
        paths = [gpc.graph.Path(tuple(p["elements"])) for p in r["paths"]]
        if not all(gpc.graph.path_is_valid(graph, p) for p in paths):
            problems.append(f"invalid witness path in {r['paths']}")
            break
        mu = gpc.values.Assignment({k: _value(gpc, x) for k, x in r["bindings"].items()})
        if not mu.conforms_to(schema):
            problems.append(f"bindings {r['bindings']} do not conform to the schema")
            break
    got = {_canon(r) for r in records}
    want = {_canon(a) for a in case.query.reference(doc)}
    if got != want:
        problems.append(_diff(got, want))
    problems += _shortest_pairs(gpc, case, graph, records)
    if not oracle:
        return problems, False
    # Every answer has length <= max_len(), so the oracle at that bound
    # sees the same answer set as the CLI at its default bound.
    reach = case.query.max_len()
    cfg = gpc.engine.EvalConfig(collect_mode=case.family.mode, max_len=reach)
    bound = reach if reach is not None else max(
        gpc.engine.default_length_bound(r, graph, p) for r, p in gpc.ast.query_patterns(query)
    )
    budget = gpc.oracle.OracleBudget(max_path_len=max(bound, 1), max_answers=ORACLE_PATHS)
    try:
        expected = gpc.oracle.brute_force_query(graph, query, cfg, budget)
    except gpc.oracle.BudgetExceededError:
        return problems, False
    truth = {_canon(gpc.values.serialize_answer(a)) for a in expected}
    if truth != got:
        problems.append("oracle: " + _diff(got, truth))
    return problems, True
