"""Brute-force reference evaluators for differential testing.

Everything here recomputes answers from the defining equations: exhaustive
path enumeration, direct recursion over pattern structure with explicit
path splits, literal restrictor filters, product-automaton reachability
for two-way regular expressions, and memoized relational recursion for
nested regular expressions.

The paper's unify, refactor and collect live here as `unify`, `refactor`
and `collect_fn` (exported by `gpc`), and `naive_match` and the join of
`brute_force_query` use them. The evaluator calls none of them: it merges
positional bindings in `engine._merge` and `engine._merge_run` and
collects in `engine._Evaluator._repeat`. From the engine this module
takes only `EvalConfig` and `default_length_bound`, and otherwise shares
only the data model (graphs, paths, syntax trees, values, schemas);
merging, condition checking, group collection, and enumeration are all
reimplemented, so agreement with the engine is meaningful evidence.
`tests/test_oracle.py` checks these imports. Budgets fail loudly instead
of truncating: a passing comparison never silently covered a partial set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .ast import (
    And,
    Concat,
    Cond,
    Direction,
    EdgePat,
    Join,
    NodePat,
    Not,
    Or,
    Pattern,
    PropEqConst,
    PropEqProp,
    Query,
    Repeat,
    Restricted,
    Restrictor,
    Union_,
)
from .engine import EvalConfig, default_length_bound
from .gpcplus import Inverse, Label, Nest, NreConcat, NrePlus, NreStar, NreUnion
from .graph import Path, PropertyGraph, const_eq
from .typecheck import infer_schema, validate_for_mode
from .values import (
    EMPTY,
    NOTHING,
    Answer,
    Assignment,
    EdgeVal,
    GroupVal,
    NodeVal,
    PathVal,
)


@dataclass
class OracleBudget:
    max_path_len: int = 8
    max_answers: int = 200_000

    def __post_init__(self) -> None:
        if self.max_path_len <= 0 or self.max_answers <= 0:
            raise ValueError("budget fields must be positive")


class BudgetExceededError(RuntimeError):
    pass


class _Meter:
    def __init__(self, budget: OracleBudget):
        self.budget = budget
        self.ticks = 0

    def tick(self, amount: int = 1) -> None:
        self.ticks += amount
        if self.ticks > 50 * self.budget.max_answers:
            raise BudgetExceededError("oracle work exceeded its budget")


def enumerate_paths(
    graph: PropertyGraph, max_len: int, budget: Optional[OracleBudget] = None
) -> set[Path]:
    """Exactly the graph-valid paths of length at most max_len."""
    budget = budget or OracleBudget()
    if max_len > budget.max_path_len:
        raise BudgetExceededError(
            f"asked for paths up to length {max_len}, budget allows "
            f"{budget.max_path_len}"
        )
    out: set[Path] = {Path((n,)) for n in graph.nodes}
    frontier = list(out)
    for _ in range(max_len):
        if not frontier:
            break
        nxt = []
        for p in frontier:
            for edge, node in graph.steps_from(p.tgt):
                q = Path(p.elements + (edge, node))
                if q not in out:
                    out.add(q)
                    nxt.append(q)
                    if len(out) > budget.max_answers:
                        raise BudgetExceededError(
                            f"more than {budget.max_answers} paths"
                        )
        frontier = nxt
    return out


# -- unify, refactor and collect ----------------------------------------------


def unify(mu1: Assignment, mu2: Assignment, lenient: bool = False) -> Optional[Assignment]:
    """Merge two assignments agreeing on shared variables, or None.

    In lenient mode a shared variable also unifies when either side is
    Nothing, resolving to the non-Nothing value. Lenient unification only
    matters inside collect: the type system keeps shared variables of
    concatenations and joins at node/edge types, which never bind Nothing.
    """
    if len(mu2) > len(mu1):
        mu1, mu2 = mu2, mu1
    if not mu2:
        return mu1
    out = dict(mu1)
    for var, val in mu2.items():
        cur = out.get(var)
        if cur is None:
            out[var] = val
        elif cur == val:
            continue
        elif lenient and cur is NOTHING:
            out[var] = val
        elif lenient and val is NOTHING:
            continue
        else:
            return None
    return Assignment(out)


def refactor(lengths: list[int]) -> list[int]:
    """Group boundaries fusing maximal runs of zero lengths.

    Returns 0-based boundary positions b_0=0 < ... < b_l=len(lengths);
    group k spans lengths[b_k:b_{k+1}].
    """
    if not lengths:
        raise ValueError("refactor needs a non-empty sequence")
    bounds = [0]
    i, n = 0, len(lengths)
    while i < n:
        if lengths[i] > 0:
            i += 1
        else:
            while i < n and lengths[i] == 0:
                i += 1
        bounds.append(i)
    return bounds


def collect_fn(
    mode: str,
    segments: list[tuple[Path, Assignment]],
    lenient: bool = False,
) -> Optional[Assignment]:
    """Assemble per-segment bindings into path-tagged group lists.

    dynamic: undefined (None) when any segment is edgeless, else one list
    entry per segment. syntactic: one entry per segment (a validated
    pattern never produces edgeless segments here). grouping: fuse
    maximal runs of edgeless segments; each run's assignments must
    pairwise unify, else None.
    """
    if not segments:
        raise ValueError("collect needs at least one segment")
    for (p, _), (q, _) in zip(segments, segments[1:]):
        if p.tgt != q.src:
            raise ValueError("collect segments must concatenate")
    domain = list(segments[0][1])
    if mode == "dynamic" and any(p.length == 0 for p, _ in segments):
        return None
    if mode in ("dynamic", "syntactic"):
        groups = segments
    elif mode == "grouping":
        bounds = refactor([p.length for p, _ in segments])
        groups = []
        for k in range(len(bounds) - 1):
            chunk = segments[bounds[k] : bounds[k + 1]]
            merged = chunk[0][1]
            for _, mu in chunk[1:]:
                merged = unify(merged, mu, lenient)  # type: ignore[assignment]
                if merged is None:
                    return None
            group_path = chunk[0][0]
            for p, _ in chunk[1:]:
                group_path = group_path.concat(p)  # type: ignore[assignment]
            groups.append((group_path, merged))
    else:
        raise ValueError(f"unknown collect mode {mode!r}")
    return Assignment(
        {x: GroupVal(tuple((p, mu[x]) for p, mu in groups)) for x in domain}
    )


# -- direct pattern matching --------------------------------------------------


def _holds(graph: PropertyGraph, mu: Assignment, theta) -> bool:
    if isinstance(theta, PropEqConst):
        got = graph.prop(mu[theta.var].id, theta.key)
        return got is not None and const_eq(got, theta.const)
    if isinstance(theta, PropEqProp):
        a = graph.prop(mu[theta.var].id, theta.key)
        b = graph.prop(mu[theta.other_var].id, theta.other_key)
        return a is not None and b is not None and const_eq(a, b)
    if isinstance(theta, And):
        return _holds(graph, mu, theta.left) and _holds(graph, mu, theta.right)
    if isinstance(theta, Or):
        return _holds(graph, mu, theta.left) or _holds(graph, mu, theta.right)
    if isinstance(theta, Not):
        return not _holds(graph, mu, theta.operand)
    raise TypeError(f"not a condition: {theta!r}")


def naive_match(
    graph: PropertyGraph,
    pattern: Pattern,
    p: Path,
    cfg: Optional[EvalConfig] = None,
    budget: Optional[OracleBudget] = None,
    _cache: Optional[dict] = None,
) -> set[Assignment]:
    """The assignments mu with (p, mu) an answer to the pattern.

    Direct recursion over the pattern: concatenation tries every split
    position, repetition tries every segment count and every composition.
    Open upper bounds terminate because, for a fixed path, powers beyond
    (len(p)+1)*(M+1) repeat earlier answers, where M bounds the edgeless
    matches of the body at the path's nodes (1 suffices under strict
    unification, where a run's assignments must all be equal).

    `_cache` only memoizes the pure (subpattern, subpath) results so the
    definitional recursion stays affordable; it never changes them.
    """
    cfg = cfg or EvalConfig()
    meter = _Meter(budget or OracleBudget())
    schema_cache: dict = {}
    cache: dict = _cache if _cache is not None else {}

    def domain_of(pat) -> tuple[str, ...]:
        if pat not in schema_cache:
            schema_cache[pat] = tuple(sorted(infer_schema(pat)))
        return schema_cache[pat]

    def match(pat: Pattern, q: Path) -> set[Assignment]:
        key = (pat, q.elements)
        hit = cache.get(key)
        if hit is None:
            cache[key] = hit = _match(pat, q)
        return hit

    def _match(pat: Pattern, q: Path) -> set[Assignment]:
        meter.tick()
        if isinstance(pat, NodePat):
            if q.length != 0:
                return set()
            node = q.src
            label = pat.descriptor.label
            if label is not None and label not in graph.label_set(node):
                return set()
            var = pat.descriptor.var
            return {Assignment({var: NodeVal(node)}) if var else EMPTY}
        if isinstance(pat, EdgePat):
            if q.length != 1:
                return set()
            before, edge, after = q.elements
            label = pat.descriptor.label
            if label is not None and label not in graph.label_set(edge):
                return set()
            if pat.direction is Direction.FORWARD:
                ok = graph.directed_edges.get(edge) == (before, after)
            elif pat.direction is Direction.BACKWARD:
                ok = graph.directed_edges.get(edge) == (after, before)
            else:
                ok = graph.undirected_edges.get(edge) == frozenset((before, after))
            if not ok:
                return set()
            var = pat.descriptor.var
            return {Assignment({var: EdgeVal(edge)}) if var else EMPTY}
        if isinstance(pat, Concat):
            out = set()
            for cut in range(q.length + 1):
                left, right = q.subpath(0, cut), q.subpath(cut, q.length)
                for mu1 in match(pat.left, left):
                    for mu2 in match(pat.right, right):
                        meter.tick()
                        merged = unify(mu1, mu2)
                        if merged is not None:
                            out.add(merged)
            return out
        if isinstance(pat, Union_):
            domain = domain_of(pat)
            out = set()
            for mu in match(pat.left, q) | match(pat.right, q):
                out.add(Assignment({x: mu.get(x, NOTHING) for x in domain}))
            return out
        if isinstance(pat, Cond):
            return {
                mu for mu in match(pat.pattern, q) if _holds(graph, mu, pat.condition)
            }
        if isinstance(pat, Repeat):
            return match_repeat(pat, q)
        raise TypeError(f"not a pattern: {pat!r}")

    def match_repeat(pat: Repeat, q: Path) -> set[Assignment]:
        domain = domain_of(pat.pattern)
        length = q.length
        # Compositions with more segments than this only repeat earlier
        # answers on this path: a long enough run of edgeless segments must
        # contain a segment whose assignment the run does not need (under
        # strict unification any second one), and dropping it reproduces the
        # same collected answer one power lower.
        per_node = max(
            (len(match(pat.pattern, Path((u,)))) for u in set(q.nodes())),
            default=0,
        )
        if not cfg.lenient_unify:
            per_node = min(per_node, 1)
        if cfg.collect_mode == "dynamic":
            per_node = 0  # edgeless segments are never defined
        stable_after = (length + 1) * (per_node + 1)
        # powers at or beyond stable_after coincide on this path, so both
        # bounds clamp there (an all-positive split never exceeds length)
        lo = min(pat.lo, stable_after)
        hi = stable_after if pat.hi is None else max(lo, min(pat.hi, stable_after))
        out: set[Assignment] = set()
        for count in range(lo, hi + 1):
            if count == 0:
                if length == 0:
                    out.add(Assignment({x: GroupVal(()) for x in domain}))
                continue
            for cuts in itertools.combinations_with_replacement(
                range(length + 1), count - 1
            ):
                meter.tick()
                bounds = (0,) + cuts + (length,)
                parts = [
                    q.subpath(bounds[i], bounds[i + 1]) for i in range(count)
                ]
                if cfg.collect_mode == "dynamic" and any(
                    part.length == 0 for part in parts
                ):
                    continue
                part_matches = [match(pat.pattern, part) for part in parts]
                if any(not m for m in part_matches):
                    continue
                for chosen in itertools.product(*part_matches):
                    meter.tick()
                    result = collect_fn(
                        cfg.collect_mode, list(zip(parts, chosen)), cfg.lenient_unify
                    )
                    if result is not None:
                        out.add(result)
        return out

    return match(pattern, p)


# -- query semantics ----------------------------------------------------------


def brute_force_query(
    graph: PropertyGraph,
    query: Query,
    cfg: Optional[EvalConfig] = None,
    budget: Optional[OracleBudget] = None,
) -> set[Answer]:
    """Literal query semantics over exhaustively enumerated paths."""
    cfg = cfg or EvalConfig()
    budget = budget or OracleBudget()
    infer_schema(query)
    validate_for_mode(query, cfg.collect_mode)
    return _query_answers(graph, query, cfg, budget)


def _query_answers(
    graph: PropertyGraph, query: Query, cfg: EvalConfig, budget: OracleBudget
) -> set[Answer]:
    if isinstance(query, Restricted):
        bound = (
            cfg.max_len
            if cfg.max_len is not None
            else default_length_bound(
                query.restrictor, graph, query.pattern, cfg.bound_ceiling
            )
        )
        match_cache: dict = {}
        candidates: list[tuple[Path, Assignment]] = []
        for p in sorted(enumerate_paths(graph, bound, budget), key=lambda q: q.elements):
            if not _restrictor_base_ok(query.restrictor, p):
                continue
            for mu in naive_match(graph, query.pattern, p, cfg, budget, match_cache):
                candidates.append((p, mu))
        if query.restrictor.has_shortest:
            minima: dict[tuple[str, str], int] = {}
            for p, _ in candidates:
                pair = (p.src, p.tgt)
                minima[pair] = min(minima.get(pair, p.length), p.length)
            candidates = [
                (p, mu)
                for p, mu in candidates
                if minima[(p.src, p.tgt)] == p.length
            ]
        if query.var is not None:
            return {
                Answer((p,), mu.with_binding(query.var, PathVal(p)))
                for p, mu in candidates
            }
        return {Answer((p,), mu) for p, mu in candidates}
    if isinstance(query, Join):
        left = _query_answers(graph, query.left, cfg, budget)
        right = _query_answers(graph, query.right, cfg, budget)
        out = set()
        for la, ra in itertools.product(left, right):
            merged = unify(la.bindings, ra.bindings)
            if merged is not None:
                out.add(Answer(la.paths + ra.paths, merged))
        if len(out) > budget.max_answers:
            raise BudgetExceededError("join result exceeded the budget")
        return out
    raise TypeError(f"not a query: {query!r}")


def _restrictor_base_ok(restrictor: Restrictor, p: Path) -> bool:
    base = restrictor.base
    if base is Restrictor.TRAIL:
        edges = p.edges()
        return len(edges) == len(set(edges))
    if base is Restrictor.SIMPLE:
        nodes = p.nodes()
        return len(nodes) == len(set(nodes))
    return True


# -- two-way regular path queries: product automaton --------------------------


class _Nfa:
    def __init__(self):
        self.eps: dict[int, set[int]] = {}
        self.trans: dict[int, list[tuple[str, bool, int]]] = {}
        self.count = 0

    def state(self) -> int:
        self.count += 1
        self.eps.setdefault(self.count, set())
        self.trans.setdefault(self.count, [])
        return self.count

    def add_eps(self, a: int, b: int) -> None:
        self.eps[a].add(b)

    def add(self, a: int, label: str, inverse: bool, b: int) -> None:
        self.trans[a].append((label, inverse, b))


def _build_nfa(nfa: _Nfa, regex) -> tuple[int, int]:
    if isinstance(regex, Label):
        a, b = nfa.state(), nfa.state()
        nfa.add(a, regex.label, False, b)
        return a, b
    if isinstance(regex, Inverse):
        a, b = nfa.state(), nfa.state()
        nfa.add(a, regex.label, True, b)
        return a, b
    if isinstance(regex, NreConcat):
        a1, b1 = _build_nfa(nfa, regex.left)
        a2, b2 = _build_nfa(nfa, regex.right)
        nfa.add_eps(b1, a2)
        return a1, b2
    if isinstance(regex, NreUnion):
        a, b = nfa.state(), nfa.state()
        a1, b1 = _build_nfa(nfa, regex.left)
        a2, b2 = _build_nfa(nfa, regex.right)
        nfa.add_eps(a, a1)
        nfa.add_eps(a, a2)
        nfa.add_eps(b1, b)
        nfa.add_eps(b2, b)
        return a, b
    if isinstance(regex, (NreStar, NrePlus)):
        a, b = nfa.state(), nfa.state()
        a1, b1 = _build_nfa(nfa, regex.operand)
        nfa.add_eps(a, a1)
        nfa.add_eps(b1, b)
        nfa.add_eps(b1, a1)
        if isinstance(regex, NreStar):
            nfa.add_eps(a, b)
        return a, b
    if isinstance(regex, Nest):
        raise ValueError("nested tests are not part of 2RPQ expressions")
    raise TypeError(f"not a regular expression: {regex!r}")


def product_2rpq(graph: PropertyGraph, regex) -> set[tuple[str, str]]:
    """Node pairs connected by a path spelling a word of the expression.

    Standard reachability in the product of a Thompson-style automaton
    (with inverse letters) and the graph: inverse letters traverse
    directed edges backwards.
    """
    nfa = _Nfa()
    start, accept = _build_nfa(nfa, regex)
    by_label_fwd: dict[str, list[tuple[str, str]]] = {}
    by_label_bwd: dict[str, list[tuple[str, str]]] = {}
    for e, (s, t) in graph.directed_edges.items():
        for label in graph.label_set(e):
            by_label_fwd.setdefault(label, []).append((s, t))
            by_label_bwd.setdefault(label, []).append((t, s))
    pairs: set[tuple[str, str]] = set()
    for source in graph.nodes:
        seen = {(source, start)}
        stack = [(source, start)]
        while stack:
            node, state = stack.pop()
            if state == accept:
                pairs.add((source, node))
            for nxt in nfa.eps[state]:
                if (node, nxt) not in seen:
                    seen.add((node, nxt))
                    stack.append((node, nxt))
            for label, inverse, nxt in nfa.trans[state]:
                steps = (by_label_bwd if inverse else by_label_fwd).get(label, ())
                for s, t in steps:
                    if s == node and (t, nxt) not in seen:
                        seen.add((t, nxt))
                        stack.append((t, nxt))
    return pairs


# -- nested regular expressions: relational recursion --------------------------


def recursive_nre(graph: PropertyGraph, expr) -> set[tuple[str, str]]:
    """Direct semantics of nested regular expressions as node-pair relations."""
    memo: dict = {}

    def compose(r1, r2):
        by_src: dict = {}
        for s, t in r2:
            by_src.setdefault(s, []).append(t)
        return frozenset((s, u) for s, t in r1 for u in by_src.get(t, ()))

    def closure(rel):
        result = frozenset(rel)
        frontier = result
        while True:
            new = compose(frontier, rel) - result
            if not new:
                return result
            result |= new
            frontier = new

    def rel(e) -> frozenset:
        if e in memo:
            return memo[e]
        if isinstance(e, Label):
            out = frozenset(
                (s, t)
                for eid, (s, t) in graph.directed_edges.items()
                if e.label in graph.label_set(eid)
            )
        elif isinstance(e, Inverse):
            out = frozenset(
                (t, s)
                for eid, (s, t) in graph.directed_edges.items()
                if e.label in graph.label_set(eid)
            )
        elif isinstance(e, NreConcat):
            out = compose(rel(e.left), rel(e.right))
        elif isinstance(e, NreUnion):
            out = rel(e.left) | rel(e.right)
        elif isinstance(e, NrePlus):
            out = closure(rel(e.operand))
        elif isinstance(e, NreStar):
            out = closure(rel(e.operand)) | frozenset((u, u) for u in graph.nodes)
        elif isinstance(e, Nest):
            inner = rel(e.operand)
            sources = {s for s, _ in inner}
            out = frozenset((u, u) for u in graph.nodes if u in sources)
        else:
            raise TypeError(f"not an expression: {e!r}")
        memo[e] = out
        return out

    return set(rel(expr))
