"""Set-semantics evaluation of patterns and queries over a property graph.

Evaluation is compositional and bounded by a maximum path length: the
result for a pattern is exactly the set of its answers whose witness path
has length at most the bound. One repetition worklist serves all three
collect modes: it runs over incremental group states (closed groups plus
the open run of edgeless segments), so open upper bounds terminate
without enumerating segment counts. Node and edge atoms are matched by
one helper that both the evaluator and the satisfiable-pair analysis
use. Every restricted query, with or without variables, takes its
paths from this one evaluator, and restrictors filter its answers at the
query level. A static match-length window (`match_lengths`) caps the
bound (`length_bound`) at the longest match the pattern can have;
`shortest` evaluates its operand in strata of increasing
length from the shortest possible match and stops at the window's end,
or earlier once every endpoint pair that the pattern can connect has
received its minimum. Joins hash-partition the right operand's answers
on the values of the shared variables and unify each left answer only
within its own bucket.

A single evaluation is sequential; distinct evaluations may share one
graph concurrently since all inputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .ast import (
    And,
    Bound,
    Concat,
    Cond,
    Condition,
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
    # unused here; bench/baseline.py patches gpc.engine.expr_vars
    expr_vars,
    pattern_size,
)
from .graph import Path, PropertyGraph, const_eq
from .typecheck import (
    Schema,
    infer_schema,
    is_singleton,
    validate_for_mode,
)
from .values import (
    EMPTY,
    NOTHING,
    Answer,
    Assignment,
    EdgeVal,
    GroupVal,
    NodeVal,
    PathVal,
    Value,
)

COLLECT_MODES = ("syntactic", "dynamic", "grouping")


class ResourceLimitError(RuntimeError):
    """Evaluation exceeded the configured answer/state ceiling."""


@dataclass
class EvalConfig:
    collect_mode: str = "grouping"
    max_len: Optional[int] = None  # None resolves per restrictor
    max_answers: int = 100_000
    lenient_unify: bool = False
    bound_ceiling: int = 10**6

    def __post_init__(self) -> None:
        if self.collect_mode not in COLLECT_MODES:
            raise ValueError(f"unknown collect mode {self.collect_mode!r}")


# -- assignments and conditions -------------------------------------------


def unify(mu1: Assignment, mu2: Assignment, lenient: bool = False) -> Optional[Assignment]:
    """Merge two assignments agreeing on shared variables, or None.

    In lenient mode a shared variable also unifies when either side is
    Nothing, resolving to the non-Nothing value. Lenient unification only
    matters inside collect: the type system keeps shared variables of
    concatenations and joins at node/edge types, which never bind Nothing.
    """
    if len(mu2) > len(mu1):
        mu1, mu2 = mu2, mu1
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


def satisfies(graph: PropertyGraph, mu: Assignment, theta: Condition) -> bool:
    """Boolean condition semantics; undefined properties make atoms false."""
    if isinstance(theta, PropEqConst):
        value = graph.prop(mu[theta.var].id, theta.key)  # type: ignore[union-attr]
        return value is not None and const_eq(value, theta.const)
    if isinstance(theta, PropEqProp):
        left = graph.prop(mu[theta.var].id, theta.key)  # type: ignore[union-attr]
        right = graph.prop(mu[theta.other_var].id, theta.other_key)  # type: ignore[union-attr]
        return left is not None and right is not None and const_eq(left, right)
    if isinstance(theta, And):
        return satisfies(graph, mu, theta.left) and satisfies(graph, mu, theta.right)
    if isinstance(theta, Or):
        return satisfies(graph, mu, theta.left) or satisfies(graph, mu, theta.right)
    if isinstance(theta, Not):
        return not satisfies(graph, mu, theta.operand)
    raise TypeError(f"not a condition: {theta!r}")


# -- collect ----------------------------------------------------------------


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


# -- length bounds -----------------------------------------------------------


def default_length_bound(
    restrictor: Restrictor,
    graph: PropertyGraph,
    pattern: Pattern,
    ceiling: int = 10**6,
) -> int:
    """Sound path-length cutoff per restrictor.

    simple: |N|; trail: total edge count; shortest:
    (|N| + |E|) * 2^size(pattern), capped at `ceiling`. Combined
    restrictors take the minimum of the applicable bounds.
    """
    bounds = []
    base = restrictor.base
    if base is Restrictor.SIMPLE:
        bounds.append(len(graph.nodes))
    elif base is Restrictor.TRAIL:
        bounds.append(graph.edge_count)
    if restrictor.has_shortest:
        size = pattern_size(pattern)
        if size >= ceiling.bit_length():
            bounds.append(ceiling)
        else:
            bounds.append(
                min((len(graph.nodes) + graph.edge_count) << size, ceiling)
            )
    return min(bounds)


def match_lengths(pattern: Pattern) -> tuple[int, Optional[int]]:
    """Static (lo, hi) window holding the length of every match of the pattern.

    hi is None when an open repetition leaves the length unbounded. A
    repetition of an edgeless body matches only edgeless paths, whatever
    its counts.
    """
    if isinstance(pattern, NodePat):
        return 0, 0
    if isinstance(pattern, EdgePat):
        return 1, 1
    if isinstance(pattern, Cond):
        return match_lengths(pattern.pattern)
    if isinstance(pattern, (Concat, Union_)):
        lo1, hi1 = match_lengths(pattern.left)
        lo2, hi2 = match_lengths(pattern.right)
        if isinstance(pattern, Concat):
            return lo1 + lo2, None if hi1 is None or hi2 is None else hi1 + hi2
        return min(lo1, lo2), None if hi1 is None or hi2 is None else max(hi1, hi2)
    if isinstance(pattern, Repeat):
        lo, hi = match_lengths(pattern.pattern)
        if hi == 0:
            return 0, 0
        if hi is None or pattern.hi is None:
            return lo * pattern.lo, None
        return lo * pattern.lo, hi * pattern.hi
    raise TypeError(f"not a pattern: {pattern!r}")


# -- atoms -------------------------------------------------------------------


def _atom_matches(
    graph: PropertyGraph, pat: NodePat | EdgePat
) -> Iterator[tuple[tuple[str, ...], Assignment]]:
    """The matches of a node or edge pattern, as (path elements, binding).

    A node pattern matches one-node paths. A forward or backward pattern
    traverses each directed edge one way; an undirected pattern traverses
    each undirected edge both ways, and a self-loop once.
    """
    var, label = pat.descriptor.var, pat.descriptor.label
    if isinstance(pat, NodePat):
        for n in graph.nodes:
            if label is None or label in graph.label_set(n):
                yield (n,), Assignment({var: NodeVal(n)}) if var else EMPTY
        return
    edges = (
        graph.undirected_edges
        if pat.direction is Direction.UNDIRECTED
        else graph.directed_edges
    )
    for e, ends in edges.items():
        if label is not None and label not in graph.label_set(e):
            continue
        mu = Assignment({var: EdgeVal(e)}) if var else EMPTY
        if pat.direction is Direction.FORWARD:
            yield (ends[0], e, ends[1]), mu
        elif pat.direction is Direction.BACKWARD:
            yield (ends[1], e, ends[0]), mu
        else:
            pair = tuple(ends)
            yield (pair[0], e, pair[-1]), mu
            if len(pair) == 2:
                yield (pair[1], e, pair[0]), mu


# -- satisfiable endpoint pairs ----------------------------------------------
#
# For `shortest` we need to know when further strata cannot satisfy any new
# (src, tgt) pair. The analysis below computes, exactly, the endpoint pairs
# for which the pattern has at least one answer, by relational composition
# over (src, tgt, singleton-variable bindings, edgeless?) witnesses.
# Group/optional variables never constrain composition (the type system
# forbids sharing them), so projecting them away loses nothing; an
# edgeless run of a repetition can always reuse one segment's bindings,
# so pair reachability through repetitions is plain relational power.


class _SatOverflow(Exception):
    pass


def _z_compose(r1: frozenset, r2: frozenset) -> frozenset:
    by_src: dict = {}
    for s, t, z in r2:
        by_src.setdefault(s, []).append((t, z))
    return frozenset(
        (s, u, z1 and z2) for s, t, z1 in r1 for u, z2 in by_src.get(t, ())
    )


def _z_power(rel: frozenset, n: int, domain: Iterable) -> frozenset:
    result = frozenset((x, x, True) for x in domain)
    base = rel
    while n:
        if n & 1:
            result = _z_compose(result, base)
        n >>= 1
        if n:
            base = _z_compose(base, base)
    return result


def _z_star(rel: frozenset, domain: Iterable) -> frozenset:
    closure = frozenset((x, x, True) for x in domain)
    frontier = closure
    while True:
        new = _z_compose(frontier, rel) - closure
        if not new:
            return closure
        closure |= new
        frontier = new


def _z_power_range(
    rel: frozenset, lo: int, hi: Optional[int], domain: Iterable
) -> frozenset:
    if hi is None:
        return _z_compose(_z_power(rel, lo, domain), _z_star(rel, domain))
    acc = cur = _z_power(rel, lo, domain)
    seen = {cur}
    for _ in range(lo + 1, hi + 1):
        cur = _z_compose(cur, rel)
        if cur in seen:
            break
        seen.add(cur)
        acc |= cur
    return acc


def satisfiable_pairs(
    graph: PropertyGraph,
    pattern: Pattern,
    collect_mode: str = "grouping",
    limit: int = 500_000,
) -> set[tuple[str, str]]:
    """Exactly the (src, tgt) pairs for which the pattern has an answer.

    Falls back to the full node square if the intermediate witness
    relations outgrow `limit` (a sound overapproximation: callers use the
    result only to stop searching early).
    """
    try:
        entries = _sat_entries(graph, pattern, collect_mode, {}, limit)
    except _SatOverflow:
        return {(u, v) for u in graph.nodes for v in graph.nodes}
    return {(s, t) for s, t, _, _ in entries}


def _sat_entries(
    graph: PropertyGraph,
    pat: Pattern,
    mode: str,
    schema_cache: dict,
    limit: int,
) -> frozenset:
    """Witness entries (src, tgt, kept bindings, edgeless?)."""

    def schema_of(node: Pattern) -> Schema:
        if node not in schema_cache:
            schema_cache[node] = infer_schema(node)
        return schema_cache[node]

    def kept(node: Pattern) -> frozenset[str]:
        return frozenset(v for v, t in schema_of(node).items() if is_singleton(t))

    def restrict(mu: Assignment, keep: frozenset[str]) -> Assignment:
        if set(mu) == keep:
            return mu
        return Assignment({v: mu[v] for v in keep})

    def guard(entries: frozenset) -> frozenset:
        if len(entries) > limit:
            raise _SatOverflow
        return entries

    def walk(node: Pattern) -> frozenset:
        if isinstance(node, (NodePat, EdgePat)):
            return frozenset(
                (elements[0], elements[-1], mu, len(elements) == 1)
                for elements, mu in _atom_matches(graph, node)
            )
        if isinstance(node, Concat):
            left, right = walk(node.left), walk(node.right)
            keep = kept(node)
            by_src: dict = {}
            for s, t, mu, z in right:
                by_src.setdefault(s, []).append((t, mu, z))
            out = set()
            for s, t, mu1, z1 in left:
                for u, mu2, z2 in by_src.get(t, ()):
                    merged = unify(mu1, mu2)
                    if merged is not None:
                        out.add((s, u, restrict(merged, keep), z1 and z2))
            return guard(frozenset(out))
        if isinstance(node, Union_):
            keep = kept(node)
            return guard(
                frozenset(
                    (s, t, restrict(mu, keep), z)
                    for s, t, mu, z in walk(node.left) | walk(node.right)
                )
            )
        if isinstance(node, Cond):
            return frozenset(
                entry
                for entry in walk(node.pattern)
                if satisfies(graph, entry[2], node.condition)
            )
        if isinstance(node, Repeat):
            inner = walk(node.pattern)
            steps = frozenset(
                (s, t, z) for s, t, _, z in inner if mode == "grouping" or not z
            )
            pairs = _z_power_range(steps, node.lo, node.hi, graph.nodes)
            return guard(frozenset((s, t, EMPTY, z) for s, t, z in pairs))
        raise TypeError(f"not a pattern: {node!r}")

    return walk(pat)


# -- pattern evaluation -------------------------------------------------------


PatternAnswers = frozenset  # of (Path, Assignment)


class _Evaluator:
    """One bounded bottom-up evaluation; memoizes per subexpression."""

    def __init__(self, graph: PropertyGraph, cfg: EvalConfig, max_len: int):
        self.graph = graph
        self.cfg = cfg
        self.max_len = max_len
        self.memo: dict[Pattern, PatternAnswers] = {}
        self.schemas: dict[Pattern, Schema] = {}
        self.work = 0
        self.work_limit = max(cfg.max_answers * 20, 1_000_000)

    def schema(self, pat: Pattern) -> Schema:
        if pat not in self.schemas:
            self.schemas[pat] = infer_schema(pat)
        return self.schemas[pat]

    def charge(self, amount: int = 1) -> None:
        self.work += amount
        if self.work > self.work_limit:
            raise ResourceLimitError(
                f"evaluation exceeded {self.work_limit} intermediate states"
            )

    def check_size(self, answers) -> None:
        if len(answers) > self.cfg.max_answers:
            raise ResourceLimitError(
                f"answer set exceeded the ceiling of {self.cfg.max_answers}"
            )

    def answers(self, pat: Pattern) -> PatternAnswers:
        cached = self.memo.get(pat)
        if cached is not None:
            return cached
        result = frozenset(self._compute(pat))
        self.check_size(result)
        self.memo[pat] = result
        return result

    def _compute(self, pat: Pattern) -> set[tuple[Path, Assignment]]:
        if isinstance(pat, (NodePat, EdgePat)):
            if isinstance(pat, EdgePat) and self.max_len < 1:
                return set()
            return {
                (Path(elements), mu) for elements, mu in _atom_matches(self.graph, pat)
            }
        if isinstance(pat, Concat):
            left = self.answers(pat.left)
            right = self.answers(pat.right)
            by_src: dict = {}
            for p2, mu2 in right:
                by_src.setdefault(p2.src, []).append((p2, mu2))
            out = set()
            for p1, mu1 in left:
                budget = self.max_len - p1.length
                for p2, mu2 in by_src.get(p1.tgt, ()):
                    if p2.length > budget:
                        continue
                    self.charge()
                    merged = unify(mu1, mu2)
                    if merged is not None:
                        out.add((p1.concat(p2), merged))
            return out
        if isinstance(pat, Union_):
            domain = set(self.schema(pat))
            out = set()
            for p, mu in self.answers(pat.left) | self.answers(pat.right):
                if set(mu) != domain:
                    mu = Assignment(
                        {x: mu.get(x, NOTHING) for x in domain}
                    )
                out.add((p, mu))
            return out
        if isinstance(pat, Cond):
            return {
                (p, mu)
                for p, mu in self.answers(pat.pattern)
                if satisfies(self.graph, mu, pat.condition)
            }
        if isinstance(pat, Repeat):
            return self._repeat(pat)
        raise TypeError(f"not a pattern: {pat!r}")

    # -- repetition -----------------------------------------------------------

    def _repeat(self, pat: Repeat) -> set[tuple[Path, Assignment]]:
        """Collect over segment splits, as one worklist for every mode.

        A state is (path so far, closed groups, open edgeless run, count).
        In grouping mode consecutive edgeless segments merge into the open
        run, whose assignments must unify; a positive segment closes the
        run. Edgeless segments are undefined in dynamic mode and, after
        validation, cannot occur in syntactic mode, so both drop them and
        every segment closes a group of its own. A variable-free body
        records no groups: its answers depend on the path alone. With an
        open upper bound only "reached lo" matters, so the count is capped
        there. Without edgeless segments every step lengthens the path, so
        the length bound ends the search; with them, the visited set does:
        groups and runs come from finite sets, and counts are capped.
        """
        body = self.answers(pat.pattern)
        domain = tuple(sorted(self.schema(pat.pattern)))
        lo, hi = self._clamp_counts(pat.lo, pat.hi, body)
        grouping = self.cfg.collect_mode == "grouping"
        lenient = self.cfg.lenient_unify
        by_src: dict = {}
        for p, mu in body:
            if grouping or p.length > 0:
                by_src.setdefault(p.src, []).append((p, mu))
        # A state can be reached twice only when edgeless segments merge or
        # no groups are recorded; otherwise each state extends its parent's
        # closed groups by one segment, so every pushed state is new.
        dedupe = grouping or not domain
        out: set[tuple[Path, Assignment]] = set()
        start = [(Path((n,)), (), None, 0) for n in self.graph.nodes]
        visited = set(start)
        queue = list(start)
        while queue:
            path_so_far, closed, open_mu, k = queue.pop()
            groups = closed  # then the open run, if any
            if open_mu is not None:
                groups = closed + ((Path((path_so_far.tgt,)), open_mu),)
            if k >= lo:
                bindings = EMPTY
                if domain:
                    bindings = Assignment(
                        {
                            x: GroupVal(tuple((p, mu[x]) for p, mu in groups))
                            for x in domain
                        }
                    )
                out.add((path_so_far, bindings))
            if k == hi:  # no state is pushed past hi, so k >= lo above suffices
                continue
            nk = k + 1 if hi is not None or k < lo else k
            room = self.max_len - path_so_far.length
            for seg, mu in by_src.get(path_so_far.tgt, ()):
                length = seg.length
                if length == 0:
                    merged = None
                    if domain:
                        merged = mu if open_mu is None else unify(open_mu, mu, lenient)
                        if merged is None:
                            continue
                    state = (path_so_far, closed, merged, nk)
                elif length > room:
                    continue
                else:
                    ngroups = groups + ((seg, mu),) if domain else ()
                    state = (path_so_far.concat(seg), ngroups, None, nk)
                if dedupe:
                    if state in visited:
                        continue
                    visited.add(state)
                self.charge()
                queue.append(state)
        return out

    def _clamp_counts(self, lo: int, hi: Optional[int], body: PatternAnswers):
        """Clamp segment counts to the regime where powers are constant.

        Beyond B = (max_len+1)*(M+1) every bounded composition both pumps
        up (duplicate an edgeless segment; M counts the per-node choices
        that matter, 1 under strict unification) and collapses down (some
        run holds a segment it does not need), so the powers agree with
        the B-th one; without edgeless segments, counts past the length
        bound yield nothing at all.
        """
        if self.cfg.collect_mode != "grouping":
            return lo, hi  # no edgeless segments: the length bound caps counts
        zero_by_node: dict[str, int] = {}
        for p, _ in body:
            if p.length == 0:
                zero_by_node[p.src] = zero_by_node.get(p.src, 0) + 1
        if not zero_by_node:
            choices = 0
        elif self.cfg.lenient_unify:
            choices = max(zero_by_node.values())
        else:
            choices = 1
        stable = (self.max_len + 1) * (choices + 1)
        return min(lo, stable), hi if hi is None else min(hi, stable)


def eval_pattern(
    graph: PropertyGraph, pattern: Pattern, cfg: EvalConfig
) -> set[tuple[Path, Assignment]]:
    """All (path, assignment) answers with path length <= cfg.max_len."""
    if cfg.max_len is None:
        raise ValueError("pattern evaluation needs an explicit max_len")
    infer_schema(pattern)
    validate_for_mode(pattern, cfg.collect_mode)
    return set(_Evaluator(graph, cfg, cfg.max_len).answers(pattern))


def power(
    graph: PropertyGraph, pattern: Pattern, i: int, cfg: EvalConfig
) -> set[tuple[Path, Assignment]]:
    """The i-th power of the pattern's answer set, length-bounded."""
    if i < 0:
        raise ValueError("power index must be non-negative")
    return eval_pattern(graph, Repeat(pattern, i, i), cfg)


# -- queries -------------------------------------------------------------


def _is_trail(p: Path) -> bool:
    edges = p.edges()
    return len(edges) == len(set(edges))


def _is_simple(p: Path) -> bool:
    nodes = p.nodes()
    return len(nodes) == len(set(nodes))


def _base_ok(base: Optional[Restrictor], p: Path) -> bool:
    if base is Restrictor.TRAIL:
        return _is_trail(p)
    if base is Restrictor.SIMPLE:
        return _is_simple(p)
    return True


def length_bound(
    restrictor: Restrictor,
    graph: PropertyGraph,
    pattern: Pattern,
    cfg: EvalConfig,
) -> int:
    """The longest path length a restricted leg is evaluated to.

    This is `cfg.max_len`, or the restrictor's default bound without one,
    capped at the longest match the pattern can have: no match is longer,
    so the cap leaves the answers unchanged.
    """
    bound = (
        cfg.max_len
        if cfg.max_len is not None
        else default_length_bound(restrictor, graph, pattern, cfg.bound_ceiling)
    )
    hi = match_lengths(pattern)[1]
    return bound if hi is None else min(bound, hi)


def _eval_restricted(
    graph: PropertyGraph,
    restrictor: Restrictor,
    pattern: Pattern,
    cfg: EvalConfig,
) -> set[tuple[Path, Assignment]]:
    bound = length_bound(restrictor, graph, pattern, cfg)
    base = restrictor.base
    if not restrictor.has_shortest:
        answers = _Evaluator(graph, cfg, bound).answers(pattern)
        return {(p, mu) for p, mu in answers if _base_ok(base, p)}

    # shortest: stratify by length, starting at the shortest possible match;
    # a pair's first stratum is its minimum.
    sat: Optional[set[tuple[str, str]]] = None
    best: dict[tuple[str, str], int] = {}
    kept: set[tuple[Path, Assignment]] = set()
    for level in range(match_lengths(pattern)[0], bound + 1):
        for p, mu in _Evaluator(graph, cfg, level).answers(pattern):
            if p.length != level or not _base_ok(base, p):
                continue
            pair = (p.src, p.tgt)
            if best.setdefault(pair, level) == level:
                kept.add((p, mu))
        if level >= bound:
            break
        # The pair analysis runs only once a later stratum could still be
        # skipped, so a leg whose window is a single length never pays it.
        if sat is None:
            sat = satisfiable_pairs(graph, pattern, cfg.collect_mode)
        if sat <= best.keys():
            break
    return kept


def eval_query(
    graph: PropertyGraph, query: Query, cfg: Optional[EvalConfig] = None
) -> set[Answer]:
    """The answer set of a query: tuples of witness paths with bindings."""
    cfg = cfg or EvalConfig()
    infer_schema(query)
    validate_for_mode(query, cfg.collect_mode)
    answers = _eval_query(graph, query, cfg)
    if len(answers) > cfg.max_answers:
        raise ResourceLimitError(
            f"answer set exceeded the ceiling of {cfg.max_answers}"
        )
    return answers


def _eval_query(graph: PropertyGraph, query: Query, cfg: EvalConfig) -> set[Answer]:
    if isinstance(query, Restricted):
        pairs = _eval_restricted(graph, query.restrictor, query.pattern, cfg)
        return {Answer((p,), mu) for p, mu in pairs}
    if isinstance(query, Bound):
        pairs = _eval_restricted(graph, query.restrictor, query.pattern, cfg)
        return {
            Answer((p,), mu.with_binding(query.var, PathVal(p))) for p, mu in pairs
        }
    if isinstance(query, Join):
        left = _eval_query(graph, query.left, cfg)
        right = _eval_query(graph, query.right, cfg)
        # Shared join variables are node/edge singletons and unification is
        # strict, so two answers unify exactly when their keys are equal, and
        # their merge is then the plain union of the two assignments.
        shared = sorted(set(infer_schema(query.left)) & set(infer_schema(query.right)))
        buckets: dict[tuple[Value, ...], list[Answer]] = {}
        for ra in right:
            buckets.setdefault(tuple(ra.bindings[x] for x in shared), []).append(ra)
        out = set()
        for la in left:
            for ra in buckets.get(tuple(la.bindings[x] for x in shared), ()):
                merged = Assignment({**la.bindings, **ra.bindings})
                out.add(Answer(la.paths + ra.paths, merged))
                if len(out) > cfg.max_answers:
                    raise ResourceLimitError(
                        f"answer set exceeded the ceiling of {cfg.max_answers}"
                    )
        return out
    raise TypeError(f"not a query: {query!r}")
