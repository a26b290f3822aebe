"""Set-semantics evaluation of patterns and queries over a property graph.

One evaluator serves a whole query or rule set, and all legs and rules
share its work budget, which also pays for the pair analysis, and its
answer ceiling. It compiles each leg's pattern once into a tree of
records (`_Sub`), one per occurrence of a subpattern, and computes each
record's answers by exact path length, kept on the record while the leg
runs, so the `shortest` strata of a leg share the shorter lengths. Each
length is kept once: as the rows or, where the record's parent reads
them by source node (see `_Evaluator.compile`), in lists by source node.
Inside the evaluator values are raw: a path is its element tuple, a node
or edge is its id, a group is a tuple of (element tuple, raw value)
pairs, and Nothing is `NOTHING`. An answer's binding is a tuple of raw
values laid out over the subpattern's sorted variables. A record holds
that layout, built from its operands' (see `_Evaluator.compile`), and no
type, so every operator gets a plan once per record: the positions a
concatenation or a join shares and the order it gathers its output in, a
union's padding with Nothing, and a condition's test (`_test`), a closure
with each property's key and position bound. Shared variables are node
or edge singletons, so two bindings agree exactly when their shared
positions hold equal ids. Types stay at the boundary: `query_rows`,
`pattern_rows` and `ruleset_rows` type their input once, up front, and
return raw rows with its schema. `eval_query`, `eval_pattern` and
`eval_ruleset` wrap those by schema (`values.wrapper`), once per row;
`gpc run` encodes them raw and builds no value object (`Path`, ...).
Concatenation at length k joins left answers of length i with right
answers of length k - i, for the splits that both operands' static
match-length windows admit; each record holds its window, built from its
operands' (`window_of`). A node atom beside a path matches one node, at
length 0, so it is no operand there but a filter (`_endpoint_filter`):
the concatenation keeps the path's answers whose endpoint on the atom's
side has the atom's label, and binds the atom's variable to that node,
or keeps only the answers that already bind it there. The pair analysis
filters its witnesses with the same filter, and the atom's matches are
built in neither. A labelled atom on the source side also names where
the repetitions on the path's left spine start (their records' start
sets, see `_Evaluator.compile`): their length-0 states, and the pair
analysis's powers, start only at nodes with the label. The filter still
runs, so this only drops answers it would drop. A record's answers at
each length are distinct rows. The atom, endpoint-filter and condition
branches return lists, since an atom matches each path once, the filter
maps distinct rows to distinct rows, and a condition only drops rows; a
union, a merging concatenation and a repetition keep sets, since
different sides, splits or counts can build one row twice. One
repetition worklist serves all three collect modes: the states of length
k extend shorter ones by a positive segment, and in grouping mode then
merge edgeless segments into an open run. A state that holds an edgeless
run matches every count from its own upwards, since `_merge_run` is
absorptive, so huge repetition counts cost nothing. A leg's restrictor
prunes partial paths where they are built. Trails and simple paths are
closed under subpaths, so under `trail` or `simple` (with or without
`shortest`) an atom, a concatenation or a repetition state that breaks
the restrictor is dropped. Under plain `shortest` an open repetition
keeps a state only at the first length where its endpoints, count class,
pumping and edgelessness appear: a later state could only build longer
answers for the same endpoint pairs. The root record's size sets each
leg's default SHORTEST bound, its window caps the bound, and the
evaluator keeps the largest of the legs' bounds for the run report.
`shortest` keeps each endpoint pair's first stratum and stops
once every pair that the pattern can connect has one; an exact pair
analysis (`satisfiable_pairs`) names those pairs. It carries only the
bindings that an operator above compares. `eval_pattern` and the pair
analysis prune nothing. One walk over a query's joins (`_rows`) serves
queries and rule bodies, and one function (`_eval_restricted`) chooses
how each leg is answered. Joins hash-partition the right operand's
answers on the values of the shared variables. A rule set's head keeps
no paths, so `ruleset_rows` walks each body projected onto its head:
each leg keeps only the variables that the head names or another leg
shares. A plain SHORTEST leg that runs the pair analysis anyway, under
no explicit length bound, and of which only endpoint variables are kept,
is answered by the analysis alone: its pairs are those variables'
values, and it lists no path.

A single evaluation is sequential; distinct evaluations may share one
graph concurrently since all inputs are immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, ClassVar, Collection, Hashable, Iterable, Iterator, NamedTuple, Optional

from .ast import (
    And,
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
    RuleSet,
    Union_,
    condition_vars,
    expr_vars,
    pattern_size,
    size_of,
    window_of,
)
from .graph import Path, PropertyGraph, const_eq
from .typecheck import (
    Schema,
    TypeExpr,
    check_ruleset,
    infer_schema,
    validate_for_mode,
)
from .values import (
    NOTHING,
    Answer,
    Assignment,
    EdgeVal,
    NodeVal,
    Value,
    wrap_answers,
    wrapper,
)

COLLECT_MODES = ("syntactic", "dynamic", "grouping")

Elements = tuple[str, ...]  # a path inside the evaluator: node, edge, ..., node


class ResourceLimitError(RuntimeError):
    """Evaluation exceeded the configured answer/state ceiling."""


@dataclass
class EvalConfig:
    collect_mode: str = "grouping"
    max_len: Optional[int] = None  # None resolves per restrictor
    max_answers: int = 100_000
    lenient_unify: bool = False
    bound_ceiling: ClassVar[int] = 10**6  # caps the default SHORTEST bound

    def __post_init__(self) -> None:
        if self.collect_mode not in COLLECT_MODES:
            raise ValueError(f"unknown collect mode {self.collect_mode!r}")
        if (self.max_len or 0) < 0 or self.max_answers < 0:
            raise ValueError("max_len and max_answers must be non-negative")


# -- conditions -------------------------------------------------------------


def satisfies(graph: PropertyGraph, mu: Assignment, theta: Condition) -> bool:
    """Boolean condition semantics; undefined properties make atoms false.
    A variable of `theta` that `mu` binds to no node or edge is a KeyError."""
    ids = {var: val.id for var, val in mu.items() if isinstance(val, (NodeVal, EdgeVal))}
    names = tuple(condition_vars(theta))
    return _test(graph, theta, names)(tuple(ids[var] for var in names))


def _test(
    graph: PropertyGraph, theta: Condition, names: tuple[str, ...]
) -> Callable[[tuple], bool]:
    """The condition as a test of a binding laid out over `names`, which
    holds each of its variables' node or edge ids. Each property's key and
    position are bound here, once."""
    prop = graph.prop
    if isinstance(theta, PropEqConst):
        at, key, const = names.index(theta.var), theta.key, theta.const
        return lambda mu: (value := prop(mu[at], key)) is not None and const_eq(value, const)
    if isinstance(theta, PropEqProp):
        at, key = names.index(theta.var), theta.key
        other_at, other_key = names.index(theta.other_var), theta.other_key
        return lambda mu: (value := prop(mu[at], key)) is not None and const_eq(
            value, prop(mu[other_at], other_key)
        )
    if isinstance(theta, Not):
        operand = _test(graph, theta.operand, names)
        return lambda mu: not operand(mu)
    left, right = _test(graph, theta.left, names), _test(graph, theta.right, names)
    if isinstance(theta, And):
        return lambda mu: left(mu) and right(mu)
    if isinstance(theta, Or):
        return lambda mu: left(mu) or right(mu)
    raise TypeError(f"not a condition: {theta!r}")


# -- length bounds -----------------------------------------------------------


def default_length_bound(
    restrictor: Restrictor,
    graph: PropertyGraph,
    pattern: Pattern,
    ceiling: int = EvalConfig.bound_ceiling,
) -> int:
    """Sound path-length cutoff per restrictor.

    simple: |N|; trail: total edge count; shortest:
    (|N| + |E|) * 2^size(pattern), capped at `ceiling`. Combined
    restrictors take the minimum of the applicable bounds.
    """
    return _bound(restrictor, graph, pattern_size(pattern), None, ceiling)


def _bound(
    restrictor: Restrictor,
    graph: PropertyGraph,
    size: int,
    max_len: Optional[int] = None,
    ceiling: int = EvalConfig.bound_ceiling,
) -> int:
    """`max_len` if given, else the default SHORTEST bound for a pattern of
    structural size `size`, and in both cases at most the longest trail or
    simple path where the restrictor asks for one."""
    base = restrictor.base
    bounds = [] if max_len is None else [max_len]
    if base is Restrictor.SIMPLE:
        bounds.append(len(graph.nodes))
    elif base is Restrictor.TRAIL:
        bounds.append(graph.edge_count)
    if max_len is None and restrictor.has_shortest:
        elements = len(graph.nodes) + graph.edge_count
        bounds.append(min(elements << size, ceiling) if size < ceiling.bit_length() else ceiling)
    return min(bounds)


# -- positional bindings -----------------------------------------------------
#
# A binding inside the evaluator is a tuple laid out over sorted variable
# names (see the module docstring); these build the functions that read,
# pad and merge such tuples once per operator.


def _picker(positions: list[int]) -> Callable[[tuple], tuple]:
    """The values of a binding at `positions`, as a tuple."""
    start = positions[0] if positions else 0
    if positions == list(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def _gather(names: tuple[str, ...], out: tuple[str, ...]) -> Callable[[tuple], tuple]:
    """Lays a binding over `names` out over `out`, which gets NOTHING for a
    name that `names` lacks (a union's padding)."""
    pos = {var: i for i, var in enumerate(names)}
    if all(var in pos for var in out):
        return _picker([pos[var] for var in out])
    pick = _picker([pos.get(var, len(names)) for var in out])
    return lambda mu: pick(mu + (NOTHING,))


class _Merge(NamedTuple):
    """How to merge a binding over `left` names with one over `right` names.

    The two agree exactly when `left_key` and `right_key` pick equal values,
    and `gather(mu1 + mu2)` is then their merge. `shared` is False when no
    name is shared, so every pair agrees.
    """

    shared: bool
    left_key: Callable[[tuple], tuple]
    right_key: Callable[[tuple], tuple]
    gather: Callable[[tuple], tuple]


def _merge(left: tuple[str, ...], right: tuple[str, ...], out: tuple[str, ...]) -> _Merge:
    shared = sorted(set(left) & set(right))
    return _Merge(
        bool(shared),
        _picker([left.index(var) for var in shared]),
        _picker([right.index(var) for var in shared]),
        _gather(left + right, out),
    )


def _merge_run(mu1: tuple, mu2: tuple, lenient: bool) -> Optional[tuple]:
    """The unification of two bindings with one layout, or None: an edgeless
    run of a repetition merges its segments' bindings this way."""
    if mu1 == mu2:
        return mu1
    if not lenient:
        return None
    out = []
    for a, b in zip(mu1, mu2):
        if a == b or b is NOTHING:
            out.append(a)
        elif a is NOTHING:
            out.append(b)
        else:
            return None
    return tuple(out)


# -- atoms -------------------------------------------------------------------


def _atom_matches(
    graph: PropertyGraph, pat: NodePat | EdgePat
) -> Iterator[tuple[tuple[str, ...], tuple]]:
    """The matches of a node or edge pattern, as (path elements, binding).

    The binding is `(n,)` or `(e,)`, the node's or edge's id, or `()` for an atom
    without a variable. A node pattern matches one-node paths. A forward
    or backward pattern traverses each directed edge one way; an
    undirected pattern traverses each undirected edge both ways, and a
    self-loop once.
    """
    var, label = pat.descriptor.var, pat.descriptor.label
    if isinstance(pat, NodePat):
        for n in graph.nodes:
            if label is None or label in graph.label_set(n):
                yield (n,), (n,) if var else ()
        return
    edges = (
        graph.undirected_edges
        if pat.direction is Direction.UNDIRECTED
        else graph.directed_edges
    )
    for e, ends in edges.items():
        if label is not None and label not in graph.label_set(e):
            continue
        mu = (e,) if var else ()
        if pat.direction is Direction.FORWARD:
            yield (ends[0], e, ends[1]), mu
        elif pat.direction is Direction.BACKWARD:
            yield (ends[1], e, ends[0]), mu
        else:
            pair = tuple(ends)
            yield (pair[0], e, pair[-1]), mu
            if len(pair) == 2:
                yield (pair[1], e, pair[0]), mu


def _endpoint_filter(
    graph: PropertyGraph, atom: NodePat, names: tuple[str, ...], out: tuple[str, ...]
) -> Callable[[str, tuple], Optional[tuple]]:
    """The node atom beside a path, as a filter on that path's endpoint.

    The filter maps an endpoint and the other operand's binding, laid out
    over `names`, to their strict unification with the atom's one match at that
    node, laid out over `out`, or None: the endpoint must have the atom's
    label, and where `names` holds the atom's variable it must be bound to
    that node; else the node is inserted. So the atom's matches are never
    built. The atom has length 0, so no split, window or restrictor check
    changes.
    """
    var, label = atom.descriptor.var, atom.descriptor.label
    label_set = graph.label_set
    at = names.index(var) if var in names else None
    insert = var is not None and at is None
    gather = _gather(names + (var,) if insert else names, out)

    def bind(end: str, mu: tuple) -> Optional[tuple]:
        if label is not None and label not in label_set(end):
            return None
        if at is not None and mu[at] != end:
            return None
        if insert:
            mu += (end,)
        return gather(mu)

    return bind


# -- satisfiable endpoint pairs ----------------------------------------------
#
# For `shortest` we need to know when further strata cannot satisfy any new
# (src, tgt) pair. The analysis (`_Evaluator.witnesses`) computes, exactly,
# the endpoint pairs for which the pattern has at least one answer, by
# relational composition over (src, tgt, bindings, edgeless?) witnesses. A
# witness keeps a variable's value only where an operator above compares
# it: a concatenation that shares it, an endpoint atom that re-checks it,
# or a condition that reads it. Any other binding, group and optional ones
# included, never constrains composition, so projecting it away loses
# nothing; an edgeless run of a repetition can always reuse one segment's
# bindings, so pair reachability through repetitions is plain relational
# power.


def _z_index(rel: frozenset) -> dict:
    """A relation's (tgt, edgeless?) entries by source."""
    by_src: dict = {}
    for s, t, z in rel:
        by_src.setdefault(s, []).append((t, z))
    return by_src


def _z_compose(r1: frozenset, by_src: dict) -> frozenset:
    """r1 composed with the relation that `by_src` indexes."""
    return frozenset(
        (s, u, z1 and z2) for s, t, z1 in r1 for u, z2 in by_src.get(t, ())
    )


def _z_power(rel: frozenset, n: int, domain: Iterable) -> frozenset:
    result = frozenset((x, x, True) for x in domain)
    base = rel
    while n:
        index = _z_index(base)
        if n & 1:
            result = _z_compose(result, index)
        n >>= 1
        if n:
            base = _z_compose(base, index)
    return result


def _z_power_range(
    rel: frozenset,
    lo: int,
    hi: Optional[int],
    domain: Iterable,
    start: Optional[frozenset] = None,
) -> frozenset:
    """The union of rel^c over lo <= c <= hi (no upper end if hi is None),
    from the sources in `start` only, if it is given.

    After rel^lo, each step composes only the witnesses the previous step
    found first: a witness reached again at a later step reaches nothing
    new from there. So the search ends after hi - lo steps, or sooner once
    a step finds nothing new. rel^1 is rel, since every source is a node
    of `domain`.
    """
    steps = _z_index(rel)
    if lo != 1:
        reached = _z_power(rel, lo, domain if start is None else start)
    elif start is None:
        reached = rel
    else:
        reached = frozenset(w for w in rel if w[0] in start)
    frontier = reached
    for _ in itertools.count() if hi is None else range(hi - lo):
        frontier = _z_compose(frontier, steps) - reached
        if not frontier:
            break
        reached |= frontier
    return reached


def satisfiable_pairs(
    graph: PropertyGraph,
    pattern: Pattern,
    collect_mode: str = "grouping",
    evaluator: Optional["_Evaluator"] = None,
) -> set[tuple[str, str]]:
    """Exactly the (src, tgt) pairs for which the pattern has an answer.

    The analysis charges its relations to `evaluator`'s work budget, or to
    a fresh evaluator's, built with `collect_mode` once the pattern has
    type-checked, and raises ResourceLimitError once that runs out.
    """
    if evaluator is None:  # else the evaluator's caller typed the pattern
        infer_schema(pattern)
        evaluator = _Evaluator(graph, EvalConfig(collect_mode=collect_mode))
    return {(s, t) for s, t, _, _ in evaluator.witnesses(evaluator.tree(pattern))}


# -- pattern evaluation -------------------------------------------------------


class _Sub:
    """One occurrence of a subpattern in the pattern being evaluated, and all
    that the evaluator keeps for it (see `_Evaluator.compile`), its answers
    included (`_Evaluator.answers`). It keeps its layout, not its type. A
    node that a library caller uses in two places gets a record in each."""

    __slots__ = (
        "pat", "kids", "names", "lo", "hi", "size", "plan", "start",
        "by_source", "memo", "count", "levels", "first",
    )

    def __init__(self, pat: Pattern, kids: tuple, names: tuple, plan, start):
        self.pat = pat
        self.kids: tuple[_Sub, ...] = kids  # its operands' records, in order
        self.names = names  # the layout of its bindings: its sorted variables
        self.lo, self.hi = window_of(pat, [(kid.lo, kid.hi) for kid in kids])
        self.size = size_of(pat, [kid.size for kid in kids])  # see `default_length_bound`
        self.plan = plan
        self.start: Optional[frozenset] = start  # None: its answers may start anywhere
        self.by_source = False  # whether its parent reads its answers by source node
        self.memo: dict[int, Collection | dict] = {}  # see `_Evaluator.answers`
        self.count = 0  # answers over every length so far, for the ceiling
        self.levels: list = []  # a repetition's states by length
        self.first: dict = {}  # a repetition's dominance table (see `_repeat`)

    def kept(self, need: frozenset) -> tuple[str, ...]:
        """The layout of the pair analysis's witnesses under `need`."""
        return tuple(sorted(need.intersection(self.names)))


class _Evaluator:
    """One bottom-up evaluation per query or rule set, by exact path length.

    Each leg's pattern is compiled once into a tree of records (`compile`),
    and its pair analysis and its strata read that tree. `answers(sub, k)`
    holds, on the record, its answers of length exactly k, as distinct
    rows (path elements, binding) with the binding laid out over
    `sub.names`, in a list or a set, or by source node. The leg's tree is
    dropped when the leg ends, and its memos with it. `witnesses` is the
    pair analysis, charged to the same work budget.
    """

    def __init__(self, graph: PropertyGraph, cfg: EvalConfig):
        self.graph = graph
        self.cfg = cfg
        self.root: Optional[_Sub] = None  # the leg's tree (`tree`)
        # Per leg (see `restrict`): where the elements start that a joined
        # path must not repeat, and whether plain SHORTEST dominance prunes
        # repetition states. `eval_pattern` prunes nothing.
        self.fresh_from = 0
        self.dominance = False
        self.work = 0
        self.work_limit = max(cfg.max_answers * 20, 1_000_000)
        self.bound = 0  # the largest of its legs' bounds (see `_eval_restricted`)

    def compile(self, pat: Pattern, within: Optional[frozenset] = None) -> _Sub:
        """The tree of records of `pat`, one per occurrence of a subpattern,
        each with its layout, window, size, plan and start set.

        An atom's layout is its variable, if any; a concatenation's or a
        union's is its operands' variables, sorted; a condition's or a
        repetition's is its body's. A plan says how `_compute` combines the
        operands' bindings: an endpoint filter or a `_Merge` for a
        concatenation, the operands' padding for a union, the condition's
        test for `Cond` (`_test`). It marks `by_source` a merging
        concatenation's right operand and a repetition's body, whose answers
        their parents read by source node.

        `within` names the nodes where the answers of `pat` need to start,
        or None for anywhere; it is the record's start set. A labelled node
        atom on the source side of an endpoint filter keeps only the
        answers whose source has its label, so the path beside it needs to
        start nowhere else. The set descends the operands whose answers
        start where the path's do: a concatenation's left operand (or the
        path beside a source atom), both sides of a union, and a
        condition's pattern. Nested source atoms intersect their sets. A
        repetition builds its length-0 states, and the pair analysis starts
        its powers, at its start set only. The filter still runs, so
        answers are unchanged.
        """
        graph = self.graph
        plan = None
        if isinstance(pat, Concat):
            at_src = isinstance(pat.left, NodePat)
            if at_src == isinstance(pat.right, NodePat):  # no node atom beside a path
                kids = (self.compile(pat.left, within), self.compile(pat.right))
                kids[1].by_source = True
                names = tuple(sorted({*kids[0].names, *kids[1].names}))
                plan = _merge(kids[0].names, kids[1].names, names)
            else:
                atom, other = (pat.left, pat.right) if at_src else (pat.right, pat.left)
                label = atom.descriptor.label
                if at_src and label is not None:
                    nodes = frozenset(n for n in graph.nodes if label in graph.label_set(n))
                    within = nodes if within is None else within & nodes
                path = self.compile(other, within)
                kids = (self.compile(atom), path) if at_src else (path, self.compile(atom))
                names = tuple(sorted({*kids[0].names, *kids[1].names}))
                plan = path, at_src, _endpoint_filter(graph, atom, path.names, names)
        elif isinstance(pat, Union_):
            kids = (self.compile(pat.left, within), self.compile(pat.right, within))
            names = tuple(sorted({*kids[0].names, *kids[1].names}))
            plan = _gather(kids[0].names, names), _gather(kids[1].names, names)
        elif isinstance(pat, Cond):
            kids = (self.compile(pat.pattern, within),)
            names = kids[0].names
            plan = _test(graph, pat.condition, names)
        elif isinstance(pat, Repeat):
            kids = (self.compile(pat.pattern),)
            kids[0].by_source = True
            names = kids[0].names
        elif isinstance(pat, (NodePat, EdgePat)):
            kids, names = (), (pat.descriptor.var,) if pat.descriptor.var else ()
        else:
            raise TypeError(f"not a pattern: {pat!r}")
        return _Sub(pat, kids, names, plan, within)

    def tree(self, pattern: Pattern) -> _Sub:
        """The leg's tree, compiled on its first use."""
        if self.root is None or self.root.pat is not pattern:
            self.root = self.compile(pattern)
        return self.root

    def charge(self, amount: int = 1) -> None:
        self.work += amount
        if self.work > self.work_limit:
            raise ResourceLimitError(
                f"evaluation exceeded {self.work_limit} intermediate states"
            )

    def check_ceiling(self, size: int) -> None:
        """Raise once an answer set holds more than `max_answers` entries."""
        if size > self.cfg.max_answers:
            raise ResourceLimitError(
                f"answer set exceeded the ceiling of {self.cfg.max_answers}"
            )

    def answers(self, sub: _Sub, k: int) -> Collection | dict:
        """The record's answers of length k, computed once: the memo keeps
        the rows that `_compute` returned or, for a record marked
        `by_source`, only those rows in lists by their source node."""
        rows = sub.memo.get(k)
        if rows is None:
            rows = self._compute(sub, k)
            # The ceiling counts a subpattern's answers over every length so far.
            sub.count += len(rows)
            self.check_ceiling(sub.count)
            if sub.by_source:
                index: dict = {}
                for row in rows:
                    index.setdefault(row[0][0], []).append(row)
                rows = index
            sub.memo[k] = rows
        return rows

    def restrict(self, restrictor: Restrictor) -> None:
        """Prune the paths built next, for a leg under `restrictor`.

        Under TRAIL a path joined on must not repeat the edges of the path
        it extends: its elements from 1, every second one. Under SIMPLE it
        must not repeat the nodes after its first: from 2. Node and edge
        ids never coincide, so each is looked up in the extended path's
        whole element tuple. Both paths already satisfy the restrictor, so
        nothing else can break it, and an edgeless one adds nothing to look
        up. `fresh_from` 0 means no check. Under plain SHORTEST, dominance
        prunes repetition states.
        """
        base = restrictor.base
        self.fresh_from = 1 if base is Restrictor.TRAIL else 2 if base is Restrictor.SIMPLE else 0
        self.dominance = restrictor is Restrictor.SHORTEST

    def _compute(self, sub: _Sub, k: int) -> Collection[tuple[Elements, tuple]]:
        pat = sub.pat
        if isinstance(pat, (NodePat, EdgePat)):
            if sub.lo != k:
                return []
            matches = _atom_matches(self.graph, pat)
            if k and self.fresh_from == 2:  # a self-loop is not simple
                return [(el, mu) for el, mu in matches if el[0] != el[2]]
            return list(matches)
        if isinstance(pat, Concat):
            plan = sub.plan
            if not isinstance(plan, _Merge):
                path, at_src, bind = plan
                # The one split the loop below would admit, if any.
                if k < path.lo or (path.hi is not None and k > path.hi):
                    return []
                out = [
                    (p, merged)
                    for p, mu in self.answers(path, k)
                    if (merged := bind(p[0] if at_src else p[-1], mu)) is not None
                ]
                self.charge(len(out))
                return out
            shared, left_key, right_key, gather = plan
            left, right = sub.kids
            # Only the splits that both operands' windows admit.
            first = left.lo if right.hi is None else max(left.lo, k - right.hi)
            last = k - right.lo if left.hi is None else min(left.hi, k - right.lo)
            start = self.fresh_from
            out = set()
            for i in range(first, last + 1):
                lefts = self.answers(left, i)
                rights = self.answers(right, k - i)
                if not lefts or not rights:
                    continue
                check = start and i and i < k
                for p1, mu1 in lefts:
                    key = left_key(mu1)
                    for p2, mu2 in rights.get(p1[-1], ()):
                        self.charge()
                        if check and any(map(p1.__contains__, p2[start::2])):
                            continue
                        if shared and right_key(mu2) != key:
                            continue
                        out.add((p1 + p2[1:], gather(mu1 + mu2)))
            return out
        if isinstance(pat, Union_):
            (left, right), (pad_left, pad_right) = sub.kids, sub.plan
            out = {(p, pad_left(mu)) for p, mu in self.answers(left, k)}
            out.update((p, pad_right(mu)) for p, mu in self.answers(right, k))
            return out
        if isinstance(pat, Cond):
            test = sub.plan
            return [(p, mu) for p, mu in self.answers(sub.kids[0], k) if test(mu)]
        return self._repeat(sub, k)

    def witnesses(self, sub: _Sub, need: frozenset = frozenset()) -> frozenset:
        """The pair analysis: entries (src, tgt, binding, edgeless?).

        An entry's binding is laid out over `sub.kept(need)`: it holds a
        variable only if an operator above compares it, which is what
        `need` names. So a leg's top call needs nothing. The endpoint
        filter and the atom matcher are the evaluator's. A composed
        relation is charged to the work budget by its size.
        """
        pat = sub.pat
        out_names = sub.kept(need)
        if isinstance(pat, (NodePat, EdgePat)):
            keep = bool(out_names)
            return frozenset(
                (elements[0], elements[-1], mu if keep else (), len(elements) == 1)
                for elements, mu in _atom_matches(self.graph, pat)
            )
        if isinstance(pat, Cond):
            inner = need | condition_vars(pat.condition)
            body = sub.kids[0]
            names = body.kept(inner)
            test = _test(self.graph, pat.condition, names)
            gather = _gather(names, out_names)
            return frozenset(
                (s, t, gather(mu), z) for s, t, mu, z in self.witnesses(body, inner) if test(mu)
            )
        if isinstance(pat, Repeat):
            # Its variables are groups, which no operator compares.
            grouping = self.cfg.collect_mode == "grouping"
            steps = frozenset(
                (s, t, z)
                for s, t, _, z in self.witnesses(sub.kids[0])
                if grouping or not z
            )
            pairs = _z_power_range(steps, pat.lo, pat.hi, self.graph.nodes, sub.start)
            out = frozenset((s, t, (), z) for s, t, z in pairs)
        elif isinstance(pat, Union_):
            out = frozenset()
            for side in sub.kids:
                gather = _gather(side.kept(need), out_names)
                out |= {(s, t, gather(mu), z) for s, t, mu, z in self.witnesses(side, need)}
        elif not isinstance(sub.plan, _Merge):  # a node atom beside a path
            path, at_src, _ = sub.plan
            atom = sub.kids[0 if at_src else 1].pat
            # The atom re-checks its variable where the other binds it.
            var = atom.descriptor.var
            inner = need if var is None else need | {var}
            bind = _endpoint_filter(self.graph, atom, path.kept(inner), out_names)
            # The atom's own entries are edgeless, so `z` is the other's.
            out = frozenset(
                (s, t, merged, z)
                for s, t, mu, z in self.witnesses(path, inner)
                if (merged := bind(s if at_src else t, mu)) is not None
            )
        else:
            left, right = sub.kids
            inner = need | set(left.names).intersection(right.names)
            shared, left_key, right_key, gather = _merge(
                left.kept(inner), right.kept(inner), out_names
            )
            by_src: dict = {}
            for s, t, mu, z in self.witnesses(right, inner):
                by_src.setdefault(s, []).append((t, mu, z))
            out = frozenset(
                (s, u, gather(mu1 + mu2), z1 and z2)
                for s, t, mu1, z1 in self.witnesses(left, inner)
                for u, mu2, z2 in by_src.get(t, ())
                if not shared or left_key(mu1) == right_key(mu2)
            )
        self.charge(len(out))
        return out

    # -- repetition -----------------------------------------------------------

    def _repeat(self, sub: _Sub, k: int) -> set[tuple[Elements, tuple]]:
        """Collect over segment splits, as one worklist for every mode.

        A state is (path so far, groups, open edgeless run, count, pumped);
        its groups end with the open run, if any. The body's layout is the
        repetition's, so each answer's group value at a position is the
        tuple that pairs every group's path with that group's value there.
        Edgeless segments are undefined in dynamic mode and, after
        validation, cannot occur in syntactic mode, so both drop them. A
        variable-free body records no groups, and its open run is (). A
        state that holds an edgeless run could merge that run's segment
        again, raising its count by any
        amount with the same bindings: it is pumped and matches even below
        `lo`. So a merge that leaves the open run unchanged is skipped, and
        every count stays finite. With an open upper bound only "reached lo"
        matters, so the count is capped there.

        The leg's restrictor prunes states (see `restrict`). Under plain
        SHORTEST with an open upper bound, a state is kept only at the
        first length where its key (endpoints, capped count, pumped,
        edgeless?) enters its dominance table. Its answers bind only group
        variables, which no sibling shares and no condition reads. So
        wherever a longer state completes to an answer of the leg, a
        shorter state with the same key completes to a shorter answer with
        the same endpoints, and the longer one is never kept. Edgeless
        states keep their own key: an enclosing repetition drops or merges
        edgeless segments, so a length-0 state cannot stand in for a
        positive one. Under SHORTEST TRAIL or SIMPLE the shorter answer
        need not satisfy the restrictor, so the rule does not apply.
        """
        pat, body, levels = sub.pat, sub.kids[0], sub.levels
        longest = body.hi

        while len(levels) < k:  # build each shorter length once, in order
            recent = levels[max(len(levels) - (longest or 0), 0):]
            if longest is not None and levels and not any(recent):
                return set()  # a state extends one at most `longest` shorter
            self.answers(sub, len(levels))
        width = len(body.names)
        lo, hi = pat.lo, pat.hi
        grouping = self.cfg.collect_mode == "grouping"
        # Only edgeless merges or unrecorded groups reach a state twice;
        # otherwise each state extends its parent's groups by one segment.
        dedupe = grouping or not width
        states: list = []
        seen: set = set()
        start = self.fresh_from
        first = sub.first if hi is None and self.dominance else None
        zero = k == 0

        def push(state) -> bool:
            if first is not None:
                elements = state[0]
                key = (elements[0], elements[-1], state[3], state[4], zero)
                if first.setdefault(key, k) != k:
                    return False
            if dedupe:
                if state in seen:
                    return False
                seen.add(state)
            self.charge()
            states.append(state)
            return True

        if k == 0:
            for n in self.graph.nodes if sub.start is None else sub.start:
                push(((n,), (), None, 0, False))
        for j in range(0 if longest is None else max(k - longest, 0), k):
            segments = self.answers(body, k - j)
            if not segments:
                continue
            for path_so_far, groups, _, count, pumped in levels[j]:
                if count == hi:
                    continue
                nk = count + 1 if hi is not None or count < lo else count
                for segment in segments.get(path_so_far[-1], ()):
                    if start and any(map(path_so_far.__contains__, segment[0][start::2])):
                        continue
                    ngroups = groups + (segment,) if width else ()
                    push((path_so_far + segment[0][1:], ngroups, None, nk, pumped))
        edgeless = self.answers(body, 0)
        lenient = self.cfg.lenient_unify
        queue = list(states) if grouping and edgeless else []
        while queue:
            path_so_far, groups, open_mu, count, _ = queue.pop()
            if count == hi:
                continue
            nk = count + 1 if hi is not None or count < lo else count
            closed = groups if open_mu is None else groups[:-1]
            for _, mu in edgeless.get(path_so_far[-1], ()):
                merged = mu if open_mu is None else _merge_run(open_mu, mu, lenient)
                if merged is None or merged == open_mu:
                    continue
                ngroups = closed + (((path_so_far[-1],), merged),) if width else ()
                state = (path_so_far, ngroups, merged, nk, True)
                if push(state):
                    queue.append(state)
        levels.append(states)
        if longest is not None and k >= longest:
            levels[k - longest] = None  # no later length extends these
        return {
            (path_so_far, tuple(tuple([(p, mu[i]) for p, mu in groups]) for i in range(width)))
            for path_so_far, groups, _, count, pumped in states
            if count >= lo or pumped
        }


def pattern_rows(
    graph: PropertyGraph, pattern: Pattern, cfg: EvalConfig
) -> tuple[tuple[str, ...], Schema, list[tuple[Elements, tuple]]]:
    """The pattern's sorted variables, its schema, and its answers with
    path length <= cfg.max_len as raw rows (path elements, binding), each
    binding laid out over those variables."""
    if cfg.max_len is None:
        raise ValueError("pattern evaluation needs an explicit max_len")
    schema = infer_schema(pattern)
    validate_for_mode(pattern, cfg.collect_mode)
    evaluator = _Evaluator(graph, cfg)
    root = evaluator.compile(pattern)
    # No answer is shorter than the root's window or longer than its end.
    last = cfg.max_len if root.hi is None else min(cfg.max_len, root.hi)
    rows = [row for k in range(root.lo, last + 1) for row in evaluator.answers(root, k)]
    return root.names, schema, rows


def eval_pattern(
    graph: PropertyGraph, pattern: Pattern, cfg: EvalConfig
) -> set[tuple[Path, Assignment]]:
    """All (path, assignment) answers with path length <= cfg.max_len."""
    names, schema, rows = pattern_rows(graph, pattern, cfg)
    path, row = wrapper()
    values = row([schema[var] for var in names])
    return {(path(p), Assignment(zip(names, values(mu)))) for p, mu in rows}


def power(
    graph: PropertyGraph, pattern: Pattern, i: int, cfg: EvalConfig
) -> set[tuple[Path, Assignment]]:
    """The i-th power of the pattern's answer set, length-bounded."""
    if i < 0:
        raise ValueError("power index must be non-negative")
    return eval_pattern(graph, Repeat(pattern, i, i), cfg)


# -- queries -------------------------------------------------------------


def _endpoint_vars(pattern: Pattern) -> tuple[Optional[str], Optional[str]]:
    """The variables of the leftmost and the rightmost node atoms of the
    pattern's concatenation spine, each None where that end is no node atom
    or binds no variable. Every answer binds them to its path's source and
    target."""
    ends = []
    for side in ("left", "right"):
        end = pattern
        while isinstance(end, Concat):
            end = getattr(end, side)
        ends.append(end.descriptor.var if isinstance(end, NodePat) else None)
    return ends[0], ends[1]


def _eval_restricted(
    evaluator: _Evaluator, leg: Restricted, need: Optional[frozenset[str]] = None
) -> tuple[tuple[str, ...], Iterable[tuple[tuple[Elements, ...], tuple]]]:
    """The leg's sorted variables and its rows (paths, binding), each
    binding laid out over those variables. With `need` None these are all
    its variables, its path variable too, and its answers, one path each.
    Else they are the variables in `need`, and the rows are the distinct
    bindings of those alone, with no path.

    This is where the leg's plan is chosen. A SHORTEST leg keeps each
    endpoint pair's first stratum. It runs the pair analysis once, before
    its first stratum, only if it holds more than one stratum, to stop
    once every pair the pattern connects has its answers, or if its
    default bound was cut at the ceiling short of the longest match, which
    is sound only when every such pair has them. A finite window runs it
    too: the strata it lets the leg skip can hold far more walks than the
    answers, as length 3 does on a complete graph. Then the leg is
    - answered by the analysis alone, if it is plain SHORTEST under no
      explicit length bound and `need` holds only endpoint variables:
      every pair has a shortest path, and its answers bind those
      variables to the pair's source and target, so it lists no stratum
      and never meets the bound ceiling;
    - else listed stratum by stratum, up to the bound or, once the
      analysis ran, until every pair it found is covered;
    - and refused if the bound was cut at the ceiling and a pair is left.

    The leg's bound, the longest path length it is listed to, is
    `cfg.max_len`, or the restrictor's default bound without one, capped
    at the longest match the pattern can have and at the longest trail or
    simple path when the restrictor asks for one. No answer is longer, so
    the caps leave the answers unchanged, and strata past them would be
    empty and cost no work that the budget could stop. It is fixed before
    the plan, so a leg that the analysis answers alone has one too, and
    the evaluator keeps the largest bound of its legs (`evaluator.bound`).
    """
    graph, cfg = evaluator.graph, evaluator.cfg
    restrictor, pattern = leg.restrictor, leg.pattern
    root = evaluator.tree(pattern)  # the pair analysis reads it too
    lo, hi = root.lo, root.hi
    shortest = restrictor.has_shortest
    bound = _bound(restrictor, graph, root.size, cfg.max_len)
    if hi is not None:
        bound = min(bound, hi)
    evaluator.bound = max(evaluator.bound, bound)
    # The bound never exceeds the longest match, so `hi != bound` is "short of it".
    cut = shortest and cfg.max_len is None and bound == cfg.bound_ceiling and hi != bound
    sat: Optional[set[tuple[str, str]]] = None
    if shortest and (lo < bound or cut):
        sat = satisfiable_pairs(graph, pattern, cfg.collect_mode, evaluator)
        src, tgt = _endpoint_vars(pattern)
        # A path variable is never an endpoint variable.
        if (
            need is not None
            and restrictor is Restrictor.SHORTEST
            and cfg.max_len is None
            and need <= {src, tgt}
        ):
            names = tuple(sorted(need))
            pick = _picker([0 if var == src else 1 for var in names])
            loop = src is not None and src == tgt
            evaluator.root = None
            return names, {((), pick(pair)) for pair in sat if not loop or pair[0] == pair[1]}
    best: dict[tuple[str, str], int] = {}
    kept: list[tuple[Elements, tuple]] = []  # distinct: strata hold distinct lengths
    evaluator.restrict(restrictor)
    for level in range(lo, bound + 1):
        for p, mu in evaluator.answers(root, level):
            if shortest and best.setdefault((p[0], p[-1]), level) != level:
                continue
            kept.append((p, mu))
        if sat is not None and sat <= best.keys():
            break
    if cut and not sat <= best.keys():
        raise ResourceLimitError(
            f"SHORTEST needs paths longer than the bound ceiling of {bound}"
        )
    names = root.names
    # No other leg holds this leg's records; kept, its answers slow later legs.
    evaluator.root = root = None
    if leg.var is None:
        rows = [((p,), mu) for p, mu in kept]
    else:
        with_path = names + (leg.var,)
        names = tuple(sorted(with_path))
        gather = _gather(with_path, names)
        rows = [((p,), gather(mu + (p,))) for p, mu in kept]
    if need is None:
        return names, rows
    out = tuple(sorted(need))
    pick = _picker([names.index(var) for var in out])
    return out, {((), pick(mu)) for _, mu in rows}


def _rows(
    evaluator: _Evaluator, query: Query, keep: Optional[frozenset[str]] = None
) -> tuple[tuple[str, ...], Iterable[tuple[tuple[Elements, ...], tuple]]]:
    """The query's sorted variables and its rows (paths, binding), each
    binding laid out over those variables. With `keep` None these are all
    its variables and its answers, which are distinct: a leg's are, and a
    join's output determines its inputs. Else they are its variables in
    `keep`, and the rows are the distinct bindings of those alone, with no
    paths. Below a join, each side keeps what the other side names too, so
    the join compares every variable that it would compare unprojected,
    and projecting first loses no binding of `keep`.
    """
    if isinstance(query, Restricted):
        need = None if keep is None else keep.intersection(expr_vars(query))
        return _eval_restricted(evaluator, query, need)
    if isinstance(query, Join):
        if keep is None:
            names1, left = _rows(evaluator, query.left)
            names2, right = _rows(evaluator, query.right)
            names = tuple(sorted(set(names1 + names2)))
        else:
            names1, left = _rows(evaluator, query.left, keep.union(expr_vars(query.right)))
            names2, right = _rows(evaluator, query.right, keep.union(expr_vars(query.left)))
            names = tuple(sorted(keep.intersection(names1 + names2)))
        joined = _hash_join(evaluator, left, right, _merge(names1, names2, names))
        return names, joined if keep is None else set(joined)
    raise TypeError(f"not a query: {query!r}")


def query_rows(
    graph: PropertyGraph, query: Query, cfg: Optional[EvalConfig] = None
) -> tuple[tuple[str, ...], Schema, list[tuple[tuple[Elements, ...], tuple]], int]:
    """The query's sorted variables, its schema, its answers as distinct
    raw rows (paths, binding), and the largest bound of its legs (see
    `_eval_restricted`): each path is its element tuple, and each binding
    is laid out over those variables."""
    cfg = cfg or EvalConfig()
    schema = infer_schema(query)
    validate_for_mode(query, cfg.collect_mode)
    evaluator = _Evaluator(graph, cfg)
    # Each leg's pattern and each join check the answer ceiling themselves.
    names, rows = _rows(evaluator, query)
    return names, schema, rows, evaluator.bound


def eval_query(
    graph: PropertyGraph, query: Query, cfg: Optional[EvalConfig] = None
) -> set[Answer]:
    """The answer set of a query: tuples of witness paths with bindings."""
    names, schema, rows, _ = query_rows(graph, query, cfg)
    # Popped, each raw row is freed as soon as it is wrapped.
    return wrap_answers(names, schema, (rows.pop() for _ in range(len(rows))))


def ruleset_rows(
    graph: PropertyGraph,
    rules: RuleSet,
    cfg: Optional[EvalConfig],
    convert: Callable[[list[TypeExpr]], Callable[[tuple], Hashable]],
) -> tuple[set, int]:
    """Union over rules of the head projections of each body's answers,
    and the largest bound of the bodies' legs (see `_eval_restricted`).

    `convert(types)` maps a raw head tuple of a rule whose head has those
    types to what the union holds, such as its value tuple or its output
    line; it must be injective on the values. Every rule runs on one
    evaluator, under its work budget, and the union meets the same answer
    ceiling as a join's output. The bodies are typed once, up front.

    A head keeps no paths, so each body is evaluated projected onto it
    (`_rows` with `keep`): a leg needs only the variables that the head
    names or another leg shares, and `_eval_restricted` may answer it from
    the pair analysis alone.
    """
    cfg = cfg or EvalConfig()
    schemas = check_ruleset(rules)
    validate_for_mode(rules, cfg.collect_mode)
    evaluator = _Evaluator(graph, cfg)
    out: set = set()
    for rule, schema in zip(rules.rules, schemas):
        names, rows = _rows(evaluator, rule.body, frozenset(rule.head))
        head = _picker([names.index(var) for var in rule.head])
        as_row = convert([schema[var] for var in rule.head])
        out.update(map(as_row, {head(mu) for _, mu in rows}))
        evaluator.check_ceiling(len(out))
    return out, evaluator.bound


def eval_ruleset(
    graph: PropertyGraph, rules: RuleSet, cfg: Optional[EvalConfig] = None
) -> set[tuple[Value, ...]]:
    """Union over rules of the head projections of each body's answers, as
    value tuples (see `ruleset_rows`)."""
    return ruleset_rows(graph, rules, cfg, wrapper()[1])[0]


def _hash_join(evaluator: _Evaluator, left: Iterable, right: Iterable, merge: _Merge) -> list:
    """The rows (paths, binding) of `left` and `right` that agree, merged:
    the right rows are bucketed by their shared values, and each left row
    probes its bucket. Shared join variables are node/edge singletons and
    unification is strict, so two rows agree exactly when their keys are
    equal. The output meets the answer ceiling as it grows."""
    _, left_key, right_key, gather = merge
    buckets: dict[tuple, list] = {}
    for row in right:
        buckets.setdefault(right_key(row[1]), []).append(row)
    out = []
    for paths1, mu1 in left:
        for paths2, mu2 in buckets.get(left_key(mu1), ()):
            out.append((paths1 + paths2, gather(mu1 + mu2)))
            evaluator.check_ceiling(len(out))
    return out
