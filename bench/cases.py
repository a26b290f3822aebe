"""The three workloads: query shapes, their texts, and their references.

Each workload is a list of families; a family is one query shape run on
several seeded graph instances of one generator. The reference answers
come from this file's own enumerators over the raw graph documents (for
path queries) or from the oracle's product automaton and nested-regex
recursion (for rule sets), never from the engine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

from gen import g_exp, g_grid, g_random


# -- query shapes ---------------------------------------------------------


@dataclass(frozen=True)
class Node:
    var: Optional[str] = None
    label: Optional[str] = None

    def text(self) -> str:
        return "(%s%s)" % (self.var or "", f":{self.label}" if self.label else "")

    def accepts(self, labels: dict, node: str) -> bool:
        return self.label is None or self.label in labels[node]


@dataclass(frozen=True)
class Walk:
    """`[path_var =] RESTRICTOR (src) -[edge]->{1..hi} (tgt)`.

    `repeat=False` drops the quantifier: one edge, bound as an edge
    rather than a group. `hi=None` is an open repetition.
    """

    restrictor: str  # SHORTEST, TRAIL or SIMPLE
    src: Node
    tgt: Node
    edge_var: Optional[str] = None
    edge_label: Optional[str] = None
    repeat: bool = True
    hi: Optional[int] = None
    path_var: Optional[str] = None

    def text(self) -> str:
        edge = (self.edge_var or "") + (f":{self.edge_label}" if self.edge_label else "")
        quant = "{1..%s}" % ("" if self.hi is None else self.hi) if self.repeat else ""
        bound = f"{self.path_var} = " if self.path_var else ""
        return f"{bound}{self.restrictor} {self.src.text()} -[{edge}]->{quant} {self.tgt.text()}"

    def leaves(self) -> tuple["Walk", ...]:
        return (self,)

    def max_len(self) -> Optional[int]:
        return self.hi if self.repeat else 1

    def reference(self, doc: dict) -> list[dict]:
        """Every answer, serialized as `gpc run` documents it."""
        labels = {n["id"]: set(n.get("labels", ())) for n in doc["nodes"]}
        steps: dict[str, list[tuple[str, str]]] = {n: [] for n in labels}
        for e in doc.get("directed_edges", ()):
            if self.edge_label is None or self.edge_label in e.get("labels", ()):
                steps[e["src"]].append((e["id"], e["tgt"]))
        hi = (self.hi if self.repeat else 1) or len(labels) + len(doc["directed_edges"])
        walks = []
        for start in sorted(labels):
            if self.src.accepts(labels, start):
                walks += self._walks_from(start, steps, hi)
        return [
            self._answer(w) for w in walks if len(w) > 1 and self.tgt.accepts(labels, w[-1])
        ]

    def _walks_from(self, start: str, steps: dict, hi: int) -> list[tuple[str, ...]]:
        out = []
        if self.restrictor == "SHORTEST":
            # dist0: shortest walk of length >= 0; dist1: of length >= 1.
            # Every proper prefix of a shortest nonempty walk is a shortest
            # walk to its own end, so only those are extended.
            dist0, frontier = {start: 0}, [start]
            for level in range(1, hi + 1):
                frontier = [t for u in frontier for _, t in steps[u] if t not in dist0]
                for t in frontier:
                    dist0.setdefault(t, level)
            dist1 = {}
            for u, d in dist0.items():
                for _, t in steps[u]:
                    if d + 1 <= hi and d + 1 < dist1.get(t, hi + 1):
                        dist1[t] = d + 1
            stack = [(start,)]
            while stack:
                walk = stack.pop()
                end, length = walk[-1], len(walk) // 2
                if length and dist1.get(end) == length:
                    out.append(walk)
                if dist0.get(end) == length and length < hi:
                    stack += [walk + (e, t) for e, t in steps[end]]
            return out
        stack = [(start,)]
        while stack:
            walk = stack.pop()
            out.append(walk)
            if len(walk) // 2 == hi:
                continue
            for e, t in steps[walk[-1]]:
                if self.restrictor == "TRAIL" and e in walk[1::2]:
                    continue
                if self.restrictor == "SIMPLE" and t in walk[0::2]:
                    continue
                stack.append(walk + (e, t))
        return out

    def _answer(self, walk: tuple[str, ...]) -> dict:
        bindings: dict = {}
        if self.src.var:
            bindings[self.src.var] = {"kind": "node", "id": walk[0]}
        if self.tgt.var:
            bindings[self.tgt.var] = {"kind": "node", "id": walk[-1]}
        if self.edge_var and self.repeat:
            bindings[self.edge_var] = {
                "kind": "group",
                "items": [
                    [{"elements": list(walk[i - 1 : i + 2])}, {"kind": "edge", "id": walk[i]}]
                    for i in range(1, len(walk), 2)
                ],
            }
        elif self.edge_var:
            bindings[self.edge_var] = {"kind": "edge", "id": walk[1]}
        if self.path_var:
            bindings[self.path_var] = {"kind": "path", "elements": list(walk)}
        return {"paths": [{"elements": list(walk)}], "bindings": bindings}


@dataclass(frozen=True)
class Join:
    """Comma-joined path queries; shared variables must agree."""

    parts: tuple[Walk, ...]

    def text(self) -> str:
        return ", ".join(p.text() for p in self.parts)

    def leaves(self) -> tuple[Walk, ...]:
        return self.parts

    def max_len(self) -> Optional[int]:
        lengths = [p.max_len() for p in self.parts]
        return None if None in lengths else max(lengths)

    def reference(self, doc: dict) -> list[dict]:
        result = self.parts[0].reference(doc)
        for part in self.parts[1:]:
            right = part.reference(doc)
            shared = sorted(
                {v for a in result[:1] for v in a["bindings"]}
                & {v for a in right[:1] for v in a["bindings"]}
            )
            by_key: dict = {}
            for b in right:
                by_key.setdefault(_key(b["bindings"], shared), []).append(b)
            result = [
                {
                    "paths": a["paths"] + b["paths"],
                    "bindings": {**a["bindings"], **b["bindings"]},
                }
                for a in result
                for b in by_key.get(_key(a["bindings"], shared), ())
            ]
        return result


def _key(bindings: dict, names: list[str]) -> str:
    return json.dumps([bindings[v] for v in names], sort_keys=True)


@dataclass(frozen=True)
class Rules:
    """A '#c2rpq' conjunctive query or a '#nre' nested regular expression."""

    header: str  # "c2rpq" or "nre"
    body: str

    def text(self) -> str:
        return f"#{self.header}\n{self.body}"

    def reference(self, gpc, graph) -> set[tuple[str, ...]]:
        """Head tuples of node ids, from the oracle's pair relations."""
        plus, oracle = gpc.gpcplus, gpc.oracle
        if self.header == "nre":
            return oracle.recursive_nre(graph, plus.parse_nre(self.body))
        query = plus.parse_c2rpq(self.body)
        rows: list[dict] = [{}]
        for x, regex, y in query.atoms:
            pairs = oracle.product_2rpq(graph, regex)
            rows = [
                {**row, x: s, y: t}
                for row in rows
                for s, t in pairs
                if row.get(x, s) == s and row.get(y, t) == t and (x != y or s == t)
            ]
        return {tuple(row[v] for v in query.head) for row in rows}


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    name: str
    query: object  # Walk, Join or Rules
    graph: str  # "G", "grid" or "exp"
    size: int
    count: int
    mode: str = "grouping"


@dataclass(frozen=True)
class Case:
    family: Family
    index: int
    graph_key: tuple  # (generator, size, graph seed)

    @property
    def name(self) -> str:
        return f"{self.family.name}#{self.index}"

    @property
    def query(self):
        return self.family.query

    @property
    def inputs(self) -> str:
        """Identifies the program's inputs for this case."""
        return json.dumps([self.query.text(), self.family.mode, self.graph_key])


def _walk(restrictor: str, src: str, edge: str, tgt: str, **kw) -> Walk:
    """Spelled like the query: `_walk("SHORTEST", "x:A", "e:a", "y")`."""
    (sv, _, sl), (ev, _, el), (tv, _, tl) = (t.partition(":") for t in (src, edge, tgt))
    return Walk(
        restrictor, Node(sv or None, sl or None), Node(tv or None, tl or None),
        edge_var=ev or None, edge_label=el or None, **kw,
    )


def _hop(src: str, edge: str, tgt: str) -> Walk:
    return _walk("SHORTEST", src, edge, tgt, repeat=False)


def _join(*hops: tuple[str, str, str]) -> Join:
    return Join(tuple(_hop(*hop) for hop in hops))


WORKLOADS: dict[str, list[Family]] = {
    # Path queries on small graphs, where engine evaluation does most of
    # the work. SHORTEST over open repetitions: the engine re-evaluates
    # every stratum from scratch, so the number of strata drives the cost.
    # TRAIL and SIMPLE enumerate every walk and filter; variable-free
    # patterns go through the per-path fast path. Tiny graphs and answers.
    # The label-free grid cases cost the same for every seed. Random
    # graphs stay small: about one G(n) in a thousand has stacked
    # self-loops whose walks take seconds and tens of MB already at
    # n = 8 to 12, and it would decide a run's peak RSS and throughput.
    "paths": [
        Family("grid-all", _walk("SHORTEST", "x", "e", "y"), "grid", 4, 24),
        Family("grid-path-AB", _walk("SHORTEST", "x:A", "e", "y:B", path_var="p"), "grid", 4, 48),
        Family("grid-a", _walk("SHORTEST", "x", "e:a", "y"), "grid", 6, 24),
        Family("G-aAB", _walk("SHORTEST", "x:A", "e:a", "y:B"), "G", 10, 160),
        Family("G-path-aAB", _walk("SHORTEST", "x:A", "e:a", "y:B", path_var="p"), "G", 10, 120),
        Family("G-all", _walk("SHORTEST", "x", "e", "y"), "G", 7, 120),
        Family("G-a", _walk("SHORTEST", "x", "e:a", "y"), "G", 8, 96),
        Family("c2rpq-a+b", Rules("c2rpq", "Ans(x, z) <- (x, a+, y), (y, b, z)"), "G", 10, 100),
        Family("nre-a+", Rules("nre", "a+"), "G", 10, 80),
        Family("nre-(a[b]a)+", Rules("nre", "(a [b] a)+"), "G", 20, 40),
        Family("grid-trail", _walk("TRAIL", "x", "e", "y"), "grid", 4, 40),
        Family("grid-simple", _walk("SIMPLE", "x", "e", "y"), "grid", 4, 40),
        Family("grid-simple-dyn", _walk("SIMPLE", "x", "e", "y"), "grid", 4, 30, "dynamic"),
        Family("exp-trail", _walk("TRAIL", "x", "e", "y"), "exp", 1, 2),
        Family("exp-trail-dyn", _walk("TRAIL", "x", "e", "y"), "exp", 1, 2, "dynamic"),
        Family("exp-simple", _walk("SIMPLE", "x", "e", "y"), "exp", 3, 2),
        Family("G-trail-AB", _walk("TRAIL", "x:A", "e", "y:B"), "G", 6, 80),
        Family("G-trail-AB-dyn", _walk("TRAIL", "x:A", "e", "y:B"), "G", 6, 40, "dynamic"),
        Family("G-simple-AB", _walk("SIMPLE", "x:A", "e", "y:B"), "G", 7, 80),
        Family("G-simple-AB-dyn", _walk("SIMPLE", "x:A", "e", "y:B"), "G", 7, 40, "dynamic"),
        Family("G-varfree-trail", _walk("TRAIL", ":A", ":a", ":B", hi=3), "G", 6, 60),
        Family("G-varfree-trail8", _walk("TRAIL", ":A", ":a", ":B", hi=3), "G", 8, 20),
        Family("G-varfree-shortest", _walk("SHORTEST", ":A", ":a", ":B"), "G", 5, 60),
        Family("G-varfree-shortest6", _walk("SHORTEST", ":A", ":a", ":B"), "G", 6, 40),
    ],
    # Wide, shallow answers: nested-loop joins of single hops, sort and
    # serialize of thousands of answers, and per-query graph loads.
    "joins": [
        Family("join2-AaBb", _join(("x:A", "e:a", "y"), ("y", "f:b", "z:B")), "G", 400, 40),
        Family("join2", _join(("x", "e", "y"), ("y", "f", "z")), "G", 100, 16),
        Family("join2-200", _join(("x", "e", "y"), ("y", "f", "z")), "G", 200, 2),
        Family("join3", _join(("x", "e", "y"), ("y", "f", "z"), ("z", "g", "w")), "G", 100, 3),
        Family("paths3", _walk("SHORTEST", "x", "e", "y", hi=3, path_var="p"), "G", 200, 4),
        Family("paths3-400", _walk("SHORTEST", "x", "e", "y", hi=3, path_var="p"), "G", 400, 1),
        Family("c2rpq-ab", Rules("c2rpq", "Ans(x, z) <- (x, a, y), (y, b, z)"), "G", 200, 32),
        Family("c2rpq-aab", Rules("c2rpq", "Ans(x, w) <- (x, a, y), (y, a, z), (z, b, w)"), "G", 200, 2),
    ],
}


def build(workload: str, seed: int) -> list[Case]:
    """The workload's cases; graph seeds are drawn from the run seed."""
    cases = []
    for family in WORKLOADS[workload]:
        rng = random.Random(f"{workload}:{seed}:{family.name}")
        for i in range(family.count):
            graph_seed = 0 if family.graph == "exp" else rng.getrandbits(32)
            cases.append(Case(family, i, (family.graph, family.size, graph_seed)))
    return cases


def graph_doc(key: tuple) -> dict:
    kind, size, seed = key
    if kind == "G":
        return g_random(size, seed)
    if kind == "grid":
        return g_grid(size, seed)
    return g_exp(size)

