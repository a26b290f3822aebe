"""Property-graph data model: graphs, paths, validation, concatenation.

A property graph has three disjoint id spaces (nodes, directed edges,
undirected edges), label sets on every element, and a partial map from
(element, key) to a constant. A path is an alternating node/edge sequence
starting and ending with a node; an edge may be traversed forward,
backward, or as an undirected step.

Graphs are immutable after validation and safe to share between
concurrent evaluations. Paths are immutable values compared structurally
by their id sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

Constant = Union[str, int, bool]


def const_eq(a: Constant, b: Constant) -> bool:
    """Strict same-kind equality; cross-kind comparison is always false.

    ``bool`` is checked before ``int`` so that ``True != 1``.
    """
    return type(a) is type(b) and a == b


class GraphValidationError(ValueError):
    """Raised when a raw graph description violates the data-model invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True, slots=True)
class Path:
    """Alternating node/edge/node/.../node sequence (possibly one node).

    The hash is computed once, since answer sets hash each path many times.
    """

    elements: tuple[str, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.elements) % 2 == 0 or not self.elements:
            raise ValueError("path must alternate node,edge,...,node (odd length >= 1)")
        object.__setattr__(self, "_hash", hash(self.elements))

    def __hash__(self) -> int:
        return self._hash

    @property
    def src(self) -> str:
        return self.elements[0]

    @property
    def tgt(self) -> str:
        return self.elements[-1]

    @property
    def length(self) -> int:
        """Number of edge occurrences."""
        return len(self.elements) // 2

    def nodes(self) -> tuple[str, ...]:
        return self.elements[0::2]

    def edges(self) -> tuple[str, ...]:
        return self.elements[1::2]

    def subpath(self, i: int, j: int) -> "Path":
        """Subpath from node position i to node position j (0-based, i <= j)."""
        if not 0 <= i <= j <= self.length:
            raise IndexError(f"subpath positions ({i}, {j}) out of range")
        return Path(self.elements[2 * i : 2 * j + 1])

    def concat(self, other: "Path") -> Optional["Path"]:
        """Concatenation, defined iff tgt(self) = src(other); else None."""
        if self.tgt != other.src:
            return None
        return Path(self.elements + other.elements[1:])

    def __repr__(self) -> str:
        return "path(%s)" % ",".join(self.elements)


def path(*elements: str) -> Path:
    return Path(tuple(elements))


@dataclass(frozen=True, eq=False)
class PropertyGraph:
    """The validated graph tuple; treat all fields as read-only."""

    nodes: frozenset[str]
    directed_edges: Mapping[str, tuple[str, str]]  # id -> (src, tgt)
    undirected_edges: Mapping[str, frozenset[str]]  # id -> endpoints, |.| in {1, 2}
    labels: Mapping[str, frozenset[str]]
    properties: Mapping[tuple[str, str], Constant]

    def label_set(self, element_id: str) -> frozenset[str]:
        return self.labels.get(element_id, frozenset())

    def prop(self, element_id: str, key: str) -> Optional[Constant]:
        return self.properties.get((element_id, key))

    @property
    def edge_count(self) -> int:
        return len(self.directed_edges) + len(self.undirected_edges)

    def steps_from(self, node: str) -> Iterator[tuple[str, str]]:
        """All single-step traversals (edge_id, next_node) leaving `node`.

        A directed self-loop satisfies both the forward and the backward
        traversal clause but is still one step, so it is yielded once.
        """
        for e, (s, t) in self.directed_edges.items():
            if s == node:
                yield e, t
            if t == node and s != t:
                yield e, s
        for e, ends in self.undirected_edges.items():
            if node in ends:
                others = ends - {node}
                yield e, next(iter(others)) if others else node


# Each element list of a graph document: its key, the kind of element its
# messages name, and the keys an element may have.
_SECTIONS = (
    ("nodes", "node", frozenset({"id", "labels", "properties"})),
    ("directed_edges", "directed edge",
     frozenset({"id", "src", "tgt", "labels", "properties"})),
    ("undirected_edges", "undirected edge",
     frozenset({"id", "endpoints", "labels", "properties"})),
)
_DOCUMENT_KEYS = frozenset(section for section, _, _ in _SECTIONS)


def validate_graph(data: dict) -> PropertyGraph:
    """Build a PropertyGraph from a raw JSON-style description.

    Raises GraphValidationError carrying every violation found: a
    document or element list of the wrong shape, a key that the document
    or an element may not have, duplicate ids across the three id spaces,
    dangling src/tgt/endpoint references, undirected edges whose endpoint
    set is not of size 1 or 2, and malformed labels or properties.
    """
    if not isinstance(data, dict):
        raise GraphValidationError(["a graph must be a JSON object"])
    violations: list[str] = []
    if not _DOCUMENT_KEYS.issuperset(data):
        violations += [
            f"unknown graph key {key!r}" for key in data if key not in _DOCUMENT_KEYS
        ]
    nodes: set[str] = set()
    directed: dict[str, tuple[str, str]] = {}
    undirected: dict[str, frozenset[str]] = {}
    labels: dict[str, frozenset[str]] = {}
    properties: dict[tuple[str, str], Constant] = {}
    seen_ids: set[str] = set()

    for section, kind, allowed in _SECTIONS:
        entries = data.get(section, [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            violations.append(f"{section} must be a list of objects")
            continue
        for entry in entries:
            eid = entry.get("id")
            if not isinstance(eid, str) or not eid:
                violations.append(f"{kind} id must be a non-empty string: {eid!r}")
                continue
            if eid in seen_ids:
                violations.append(f"duplicate id {eid!r}")
                continue
            seen_ids.add(eid)
            if not allowed.issuperset(entry):
                violations += [
                    f"{eid}: unknown key {key!r}" for key in entry if key not in allowed
                ]

            if kind == "node":
                nodes.add(eid)
            elif kind == "directed edge":
                src, tgt = entry.get("src"), entry.get("tgt")
                ok = True
                for name, ref in (("src", src), ("tgt", tgt)):
                    if not isinstance(ref, str) or ref not in nodes:
                        violations.append(f"dangling endpoint: {eid!r}.{name} = {ref!r}")
                        ok = False
                if ok:
                    directed[eid] = (src, tgt)
            else:
                raw_ends = entry.get("endpoints", [])
                ends = frozenset()
                if isinstance(raw_ends, list) and all(isinstance(n, str) for n in raw_ends):
                    ends = frozenset(raw_ends)
                if len(ends) not in (1, 2):
                    violations.append(f"undirected edge {eid!r} needs 1 or 2 endpoints")
                else:
                    # In list order, so the message is the same in every process.
                    dangling = [n for n in raw_ends if n not in nodes]
                    if dangling:
                        violations.append(
                            f"dangling endpoint: {eid!r}.endpoints includes {dangling[0]!r}"
                        )
                    else:
                        undirected[eid] = ends

            tags = entry.get("labels")
            if tags is not None and not (
                isinstance(tags, list) and all(isinstance(x, str) and x for x in tags)
            ):
                violations.append(f"{eid}: labels must be a list of non-empty strings")
                tags = None
            labels[eid] = frozenset(tags or ())
            props = entry.get("properties")
            if props is None:
                continue
            if not isinstance(props, dict):
                violations.append(f"{eid}: properties must be an object")
                continue
            for key, value in props.items():
                if not isinstance(key, str) or not key:
                    violations.append(f"{eid}: property keys must be non-empty strings")
                elif isinstance(value, (str, int)):  # bool is an int
                    properties[(eid, key)] = value
                else:
                    violations.append(
                        f"{eid}: property {key!r} must be a string, integer, or boolean"
                    )

    if violations:
        raise GraphValidationError(violations)
    return PropertyGraph(
        nodes=frozenset(nodes),
        directed_edges=directed,
        undirected_edges=undirected,
        labels=labels,
        properties=properties,
    )


def load_graph(file_path: str) -> PropertyGraph:
    with open(file_path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise GraphValidationError([f"{file_path}: not a JSON document: {exc}"])
    return validate_graph(data)


def path_is_valid(graph: PropertyGraph, p: Path) -> bool:
    """True iff every step traverses an edge forward, backward, or undirected."""
    elems = p.elements
    if elems[0] not in graph.nodes:
        return False
    for i in range(1, len(elems), 2):
        before, edge, after = elems[i - 1], elems[i], elems[i + 1]
        if after not in graph.nodes:
            return False
        if edge in graph.directed_edges:
            src, tgt = graph.directed_edges[edge]
            if (src, tgt) == (before, after) or (src, tgt) == (after, before):
                continue
            return False
        if edge in graph.undirected_edges:
            if graph.undirected_edges[edge] == frozenset((before, after)):
                continue
        return False
    return True

