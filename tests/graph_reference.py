"""The graph validator as it stood before its one-loop rewrite, kept as
the reference that `test_graph.py` compares `gpc.validate_graph` against.

It is the earlier code unchanged but for one line: a doubly dangling
undirected edge names its first dangling endpoint in list order, not in
the iteration order of a frozenset, which depends on the hash seed. It
knows nothing of unknown keys, which it ignores. Pytest does not collect
this file.
"""

from __future__ import annotations

from typing import Optional

from gpc.graph import Constant, GraphValidationError, PropertyGraph


def _check_property_map(
    raw: object, owner: str, violations: list[str]
) -> dict[str, Constant]:
    out: dict[str, Constant] = {}
    if raw is None:
        return out
    if not isinstance(raw, dict):
        violations.append(f"{owner}: properties must be an object")
        return out
    for key, value in raw.items():
        if not isinstance(key, str) or not key:
            violations.append(f"{owner}: property keys must be non-empty strings")
        elif isinstance(value, bool) or isinstance(value, (str, int)):
            out[key] = value
        else:
            violations.append(
                f"{owner}: property {key!r} must be a string, integer, or boolean"
            )
    return out


def _check_labels(raw: object, owner: str, violations: list[str]) -> frozenset[str]:
    if raw is None:
        return frozenset()
    if not isinstance(raw, list) or not all(isinstance(x, str) and x for x in raw):
        violations.append(f"{owner}: labels must be a list of non-empty strings")
        return frozenset()
    return frozenset(raw)


def validate_graph(data: dict) -> PropertyGraph:
    """Build a PropertyGraph from a raw JSON-style description.

    Raises GraphValidationError carrying every violation found: a
    document or element list of the wrong shape, duplicate ids across the
    three id spaces, dangling src/tgt/endpoint references, and undirected
    edges whose endpoint set is not of size 1 or 2.
    """
    if not isinstance(data, dict):
        raise GraphValidationError(["a graph must be a JSON object"])
    violations: list[str] = []
    nodes: set[str] = set()
    directed: dict[str, tuple[str, str]] = {}
    undirected: dict[str, frozenset[str]] = {}
    labels: dict[str, frozenset[str]] = {}
    properties: dict[tuple[str, str], Constant] = {}
    seen_ids: set[str] = set()

    def fresh_id(raw: object, kind: str) -> Optional[str]:
        if not isinstance(raw, str) or not raw:
            violations.append(f"{kind} id must be a non-empty string: {raw!r}")
            return None
        if raw in seen_ids:
            violations.append(f"duplicate id {raw!r}")
            return None
        seen_ids.add(raw)
        return raw

    def element_common(entry: dict, eid: str) -> None:
        labels[eid] = _check_labels(entry.get("labels"), eid, violations)
        for key, value in _check_property_map(
            entry.get("properties"), eid, violations
        ).items():
            properties[(eid, key)] = value

    def entries(section: str) -> list[dict]:
        raw = data.get(section, [])
        if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
            violations.append(f"{section} must be a list of objects")
            return []
        return raw

    for entry in entries("nodes"):
        eid = fresh_id(entry.get("id"), "node")
        if eid is None:
            continue
        nodes.add(eid)
        element_common(entry, eid)

    for entry in entries("directed_edges"):
        eid = fresh_id(entry.get("id"), "directed edge")
        if eid is None:
            continue
        src, tgt = entry.get("src"), entry.get("tgt")
        ok = True
        for name, ref in (("src", src), ("tgt", tgt)):
            if not isinstance(ref, str) or ref not in nodes:
                violations.append(f"dangling endpoint: {eid!r}.{name} = {ref!r}")
                ok = False
        if ok:
            directed[eid] = (src, tgt)
        element_common(entry, eid)

    for entry in entries("undirected_edges"):
        eid = fresh_id(entry.get("id"), "undirected edge")
        if eid is None:
            continue
        raw_ends = entry.get("endpoints", [])
        ends = frozenset()
        if isinstance(raw_ends, list) and all(isinstance(n, str) for n in raw_ends):
            ends = frozenset(raw_ends)
        if len(ends) not in (1, 2):
            violations.append(f"undirected edge {eid!r} needs 1 or 2 endpoints")
        else:
            dangling = [n for n in raw_ends if n not in nodes]
            if dangling:
                violations.append(
                    f"dangling endpoint: {eid!r}.endpoints includes {dangling[0]!r}"
                )
            else:
                undirected[eid] = ends
        element_common(entry, eid)

    if violations:
        raise GraphValidationError(violations)
    return PropertyGraph(
        nodes=frozenset(nodes),
        directed_edges=directed,
        undirected_edges=undirected,
        labels=labels,
        properties=properties,
    )
