"""Run-time values, variable assignments, and answers.

Values are references to graph elements (never property constants):
nodes, edges, whole paths, the absent marker Nothing, and group values
pairing each repetition segment's path with the value bound there.
Everything is immutable and hashable so answer sets deduplicate
structurally. Values are slotted dataclasses; paths, group values and
assignments compute their hash once, when they are built, because an
answer set hashes the same value many times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from .graph import Path
from .typecheck import EdgeT, Group, Maybe, NodeT, PathT, TypeExpr


class NothingVal:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Nothing"


NOTHING = NothingVal()


@dataclass(frozen=True, slots=True)
class NodeVal:
    id: str


@dataclass(frozen=True, slots=True)
class EdgeVal:
    id: str


@dataclass(frozen=True, slots=True)
class PathVal:
    path: Path


@dataclass(frozen=True, slots=True)
class GroupVal:
    items: tuple[tuple[Path, "Value"], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.items))

    def __hash__(self) -> int:
        return self._hash


Value = Union[NodeVal, EdgeVal, PathVal, NothingVal, GroupVal]


def conforms(value: Value, t: TypeExpr) -> bool:
    if isinstance(t, NodeT):
        return isinstance(value, NodeVal)
    if isinstance(t, EdgeT):
        return isinstance(value, EdgeVal)
    if isinstance(t, PathT):
        return isinstance(value, PathVal)
    if isinstance(t, Maybe):
        return value is NOTHING or conforms(value, t.inner)
    if isinstance(t, Group):
        return isinstance(value, GroupVal) and all(
            conforms(v, t.inner) for _, v in value.items
        )
    raise TypeError(f"not a type: {t!r}")


class Assignment(Mapping[str, Value]):
    """Immutable finite map from variable names to values."""

    __slots__ = ("_map", "_items", "_hash")

    def __init__(self, mapping: Mapping[str, Value] = ()):
        self._map = dict(mapping)
        # Keys are unique, so sorting the pairs never compares two values.
        self._items = tuple(sorted(self._map.items()))
        self._hash = hash(self._items)

    def __getitem__(self, key: str) -> Value:
        return self._map[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "{%s}" % ", ".join(f"{k}={v!r}" for k, v in self._items)

    def items_sorted(self) -> tuple[tuple[str, Value], ...]:
        return self._items

    def with_binding(self, var: str, value: Value) -> "Assignment":
        updated = dict(self._map)
        updated[var] = value
        return Assignment(updated)

    def conforms_to(self, schema: Mapping[str, TypeExpr]) -> bool:
        return set(self._map) == set(schema) and all(
            conforms(self._map[var], schema[var]) for var in self._map
        )


EMPTY = Assignment()


@dataclass(frozen=True, slots=True)
class Answer:
    """One query answer: a tuple of witness paths plus variable bindings."""

    paths: tuple[Path, ...]
    bindings: Assignment


def serialize_path(p: Path) -> dict:
    return {"elements": list(p.elements)}


def serialize_value(value: Value) -> dict:
    if isinstance(value, NodeVal):
        return {"kind": "node", "id": value.id}
    if isinstance(value, EdgeVal):
        return {"kind": "edge", "id": value.id}
    if isinstance(value, PathVal):
        return {"kind": "path", "elements": list(value.path.elements)}
    if value is NOTHING:
        return {"kind": "nothing"}
    if isinstance(value, GroupVal):
        return {
            "kind": "group",
            "items": [[serialize_path(p), serialize_value(v)] for p, v in value.items],
        }
    raise TypeError(f"not a value: {value!r}")


def serialize_answer(answer: Answer) -> dict:
    return {
        "paths": [serialize_path(p) for p in answer.paths],
        "bindings": {
            var: serialize_value(val) for var, val in answer.bindings.items_sorted()
        },
    }


def answer_sort_key(answer: Answer) -> tuple[str, str]:
    """Canonical order: lexicographic on serialized paths, then bindings."""
    data = serialize_answer(answer)
    return (
        json.dumps(data["paths"], sort_keys=True),
        json.dumps(data["bindings"], sort_keys=True),
    )


def answer_records(answers: Iterable[Answer]) -> list[str]:
    """NDJSON lines of `answers`, in `answer_sort_key` order.

    Each line equals ``json.dumps(serialize_answer(a), sort_keys=True)``:
    "bindings" sorts before "paths", and the sort key holds both parts
    already encoded, so each answer is serialized once.
    """
    return [
        '{"bindings": %s, "paths": %s}' % (bindings, paths)
        for paths, bindings in sorted(map(answer_sort_key, answers))
    ]
