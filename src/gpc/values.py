"""Run-time values, variable assignments, and answers.

Values are references to graph elements (never property constants):
nodes, edges, whole paths, the absent marker Nothing, and group values
pairing each repetition segment's path with the value bound there.
Everything is immutable and hashable so answer sets deduplicate
structurally. Values are slotted dataclasses; paths, group values and
assignments compute their hash once, when they are built, because an
answer set hashes the same value many times.

Every NDJSON record format that gpc prints is defined here: the answer
lines of `gpc run` (`answer_records`), its rule-set tuple lines
(`tuple_records`) and the lines of `gpc match` (`match_records`). One
encoder (`_encoder`) writes each line directly as JSON text, encoding
each id and each path once per call. The `serialize_*` functions and
`answer_sort_key` are its reference: every line equals
``json.dumps(..., sort_keys=True)`` of their dicts, in the same order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
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

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: Mapping[str, Value] = ()):
        self._map = dict(mapping)
        self._hash = hash(frozenset(self._map.items()))

    def __getitem__(self, key: str) -> Value:
        return self._map[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "{%s}" % ", ".join(f"{k}={v!r}" for k, v in self.items_sorted())

    def items_sorted(self) -> tuple[tuple[str, Value], ...]:
        # Keys are unique, so sorting the pairs never compares two values.
        return tuple(sorted(self._map.items()))

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


class _Quoted(dict):
    """The JSON string literal of each id or variable name, made once."""

    __slots__ = ()

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring_ascii(text)
        return quoted


def _encoder():
    """The encoding functions of one call: `path`, `value` and `bindings`.

    Each returns the JSON text that ``json.dumps(..., sort_keys=True)``
    prints for `serialize_path`, `serialize_value`, or a serialized
    binding map, without building their dicts. The functions cache each
    id's literal and each path's ``{"elements": [...]}`` text for the
    call, since answers and group items repeat ids and subpaths. The
    cache is keyed by the element tuple, whose hash is computed in C.
    """
    quote = _Quoted().__getitem__
    objects: dict[tuple[str, ...], str] = {}

    def path(p: Path) -> str:
        text = objects.get(p.elements)
        if text is None:
            text = objects[p.elements] = '{"elements": [%s]}' % ", ".join(
                map(quote, p.elements)
            )
        return text

    def value(val: Value) -> str:
        kind = type(val)
        if kind is NodeVal:
            return f'{{"id": {quote(val.id)}, "kind": "node"}}'
        if kind is EdgeVal:
            return f'{{"id": {quote(val.id)}, "kind": "edge"}}'
        if kind is PathVal:
            return path(val.path)[:-1] + ', "kind": "path"}'
        if val is NOTHING:
            return '{"kind": "nothing"}'
        if kind is GroupVal:
            items = ", ".join([f"[{path(p)}, {value(v)}]" for p, v in val.items])
            return f'{{"items": [{items}], "kind": "group"}}'
        raise TypeError(f"not a value: {val!r}")

    def bindings(mu: Assignment) -> str:
        return "{%s}" % ", ".join(
            [f"{quote(var)}: {value(val)}" for var, val in mu.items_sorted()]
        )

    return path, value, bindings


def answer_records(answers: Iterable[Answer]) -> list[str]:
    """The NDJSON lines of `gpc run`'s answers, in `answer_sort_key` order.

    Each line equals ``json.dumps(serialize_answer(a), sort_keys=True)``.
    The sort is on the (paths, bindings) text pairs that `answer_sort_key`
    returns, and "bindings" comes before "paths" in the line.
    """
    path, _, bindings = _encoder()
    keys = sorted(
        [("[%s]" % ", ".join(map(path, a.paths)), bindings(a.bindings)) for a in answers]
    )
    return [f'{{"bindings": {b}, "paths": {p}}}' for p, b in keys]


def tuple_records(rows: Iterable[tuple[Value, ...]]) -> list[str]:
    """The NDJSON lines of a rule set's tuples, sorted.

    Each line equals
    ``json.dumps({"tuple": [serialize_value(v) for v in row]}, sort_keys=True)``.
    """
    _, value, _ = _encoder()
    return sorted(['{"tuple": [%s]}' % ", ".join(map(value, row)) for row in rows])


def match_records(results: Iterable[tuple[Path, Assignment]]) -> list[str]:
    """The NDJSON lines of `gpc match`'s (path, assignment) results, sorted.

    Each line equals ``json.dumps({"path": serialize_path(p), "bindings":
    {var: serialize_value(v) for var, v in mu.items_sorted()}},
    sort_keys=True)``.
    """
    path, _, bindings = _encoder()
    return sorted([f'{{"bindings": {bindings(mu)}, "path": {path(p)}}}' for p, mu in results])
