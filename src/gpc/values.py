"""Run-time values, variable assignments, and answers.

Values are references to graph elements (never property constants):
nodes, edges, whole paths, the absent marker Nothing, and group values
pairing each repetition segment's path with the value bound there.
Everything is immutable and hashable so answer sets deduplicate
structurally. Values are slotted dataclasses; paths, group values and
assignments compute their hash once, when they are built, because an
answer set hashes the same value many times.

The engine's evaluator holds raw values instead: ids, element tuples,
`NOTHING` and tuples of (element tuple, raw value) group items; the
schema fixes the type of each position. `wrapper` turns raw rows into
value objects, compiling each type once and sharing one `Path` per
element tuple in a call.

Every NDJSON record format that gpc prints is defined here, over raw
rows: the answer lines of `gpc run` (`answer_records`), its rule-set
tuple lines (`tuple_encoder`) and the lines of `gpc match`
(`match_records`). One encoder (`_encoder`) is compiled per schema type
(node, edge, path, Maybe, Group) and writes each line directly as JSON
text, encoding each id, node, edge, path and group item once per call;
it builds no value object. The `serialize_*` functions and
`answer_sort_key`, over the value objects that `wrapper` makes of the
same rows, are its reference: every line equals
``json.dumps(..., sort_keys=True)`` of their dicts, in the same order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Mapping, Sequence, Union

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


class _Made(dict):
    """`make(key)` for each key, made once: the cache of one call."""

    __slots__ = ("make",)

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _wrap(t: TypeExpr, path: Callable, node: Callable, edge: Callable) -> Callable:
    """The function from a raw value of type `t` to its value object."""
    if isinstance(t, NodeT):
        return node
    if isinstance(t, EdgeT):
        return edge
    if isinstance(t, PathT):
        return lambda raw: PathVal(path(raw))
    if isinstance(t, Maybe):
        inner = _wrap(t.inner, path, node, edge)
        return lambda raw: NOTHING if raw is NOTHING else inner(raw)
    if isinstance(t, Group):
        inner = _wrap(t.inner, path, node, edge)
        return lambda raw: GroupVal(tuple([(path(p), inner(v)) for p, v in raw]))
    raise TypeError(f"not a type: {t!r}")


def wrapper():
    """The wrapping functions of one call, from raw values to value objects:
    `path` and `row`.

    A raw value is what the engine's evaluator holds: a node's or edge's
    id, a path's element tuple, `NOTHING`, or a group's tuple of (element
    tuple, raw value) pairs. `path(elements)` is the call's one `Path` for
    that tuple, and the call shares one `NodeVal` or `EdgeVal` per id the
    same way. `row(types)` compiles the types of a row's positions once
    into a function from a raw tuple to its tuple of values; a group is
    wrapped by its `Group` type's inner type, recursively.
    """
    path, node, edge = (_Made(cls).__getitem__ for cls in (Path, NodeVal, EdgeVal))

    def row(types: Sequence[TypeExpr]) -> Callable[[tuple], tuple[Value, ...]]:
        parts = [_wrap(t, path, node, edge) for t in types]
        return lambda raw: tuple([f(v) for f, v in zip(parts, raw, strict=True)])

    return path, row


def wrap_answers(names: Sequence[str], schema: Mapping[str, TypeExpr], rows) -> set[Answer]:
    """The answers of raw query rows (paths, binding), with each binding
    laid out over `names`, as `engine.query_rows` returns them."""
    path, row = wrapper()
    values = row([schema[var] for var in names])
    return {
        Answer(tuple(map(path, paths)), Assignment(zip(names, values(mu))))
        for paths, mu in rows
    }


def _encode(t: TypeExpr, path: Callable, node: Callable, edge: Callable) -> Callable:
    """The function from a raw value of type `t` to its JSON text."""
    if isinstance(t, NodeT):
        return node
    if isinstance(t, EdgeT):
        return edge
    if isinstance(t, PathT):
        return lambda raw: path(raw)[:-1] + ', "kind": "path"}'
    if isinstance(t, Maybe):
        inner = _encode(t.inner, path, node, edge)
        return lambda raw: '{"kind": "nothing"}' if raw is NOTHING else inner(raw)
    if isinstance(t, Group):
        inner = _encode(t.inner, path, node, edge)

        def item_text(item) -> str:
            if type(item) is not tuple or len(item) != 2:
                raise TypeError(f"not a group item: {item!r}")
            p, v = item
            return f"[{path(p)}, {inner(v)}]"

        item = _Made(item_text).__getitem__
        return lambda raw: '{"items": [%s], "kind": "group"}' % ", ".join(map(item, raw))
    raise TypeError(f"not a type: {t!r}")


def _encoder():
    """The encoding functions of one call over raw values: `path`, `fill`
    and `bindings`.

    `path(elements)` is the text that ``json.dumps(..., sort_keys=True)``
    prints for `serialize_path` of that path. `fill(template, types)`
    compiles the types of a row's positions once into a function from a
    raw tuple to `template` with the text of `serialize_value` of each
    value in its ``%s``, and `bindings(names, types)` into one from a raw
    binding over the sorted `names` to the text of its serialized binding
    map, through one such template. No dict is built, and no value is
    dispatched on by its class. The functions cache for the call each
    id's quoted text, each node's and edge's literal, each path's
    ``{"elements": [...]}`` text and each group item's text, since answers
    and group items repeat ids, subpaths and segments; a path passes
    `Path`'s shape check when it is first cached. A raw value that does
    not fit its type raises TypeError, and a row of the wrong width
    ValueError.
    """
    quote = _Made(encode_basestring_ascii).__getitem__

    def path_text(elements: tuple[str, ...]) -> str:
        if type(elements) is not tuple:
            raise TypeError(f"not a path: {elements!r}")
        if not len(elements) & 1:  # `Path`'s shape check
            raise ValueError("path must alternate node,edge,...,node (odd length >= 1)")
        return '{"elements": [%s]}' % ", ".join(map(quote, elements))

    path = _Made(path_text).__getitem__
    node = _Made(lambda raw: '{"id": %s, "kind": "node"}' % quote(raw)).__getitem__
    edge = _Made(lambda raw: '{"id": %s, "kind": "edge"}' % quote(raw)).__getitem__

    def fill(template: str, types: Sequence[TypeExpr]) -> Callable[[tuple], str]:
        parts = [_encode(t, path, node, edge) for t in types]
        width = len(parts)

        def text(raw: tuple) -> str:
            if len(raw) != width:
                raise ValueError(f"expected {width} values, not {len(raw)}")
            return template % tuple([f(v) for f, v in zip(parts, raw)])

        return text

    def bindings(names: Sequence[str], types: Sequence[TypeExpr]) -> Callable[[tuple], str]:
        keys = [quote(var).replace("%", "%%") + ": %s" for var in names]
        return fill("{%s}" % ", ".join(keys), types)

    return path, fill, bindings


def answer_records(names: Sequence[str], schema: Mapping[str, TypeExpr], rows) -> list[str]:
    """The NDJSON lines of `gpc run`'s answers, from the raw rows (paths,
    binding) of `engine.query_rows`, in `answer_sort_key` order.

    Each line equals ``json.dumps(serialize_answer(a), sort_keys=True)``
    for the answer `a` that `wrap_answers` makes of its row. The sort is on
    the (paths, bindings) text pairs that `answer_sort_key` returns, and
    "bindings" comes before "paths" in the line.
    """
    path, _, bindings = _encoder()
    text = bindings(names, [schema[var] for var in names])
    keys = sorted([("[%s]" % ", ".join(map(path, paths)), text(mu)) for paths, mu in rows])
    return [f'{{"bindings": {b}, "paths": {p}}}' for p, b in keys]


def tuple_encoder() -> Callable[[Sequence[TypeExpr]], Callable[[tuple], str]]:
    """A function that compiles the types of a rule's head into one from a
    raw head tuple to its NDJSON line. The line equals
    ``json.dumps({"tuple": [serialize_value(v) for v in row]}, sort_keys=True)``
    for the row of values that `wrapper` makes of it. All rules of one call
    share the encoder's caches.
    """
    _, fill, _ = _encoder()
    return lambda types: fill('{"tuple": [%s]}' % ", ".join(["%s"] * len(types)), types)


def match_records(names: Sequence[str], schema: Mapping[str, TypeExpr], rows) -> list[str]:
    """The NDJSON lines of `gpc match`, from the raw rows (path elements,
    binding) of `engine.pattern_rows`, sorted.

    Each line equals ``json.dumps({"path": serialize_path(p), "bindings":
    {var: serialize_value(v) for var, v in mu.items_sorted()}},
    sort_keys=True)`` for the (path, assignment) `(p, mu)` of its row.
    """
    path, _, bindings = _encoder()
    text = bindings(names, [schema[var] for var in names])
    return sorted([f'{{"bindings": {text(mu)}, "path": {path(p)}}}' for p, mu in rows])
