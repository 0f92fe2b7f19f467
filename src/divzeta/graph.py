"""Dual graphs of stable marked curves: checked records and JSON parsing.

A dual graph has one vertex per irreducible component, with a curve model
for its normalization (which fixes the vertex's geometric genus), one edge
per node (loops allowed), one leg per marked point, and a puncture count per
vertex for quasiprojective components.

The record constructors own every structural rule, however a graph is
built: ``CurveModel`` checks its kind, genus, trace and numerator, ``Vertex``
its id and punctures, and ``DualGraph`` that its three fields are lists or
tuples, that vertex ids are distinct, that every edge is a pair and every
edge and leg endpoint names a vertex, that a model id names one curve, and
that the graph is connected.  ``parse_graph`` only decodes JSON (the
document, its list of vertex objects, the model objects and their keys) and
applies stability, an input rule that ``allow_unstable`` relaxes.

Input schema (JSON)::

    {"vertices": [{"id": "v1", "genus": 1, "model": {"type": "symbolic"},
                   "punctures": 0}],
     "edges": [["v1", "v1"]],
     "legs": ["v1"]}

Model objects: ``{"type": "symbolic"}``, ``{"type": "p1"}``,
``{"type": "elliptic", "trace": a}``, and
``{"type": "weil", "numerator": [1, ...]}``; each may carry an ``"id"`` to
share one generator namespace between vertices (default: the vertex id).
A vertex's ``genus`` is its model's genus.  Vertices that share a model id
must describe the same curve (kind, genus, trace, numerator).  ``model``
defaults to symbolic, ``punctures`` to 0, ``edges``/``legs`` to empty.  An
edge is a pair of vertex ids, stored as written, and no result reads its
direction.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Sequence

from .ring import _is_int, _is_model_id


class GraphError(ValueError):
    """Raised for schema violations, invalid references, or unstable input."""


class Record:
    """An immutable record over the fields named in ``_fields``.

    Two records are equal when they have the same type and equal fields, and
    hash and print field by field; setting or deleting an attribute raises
    ``AttributeError``, and copies and pickles rebuild through the
    constructor.  A subclass lists its fields (and any values it derives from
    them) in ``__slots__`` and sets them in ``__init__`` with ``_assign``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, **values: object) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (type(self), self._values())


# The model kinds, each with the keys its JSON object may carry.
_MODEL_KEYS = {
    "symbolic": {"type", "id"},
    "p1": {"type", "id"},
    "elliptic": {"type", "id", "trace"},
    "weil": {"type", "id", "numerator"},
}


def _where(vid: object) -> str:
    """The vertex an error names; built only when one is raised."""
    return f"vertex {reprlib.repr(vid)}"


def _check_keys(item: dict, allowed: set[str], what: str) -> None:
    """Refuse keys outside ``allowed``; keys of any type sort by their text."""
    unknown = set(item) - allowed
    if unknown:
        raise GraphError(f"unknown {what} keys: {reprlib.repr(sorted(unknown, key=str))}")


def _list_field(items: object, key: str) -> list | tuple:
    """``items``, the value of the graph field ``key``, if it is a list or tuple."""
    if not isinstance(items, (list, tuple)):
        raise GraphError(f"'{key}' must be a list")
    return items


def _pair(edge: object) -> tuple:
    """An edge as a tuple of its two endpoints, in the order written."""
    if not isinstance(edge, (list, tuple)) or len(edge) != 2:
        raise GraphError(f"edge must be a pair of vertex ids: {reprlib.repr(edge)}")
    return tuple(edge)


class CurveModel(Record):
    """The normalization of one component.

    ``symbolic``, ``elliptic``, and ``weil`` models contribute free
    symmetric-power generators ``c[name,d]`` to series coefficients;
    elliptic and weil additionally carry the data a point-count measure
    needs to realize those generators.  ``p1`` expands concretely in the
    Lefschetz class.  The constructor refuses an unknown kind, a genus that
    is not a nonnegative integer, a ``p1`` model of positive genus, an
    elliptic model whose genus is not 1 or whose trace is not an integer, a
    weil numerator that is not a list of integers with constant term 1 and
    degree at most 2g, a trace or numerator on any other kind, and a name
    outside the model-id grammar (``ring._is_model_id``).  An integer is
    ``ring._is_int``: no ``bool``.
    """

    __slots__ = _fields = ("kind", "name", "genus", "trace", "numerator")

    def __init__(
        self,
        kind: str,
        name: str,
        genus: int,
        trace: int | None = None,
        numerator: Sequence[int] | None = None,
    ):
        if not isinstance(kind, str) or kind not in _MODEL_KEYS:
            raise GraphError(f"unknown model type {reprlib.repr(kind)}")
        if not _is_int(genus) or genus < 0:
            raise GraphError("genus must be a nonnegative integer")
        if kind == "p1" and genus != 0:
            raise GraphError(f"a p1 model has genus 0, not {reprlib.repr(genus)}")
        if kind == "elliptic":
            if genus != 1:
                raise GraphError(f"an elliptic model has genus 1, not {reprlib.repr(genus)}")
            if not _is_int(trace):
                raise GraphError(f"elliptic trace must be an integer: {reprlib.repr(trace)}")
        elif trace is not None:
            raise GraphError(f"a {kind} model has no trace")
        if kind == "weil":
            ints = isinstance(numerator, (list, tuple)) and all(map(_is_int, numerator))
            if not ints or not numerator or numerator[0] != 1:
                raise GraphError(
                    "weil numerator must be a list of integers with constant term 1:"
                    f" {reprlib.repr(numerator)}"
                )
            if len(numerator) - 1 > 2 * genus:
                raise GraphError(
                    f"weil numerator degree {len(numerator) - 1} exceeds 2*genus = {2 * genus}"
                )
            numerator = tuple(numerator)
        elif numerator is not None:
            raise GraphError(f"a {kind} model has no numerator")
        if not _is_model_id(name):
            raise GraphError(f"invalid model id: {reprlib.repr(name)}")
        self._assign(kind=kind, name=name, genus=genus, trace=trace, numerator=numerator)


class Vertex(Record):
    """One component: its id, its curve model and its punctures.

    The constructor refuses an id outside the model-id grammar, a model
    that is not a ``CurveModel`` and a puncture count that is not a
    nonnegative integer.  ``genus`` is the model's.
    """

    __slots__ = _fields = ("id", "model", "punctures")

    def __init__(self, id: str, model: CurveModel, punctures: int = 0):
        if not _is_model_id(id):
            raise GraphError(f"invalid vertex id: {reprlib.repr(id)}")
        if not isinstance(model, CurveModel):
            raise GraphError(f"{_where(id)}: model must be a CurveModel: {reprlib.repr(model)}")
        if not _is_int(punctures) or punctures < 0:
            raise GraphError(f"{_where(id)}: punctures must be a nonnegative integer")
        self._assign(id=id, model=model, punctures=punctures)

    @property
    def genus(self) -> int:
        return self.model.genus


class DualGraph(Record):
    """Validated dual graph; immutable and freely shareable.

    The constructor refuses a field that is not a list or tuple (all three
    are checked first), an edge that is not a pair (each is stored as a
    tuple, as written), no vertices, a vertex that is not a ``Vertex``, a
    duplicate vertex id, an edge or leg endpoint that is not a vertex id, a
    model id that names two curves, and a graph that is not connected.
    ``models`` maps each model id to its curve, in order of first use; it
    and the per-vertex valences and leg counts are built with the graph.
    """

    _fields = ("vertices", "edges", "legs")
    __slots__ = _fields + ("models", "_valences", "_legs_at")

    def __init__(
        self, vertices: Sequence[Vertex], edges: Sequence[Sequence[str]], legs: Sequence[str]
    ):
        for key, items in zip(self._fields, (vertices, edges, legs)):
            _list_field(items, key)
        vertices, edges, legs = tuple(vertices), tuple(map(_pair, edges)), tuple(legs)
        if not vertices:
            raise GraphError("a dual graph needs a nonempty list of vertices")
        models: dict[str, CurveModel] = {}
        valences: dict[str, int] = {}
        for v in vertices:
            if not isinstance(v, Vertex):
                raise GraphError(f"vertex must be a Vertex: {reprlib.repr(v)}")
            if v.id in valences:
                raise GraphError(f"duplicate vertex id {reprlib.repr(v.id)}")
            valences[v.id] = 0
            model = models.setdefault(v.model.name, v.model)
            if model is not v.model and model != v.model:
                raise GraphError(
                    f"{_where(v.id)}: model id {reprlib.repr(v.model.name)}"
                    " already names a different curve"
                )
        legs_at = dict(valences)
        for kind, ends, counts in (
            ("edge", (end for edge in edges for end in edge), valences),
            ("leg", legs, legs_at),
        ):
            for end in ends:
                if not isinstance(end, str):
                    raise GraphError(
                        f"{kind} endpoint must be a vertex id string: {reprlib.repr(end)}"
                    )
                if end not in counts:
                    raise GraphError(f"{kind} references unknown vertex id {reprlib.repr(end)}")
                counts[end] += 1
        # Connectivity; legs attach to vertices, they connect nothing.
        adjacency: dict[str, set[str]] = {vid: set() for vid in valences}
        for u, w in edges:
            adjacency[u].add(w)
            adjacency[w].add(u)
        seen, queue = {vertices[0].id}, [vertices[0].id]
        while queue:
            for nxt in adjacency[queue.pop()] - seen:
                seen.add(nxt)
                queue.append(nxt)
        if len(seen) != len(vertices):
            missing = sorted(set(adjacency) - seen)
            raise GraphError(
                f"graph is not connected: unreachable vertices {reprlib.repr(missing)}"
            )
        self._assign(
            vertices=vertices,
            edges=edges,
            legs=legs,
            models=models,
            _valences=valences,
            _legs_at=legs_at,
        )

    def valence(self, vid: str) -> int:
        """Edge endpoints at the vertex; a loop counts twice."""
        return self._valences[vid]

    def legs_at(self, vid: str) -> int:
        return self._legs_at[vid]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_legs(self) -> int:
        return len(self.legs)


def total_genus(graph: DualGraph) -> int:
    """Arithmetic genus: sum of vertex genera plus the first Betti number."""
    return sum(v.genus for v in graph.vertices) + graph.num_edges - len(graph.vertices) + 1


def parse_graph(source: str | bytes | dict, *, allow_unstable: bool = False) -> DualGraph:
    """Decode a dual graph from JSON text or a decoded dict.

    The records check the graph's structure, the shape of its fields
    included; this decodes the document, its list of vertex objects and
    their model objects, checks their keys, and applies stability.  An edge
    is a pair of vertex ids, stored as written, and no result reads its
    direction.  ``allow_unstable`` skips the stability inequality, but only
    for a single-vertex graph without edges (the smooth case).
    """
    data = source
    if isinstance(source, (str, bytes)):
        # A ValueError covers bad syntax, bytes that do not decode and an
        # integer past Python's digit limit; deep nesting is a RecursionError.
        try:
            data = json.loads(source)
        except (ValueError, RecursionError) as exc:
            raise GraphError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise GraphError("graph document must be a JSON object")
    _check_keys(data, {"vertices", "edges", "legs"}, "top-level")
    vertices = [_parse_vertex(v) for v in _list_field(data.get("vertices", []), "vertices")]
    graph = DualGraph(vertices, data.get("edges", []), data.get("legs", []))

    if allow_unstable and len(graph.vertices) == 1 and not graph.edges:
        return graph
    for v in graph.vertices:
        # Punctures are excluded: stability is that of the compactified curve.
        slack = 2 * v.genus - 2 + graph.valence(v.id) + graph.legs_at(v.id)
        if slack <= 0:
            raise GraphError(
                f"unstable vertex {reprlib.repr(v.id)}: 2*genus - 2 + valence + legs = {slack}"
                " (must be positive); pass --allow-unstable, or allow_unstable=True to"
                " parse_graph, for smooth one-vertex input"
            )
    return graph


def load_graph(path: str, *, allow_unstable: bool = False) -> DualGraph:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"input is not UTF-8: {exc}") from None
    return parse_graph(text, allow_unstable=allow_unstable)


def _parse_vertex(item: object) -> Vertex:
    if not isinstance(item, dict):
        raise GraphError(f"vertex must be an object: {reprlib.repr(item)}")
    _check_keys(item, {"id", "genus", "model", "punctures"}, "vertex")
    vid = item.get("id")
    try:
        model = _parse_model(item.get("model", {"type": "symbolic"}), vid, item.get("genus"))
    except GraphError as exc:
        raise GraphError(f"{_where(vid)}: {exc}") from None
    return Vertex(vid, model, item.get("punctures", 0))


def _parse_model(item: object, vid: object, genus: object) -> CurveModel:
    if not isinstance(item, dict):
        raise GraphError("model must be an object")
    model = CurveModel(
        item.get("type"), item.get("id", vid), genus, item.get("trace"), item.get("numerator")
    )
    _check_keys(item, _MODEL_KEYS[model.kind], "model")
    return model


def graph_to_json(graph: DualGraph) -> dict:
    """Schema-shaped dict; ``parse_graph`` of the result returns an equal graph."""
    vertices = []
    for v in graph.vertices:
        model: dict[str, object] = {"type": v.model.kind}
        if v.model.name != v.id:
            model["id"] = v.model.name
        if v.model.kind == "elliptic":
            model["trace"] = v.model.trace
        elif v.model.kind == "weil":
            model["numerator"] = list(v.model.numerator)
        vertices.append(
            {"id": v.id, "genus": v.genus, "model": model, "punctures": v.punctures}
        )
    return {
        "vertices": vertices,
        "edges": [list(edge) for edge in graph.edges],
        "legs": list(graph.legs),
    }
