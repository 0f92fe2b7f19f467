"""Dual graphs of stable marked curves: data model, JSON parsing, validation.

A dual graph has one vertex per irreducible component (with its geometric
genus and a curve model for the normalization), one edge per node (loops
allowed), one leg per marked point, and an optional puncture count per
vertex for quasiprojective components.

Input schema (JSON)::

    {"vertices": [{"id": "v1", "genus": 1, "model": {"type": "symbolic"},
                   "punctures": 0}],
     "edges": [["v1", "v1"]],
     "legs": ["v1"]}

Model objects: ``{"type": "symbolic"}``, ``{"type": "p1"}``,
``{"type": "elliptic", "trace": a}``, and
``{"type": "weil", "numerator": [1, ...]}``; each may carry an ``"id"`` to
share one generator namespace between vertices (default: the vertex id).
Vertices that share a model id must describe the same curve (kind, genus,
trace, numerator); a graph that gives one id two curves is refused.
``model`` defaults to symbolic, ``punctures`` to 0, ``edges``/``legs`` to
empty.

Non-loop edges are stored with endpoints in vertex-id order; this fixes the
orientation along which exceptional chains are read.  For a loop, the two
half-edges are distinguished and chains are read from the first slot.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterable

from .ring import MODEL_ID_RE


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


class CurveModel(Record):
    """The normalization of one component.

    ``symbolic``, ``elliptic``, and ``weil`` models contribute free
    symmetric-power generators ``c[name,d]`` to series coefficients;
    elliptic and weil additionally carry the data a point-count measure
    needs to realize those generators.  ``p1`` expands concretely in the
    Lefschetz class.  The constructor refuses an unknown kind, a ``p1``
    model of positive genus, an elliptic model whose genus is not 1 or whose
    trace is not an integer, and a weil numerator without constant term 1
    or of degree above 2g.
    """

    __slots__ = _fields = ("kind", "name", "genus", "trace", "numerator")

    def __init__(
        self,
        kind: str,
        name: str,
        genus: int,
        trace: int | None = None,
        numerator: tuple[int, ...] | None = None,
    ):
        if not isinstance(kind, str) or kind not in _MODEL_KEYS:
            raise GraphError(f"unknown model kind {reprlib.repr(kind)}")
        if kind == "p1" and genus != 0:
            raise GraphError(f"a p1 model has genus 0, not {reprlib.repr(genus)}")
        if kind == "elliptic":
            if genus != 1:
                raise GraphError(f"an elliptic model has genus 1, not {reprlib.repr(genus)}")
            if not _is_int(trace):
                raise GraphError(f"elliptic trace must be an integer: {reprlib.repr(trace)}")
        if kind == "weil":
            if not numerator or numerator[0] != 1:
                raise GraphError(
                    f"weil numerator must have constant term 1: {reprlib.repr(numerator)}"
                )
            if len(numerator) - 1 > 2 * genus:
                raise GraphError(
                    f"weil numerator degree {len(numerator) - 1} exceeds 2*genus = {2 * genus}"
                )
        if not MODEL_ID_RE.fullmatch(name):
            raise GraphError(f"invalid model id: {reprlib.repr(name)}")
        if genus < 0:
            raise GraphError("genus must be nonnegative")
        self._assign(kind=kind, name=name, genus=genus, trace=trace, numerator=numerator)

    @classmethod
    def symbolic(cls, name: str, genus: int) -> CurveModel:
        return cls("symbolic", name, genus)

    @classmethod
    def projective_line(cls, name: str) -> CurveModel:
        return cls("p1", name, 0)

    @classmethod
    def elliptic(cls, name: str, trace: int) -> CurveModel:
        return cls("elliptic", name, 1, trace=trace)

    @classmethod
    def weil(cls, name: str, numerator: Iterable[int], genus: int) -> CurveModel:
        return cls("weil", name, genus, numerator=tuple(int(c) for c in numerator))


class Vertex(Record):
    __slots__ = _fields = ("id", "genus", "model", "punctures")

    def __init__(self, id: str, genus: int, model: CurveModel, punctures: int = 0):
        self._assign(id=id, genus=genus, model=model, punctures=punctures)


class DualGraph(Record):
    """Validated dual graph; immutable and freely shareable.

    ``models`` maps each model id to its curve, in order of first use; the
    constructor refuses a model id that names two different curves.  It and
    the per-vertex valences and leg counts are built with the graph.
    """

    _fields = ("vertices", "edges", "legs")
    __slots__ = _fields + ("models", "_valences", "_legs_at")

    def __init__(
        self,
        vertices: tuple[Vertex, ...],
        edges: tuple[tuple[str, str], ...],
        legs: tuple[str, ...],
    ):
        models: dict[str, CurveModel] = {}
        valences = {v.id: 0 for v in vertices}
        legs_at = dict(valences)
        for v in vertices:
            model = models.setdefault(v.model.name, v.model)
            if model is not v.model and model != v.model:
                raise GraphError(
                    f"{_where(v.id)}: model id {reprlib.repr(v.model.name)}"
                    " already names a different curve"
                )
        for u, w in edges:
            valences[u] += 1
            valences[w] += 1
        for vid in legs:
            legs_at[vid] += 1
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
    """Parse and validate a dual graph from JSON text or a decoded dict.

    ``allow_unstable`` skips the stability inequality, but only for a
    single-vertex graph without edges (the smooth case).
    """
    if isinstance(source, (str, bytes)):
        # A ValueError covers bad syntax, bytes that do not decode and an
        # integer past Python's digit limit; deep nesting is a RecursionError.
        try:
            data = json.loads(source)
        except (ValueError, RecursionError) as exc:
            raise GraphError(f"invalid JSON: {exc}") from None
    else:
        data = source
    if not isinstance(data, dict):
        raise GraphError("graph document must be a JSON object")
    unknown = set(data) - {"vertices", "edges", "legs"}
    if unknown:
        raise GraphError(f"unknown top-level keys: {reprlib.repr(sorted(unknown))}")

    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise GraphError("'vertices' must be a nonempty list")
    vertices = tuple(_parse_vertex(item) for item in raw_vertices)
    ids = [v.id for v in vertices]
    if len(set(ids)) != len(ids):
        raise GraphError("duplicate vertex ids")
    known = set(ids)

    edges = []
    for item in _list_field(data, "edges"):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise GraphError(f"edge must be a pair of vertex ids: {reprlib.repr(item)}")
        u, w = item
        for end in (u, w):
            _check_endpoint(end, known, "edge")
        edges.append((u, w) if u <= w else (w, u))

    legs = []
    for vid in _list_field(data, "legs"):
        _check_endpoint(vid, known, "leg")
        legs.append(vid)

    graph = DualGraph(vertices, tuple(edges), tuple(legs))
    _validate(graph, allow_unstable=allow_unstable)
    return graph


def _is_int(value: object) -> bool:
    """JSON integer test; ``bool`` is an ``int`` subclass but not an integer here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list_field(data: dict, key: str) -> list:
    items = data.get(key, [])
    if not isinstance(items, (list, tuple)):
        raise GraphError(f"'{key}' must be a list")
    return items


def _check_endpoint(end: object, known: set[str], kind: str) -> None:
    if not isinstance(end, str):
        raise GraphError(f"{kind} endpoint must be a vertex id string: {reprlib.repr(end)}")
    if end not in known:
        raise GraphError(f"{kind} references unknown vertex id {reprlib.repr(end)}")


def load_graph(path: str, *, allow_unstable: bool = False) -> DualGraph:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"input is not UTF-8: {exc}") from None
    return parse_graph(text, allow_unstable=allow_unstable)


def _where(vid: str) -> str:
    """The vertex an error names; built only when one is raised."""
    return f"vertex {reprlib.repr(vid)}"


def _parse_vertex(item: object) -> Vertex:
    if not isinstance(item, dict):
        raise GraphError(f"vertex must be an object: {reprlib.repr(item)}")
    unknown = set(item) - {"id", "genus", "model", "punctures"}
    if unknown:
        raise GraphError(f"unknown vertex keys: {reprlib.repr(sorted(unknown))}")
    vid = item.get("id")
    if not isinstance(vid, str) or not MODEL_ID_RE.fullmatch(vid):
        raise GraphError(f"invalid vertex id: {reprlib.repr(vid)}")
    genus = item.get("genus")
    if not _is_int(genus) or genus < 0:
        raise GraphError(f"{_where(vid)}: genus must be a nonnegative integer")
    punctures = item.get("punctures", 0)
    if not _is_int(punctures) or punctures < 0:
        raise GraphError(f"{_where(vid)}: punctures must be a nonnegative integer")
    model = _parse_model(item.get("model", {"type": "symbolic"}), vid, genus)
    return Vertex(vid, genus, model, punctures)


def _parse_model(item: object, vid: str, genus: int) -> CurveModel:
    if not isinstance(item, dict):
        raise GraphError(f"{_where(vid)}: model must be an object")
    kind = item.get("type")
    name = item.get("id", vid)
    if not isinstance(name, str):
        raise GraphError(f"{_where(vid)}: model id must be a string")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise GraphError(f"{_where(vid)}: unknown model type {reprlib.repr(kind)}")
    unknown = set(item) - _MODEL_KEYS[kind]
    if unknown:
        raise GraphError(f"{_where(vid)}: unknown model keys: {reprlib.repr(sorted(unknown))}")
    if kind == "symbolic":
        model = CurveModel.symbolic(name, genus)
    elif kind == "p1":
        model = CurveModel.projective_line(name)
    elif kind == "elliptic":
        trace = item.get("trace")
        if not _is_int(trace):
            raise GraphError(f"{_where(vid)}: elliptic model needs integer 'trace'")
        model = CurveModel.elliptic(name, trace)
    else:
        numerator = item.get("numerator")
        if not isinstance(numerator, list) or not all(map(_is_int, numerator)):
            raise GraphError(f"{_where(vid)}: weil model needs an integer list 'numerator'")
        model = CurveModel.weil(name, numerator, genus)
    if model.genus != genus:
        raise GraphError(
            f"{_where(vid)}: model genus {model.genus} does not match vertex genus"
            f" {reprlib.repr(genus)}"
        )
    return model


def _validate(graph: DualGraph, *, allow_unstable: bool) -> None:
    # Connectivity (legs attach to vertices, they connect nothing).
    adjacency: dict[str, set[str]] = {v.id: set() for v in graph.vertices}
    for u, w in graph.edges:
        adjacency[u].add(w)
        adjacency[w].add(u)
    seen = {graph.vertices[0].id}
    queue = [graph.vertices[0].id]
    while queue:
        for nxt in adjacency[queue.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) != len(graph.vertices):
        missing = sorted(set(adjacency) - seen)
        raise GraphError(f"graph is not connected: unreachable vertices {reprlib.repr(missing)}")

    skip_stability = allow_unstable and len(graph.vertices) == 1 and not graph.edges
    if skip_stability:
        return
    for v in graph.vertices:
        # Punctures are excluded: stability is that of the compactified curve.
        slack = 2 * v.genus - 2 + graph.valence(v.id) + graph.legs_at(v.id)
        if slack <= 0:
            raise GraphError(
                f"unstable vertex {reprlib.repr(v.id)}: 2*genus - 2 + valence + legs = {slack}"
                " (must be positive); pass --allow-unstable, or allow_unstable=True to"
                " parse_graph, for smooth one-vertex input"
            )


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
