"""The closed forms and the oracle do not see how a graph is written down.

Relabelling vertices, reversing edges and permuting legs describe the same
curve and must give equal ring elements: the elements are compared, not
their text.  The closed forms read only the vertex data, ``|E|``, ``n`` and
the punctures, and the oracle reads adjacency only through valences, so two
non-isomorphic graphs that share those data must agree too.  ``verify``
compares the two sides on one graph and cannot see either property.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divzeta.graph import CurveModel, DualGraph, GraphError, Vertex, graph_to_json, parse_graph
from divzeta.ring import sum_elems
from divzeta.strata import divisor_series_from_strata, stable_pairs, stratum_class
from divzeta.zeta import ZetaKind, zeta_rational, zeta_series

from conftest import free_leaves, vertex

ORDER = 3
# The literal sum over stable pairs grows fast with the degree.
LITERAL_ORDER = 2

# Per genus, the curve models a vertex may carry.
_MODELS = {
    0: ({"type": "symbolic"}, {"type": "p1"}),
    1: ({"type": "symbolic"}, {"type": "elliptic", "trace": 1}),
    2: ({"type": "symbolic"}, {"type": "weil", "numerator": [1, 0, 1]}),
}


def _elements(graph):
    """Every kind's series and rational form, and the oracle's series, in
    free generators."""
    leaves = free_leaves(graph, ORDER)
    out = {"oracle": divisor_series_from_strata(graph, ORDER, leaves).coefficients()}
    for kind in ZetaKind:
        out[kind, "series"] = zeta_series(kind, graph, ORDER, leaves).coefficients()
        fn = zeta_rational(kind, graph, leaves)
        out[kind, "rational"] = (fn.numerator, fn.denominator)
    return out


def _literal(graph):
    """The sum of the stratum classes over the stable pairs, degree by degree."""
    return [
        sum_elems(stratum_class(graph, pair) for pair in stable_pairs(graph, degree))
        for degree in range(LITERAL_ORDER + 1)
    ]


def _stabilized(vertices, edges, legs):
    """The document, with legs added where a vertex would be unstable."""
    legs = list(legs)
    for v in vertices:
        valence = sum((a == v["id"]) + (b == v["id"]) for a, b in edges)
        slack = 2 * v["genus"] - 2 + valence + legs.count(v["id"])
        legs += [v["id"]] * max(1 - slack, 0)
    return {"vertices": vertices, "edges": edges, "legs": legs}


@st.composite
def _vertices(draw):
    """1-3 vertices with their models; a model is shared between vertices
    of one genus and kind or named after its vertex."""
    vertices = []
    for index in range(draw(st.integers(1, 3))):
        genus = draw(st.integers(0, 2))
        model = dict(draw(st.sampled_from(_MODELS[genus])))
        model["id"] = f"{model['type']}{genus}" if draw(st.booleans()) else f"m{index}"
        vertices.append(vertex(f"v{index}", genus, model, draw(st.integers(0, 1))))
    return vertices


@st.composite
def _documents(draw):
    """A stable graph on 1-3 vertices: a path, loops and multi-edges, legs."""
    vertices = draw(_vertices())
    ids = [v["id"] for v in vertices]
    ends = st.sampled_from(ids)
    edges = [[a, b] for a, b in zip(ids, ids[1:])]
    edges += draw(st.lists(st.tuples(ends, ends).map(list), max_size=2))
    return _stabilized(vertices, edges, draw(st.lists(ends, max_size=2)))


@st.composite
def _presentations(draw):
    """A graph document and the same graph written down another way: new
    vertex ids in another order, every edge and the legs shuffled, and a
    drawn set of edges reversed."""
    document = draw(_documents())
    ids = [v["id"] for v in document["vertices"]]
    names = dict(zip(ids, draw(st.permutations(["z", "a", "q"]))))
    vertices = [dict(v, id=names[v["id"]]) for v in document["vertices"]]
    edges = []
    for a, b in document["edges"]:
        edge = [names[a], names[b]]
        edges.append(edge[::-1] if draw(st.booleans()) else edge)
    return document, {
        "vertices": draw(st.permutations(vertices)),
        "edges": draw(st.permutations(edges)),
        "legs": draw(st.permutations([names[vid] for vid in document["legs"]])),
    }


@given(_presentations())
@settings(max_examples=40, deadline=None)
def test_presentation_does_not_change_the_elements(pair):
    document, rewritten = pair
    graph, other = parse_graph(document), parse_graph(rewritten)
    # parse_graph stores each edge as written; every edge is reversed here,
    # so the chains of every edge are read the other way.
    reversed_edges = DualGraph(graph.vertices, tuple(e[::-1] for e in graph.edges), graph.legs)
    expected = _elements(graph)
    assert _elements(other) == expected
    assert _elements(reversed_edges) == expected


def _rewire(draw, document):
    """The same vertices, ``|E|`` and leg count, with edges beyond a path
    and the legs attached anew."""
    ids = [v["id"] for v in document["vertices"]]
    ends = st.sampled_from(ids)
    path = [[a, b] for a, b in zip(ids, ids[1:])]
    extra = len(document["edges"]) - len(path)
    edges = path + [list(draw(st.tuples(ends, ends))) for _ in range(extra)]
    legs = [draw(ends) for _ in document["legs"]]
    return {"vertices": document["vertices"], "edges": edges, "legs": legs}


def _assert_same_results(document, other):
    graph, rewired = parse_graph(document), parse_graph(other)
    assert _elements(rewired) == _elements(graph)
    assert _literal(rewired) == _literal(graph)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_graphs_sharing_vertex_data_and_counts_agree(data):
    document = data.draw(_documents())
    other = _rewire(data.draw, document)
    try:
        parse_graph(other)
    except GraphError:
        assume(False)  # the rewired graph is unstable
    _assert_same_results(document, other)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_parsing_adds_only_json_work_and_stability(data):
    # The generated vertices, connected by a path and up to two more edges,
    # with up to two legs and no stabilizing legs added, built directly with
    # each edge in a drawn direction.
    documents = data.draw(_vertices())
    ids = [v["id"] for v in documents]
    ends = st.sampled_from(ids)
    edges = list(zip(ids, ids[1:])) + data.draw(st.lists(st.tuples(ends, ends), max_size=2))
    edges = [edge[::-1] if data.draw(st.booleans()) else edge for edge in edges]
    legs = data.draw(st.lists(ends, max_size=2))
    vertices = []
    for v in documents:
        model = v["model"]
        curve = CurveModel(model["type"], model["id"], v["genus"],
                           model.get("trace"), model.get("numerator"))
        vertices.append(Vertex(v["id"], curve, v["punctures"]))
    graph = DualGraph(vertices, edges, legs)
    unstable = [
        v.id for v in graph.vertices
        if 2 * v.genus - 2 + graph.valence(v.id) + graph.legs_at(v.id) <= 0
    ]
    if not unstable:
        assert parse_graph(graph_to_json(graph)) == graph
        return
    with pytest.raises(GraphError, match=f"unstable vertex '({'|'.join(unstable)})'"):
        parse_graph(graph_to_json(graph))


_V = [vertex("a", 1), vertex("b", 0, {"type": "p1"}), vertex("c", 1, punctures=1)]


@pytest.mark.parametrize(
    "document, other",
    [
        # Two parallel nodes, or one node and a self-node.
        ({"vertices": _V[::2], "edges": [["a", "c"], ["a", "c"]]},
         {"vertices": _V[::2], "edges": [["a", "c"], ["a", "a"]]}),
        # A path with a loop on its rational middle, or a triangle, the leg
        # moved so both are stable.
        ({"vertices": _V, "edges": [["a", "b"], ["b", "c"], ["b", "b"]], "legs": ["a"]},
         {"vertices": _V, "edges": [["a", "b"], ["b", "c"], ["a", "c"]], "legs": ["b"]}),
    ],
)
def test_non_isomorphic_graphs_sharing_vertex_data_and_counts_agree(document, other):
    _assert_same_results(document, other)
