"""Dual-graph parsing, validation, and bookkeeping."""

import copy
import itertools
import json
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divzeta.graph import (
    CurveModel,
    DualGraph,
    GraphError,
    Vertex,
    graph_to_json,
    load_graph,
    parse_graph,
    total_genus,
)

from conftest import battery


def vertex(vid="v", genus=0, model=None, punctures=0):
    out = {"id": vid, "genus": genus, "punctures": punctures}
    if model is not None:
        out["model"] = model
    return out


def test_parse_single_genus_two_vertex():
    graph = parse_graph({"vertices": [vertex(genus=2)]})
    assert graph.vertices[0].genus == 2
    assert graph.vertices[0].model.kind == "symbolic"
    assert graph.vertices[0].model.name == "v"
    assert graph.num_edges == 0 and graph.num_legs == 0


def test_parse_accepts_json_text():
    text = json.dumps({"vertices": [vertex(genus=1, vid="a")], "legs": ["a"]})
    graph = parse_graph(text)
    assert graph.legs == ("a",)


def test_stability_boundary_rejected():
    # Genus 0 with one loop sits exactly on the boundary: 2*0 - 2 + 2 = 0.
    with pytest.raises(GraphError, match="unstable vertex 'v'"):
        parse_graph({"vertices": [vertex(genus=0)], "edges": [["v", "v"]]})


def test_theta_graph_is_stable():
    graph = parse_graph(
        {
            "vertices": [vertex("a"), vertex("b")],
            "edges": [["a", "b"], ["a", "b"], ["a", "b"]],
        }
    )
    assert graph.valence("a") == 3
    assert total_genus(graph) == 2


def test_allow_unstable_is_restricted_to_smooth_case():
    smooth_p1 = {"vertices": [vertex(model={"type": "p1"})]}
    with pytest.raises(GraphError):
        parse_graph(smooth_p1)
    graph = parse_graph(smooth_p1, allow_unstable=True)
    assert graph.vertices[0].model.kind == "p1"

    # Two genus-0 vertices joined by one edge stay rejected even with the flag.
    two = {"vertices": [vertex("a"), vertex("b")], "edges": [["a", "b"]]}
    with pytest.raises(GraphError):
        parse_graph(two, allow_unstable=True)
    loop = {"vertices": [vertex(genus=0)], "edges": [["v", "v"]]}
    with pytest.raises(GraphError):
        parse_graph(loop, allow_unstable=True)


def test_unknown_ids_and_disconnected():
    with pytest.raises(GraphError, match="unknown vertex id"):
        parse_graph({"vertices": [vertex("a", 1)], "edges": [["a", "b"]]})
    with pytest.raises(GraphError, match="unknown vertex id"):
        parse_graph({"vertices": [vertex("a", 1)], "legs": ["b"]})
    with pytest.raises(GraphError, match="not connected"):
        parse_graph({"vertices": [vertex("a", 1), vertex("b", 1)]})
    with pytest.raises(GraphError, match="duplicate"):
        parse_graph({"vertices": [vertex("a", 1), vertex("a", 1)]})


def test_schema_violations():
    with pytest.raises(GraphError, match="invalid JSON"):
        parse_graph("{nope")
    with pytest.raises(GraphError, match="nonempty"):
        parse_graph({"vertices": []})
    with pytest.raises(GraphError, match="unknown vertex keys"):
        parse_graph({"vertices": [{"id": "a", "genus": 1, "puncture": 1}]})
    with pytest.raises(GraphError, match="genus"):
        parse_graph({"vertices": [{"id": "a", "genus": -1}]})
    with pytest.raises(GraphError, match="unknown model type"):
        parse_graph({"vertices": [vertex("a", 1, {"type": "mystery"})]})


def test_unknown_keys_of_mixed_types_are_listed():
    # JSON keys are strings; a decoded dict from a caller need not be.
    marked = {"vertices": [vertex("a", 1)], "legs": ["a"]}
    cases = [
        ({**marked, 1: 0, "x": 0}, r"unknown top-level keys: \[1, 'x'\]"),
        ({**marked, "vertices": [{**vertex("a", 1), 2: 0, "b": 0}]},
         r"unknown vertex keys: \[2, 'b'\]"),
        ({**marked, "vertices": [vertex("a", 0, {"type": "p1", (3,): 0, "c": 0})]},
         r"unknown model keys: \[\(3,\), 'c'\]"),
    ]
    for document, message in cases:
        with pytest.raises(GraphError, match=message):
            parse_graph(document)


def test_booleans_are_not_integers():
    marked = {"vertices": [vertex("a", 1)], "legs": ["a"]}
    cases = [
        ({"genus": True}, "genus"),
        ({"punctures": False}, "punctures"),
        ({"model": {"type": "elliptic", "trace": True}}, "trace"),
        ({"model": {"type": "weil", "numerator": [True]}}, "numerator"),
    ]
    for override, message in cases:
        document = {**marked, "vertices": [{**marked["vertices"][0], **override}]}
        with pytest.raises(GraphError, match=message):
            parse_graph(document)


def test_endpoints_must_be_vertex_id_strings():
    base = {"vertices": [vertex("u", 1), vertex("w", 1)]}
    for edge in ([["u"], "w"], ["u", {"id": "w"}], [1, "w"]):
        with pytest.raises(GraphError, match="edge endpoint"):
            parse_graph({**base, "edges": [edge]})
    for leg in (["u"], 0, None):
        with pytest.raises(GraphError, match="leg endpoint"):
            parse_graph({**base, "edges": [["u", "w"]], "legs": [leg]})
    for key in ("edges", "legs"):
        with pytest.raises(GraphError, match=f"'{key}' must be a list"):
            parse_graph({**base, key: "uw"})
    # Several faults: each field's shape is named before an edge or a leg.
    with pytest.raises(GraphError, match="'legs' must be a list"):
        parse_graph({**base, "edges": ["uw", 1], "legs": None})
    with pytest.raises(GraphError, match="'edges' must be a list"):
        parse_graph({**base, "edges": {"u": "w"}, "legs": [0]})


def test_model_genus_must_match_vertex_genus():
    with pytest.raises(GraphError, match="vertex 'a': an elliptic model has genus 1, not 2"):
        parse_graph({"vertices": [vertex("a", 2, {"type": "elliptic", "trace": 1})]})
    with pytest.raises(GraphError, match="vertex 'a': a p1 model has genus 0, not 1"):
        parse_graph({"vertices": [vertex("a", 1, {"type": "p1"})]}, allow_unstable=True)


def test_weil_model_validation():
    good = vertex("a", 1, {"type": "weil", "numerator": [1, -2, 5]})
    graph = parse_graph({"vertices": [good], "legs": ["a"]})
    assert graph.vertices[0].model.numerator == (1, -2, 5)
    with pytest.raises(GraphError, match="constant term 1"):
        parse_graph({"vertices": [vertex("a", 1, {"type": "weil", "numerator": [2]})]})
    with pytest.raises(GraphError, match="exceeds"):
        parse_graph(
            {"vertices": [vertex("a", 1, {"type": "weil", "numerator": [1, 0, 0, 5]})]}
        )
    # Every weil model carries the checks, however it is built.
    with pytest.raises(GraphError, match="constant term 1"):
        CurveModel("weil", "e", 1, numerator=(2, 1, 5))
    with pytest.raises(GraphError, match="constant term 1"):
        CurveModel("weil", "e", 1)
    with pytest.raises(GraphError, match="exceeds"):
        CurveModel("weil", "e", 1, numerator=[1, 0, 0, 5])


def test_models_list_each_id_once_in_order_of_first_use():
    elliptic = {"type": "elliptic", "id": "e", "trace": 1}
    path = {"vertices": [vertex("u", 1, elliptic), vertex("w", 2), vertex("x", 1, elliptic)],
            "edges": [["u", "w"], ["w", "x"]]}
    graph = parse_graph(path)
    assert graph.models == {
        "e": CurveModel("elliptic", "e", 1, trace=1), "w": CurveModel("symbolic", "w", 2)
    }
    assert list(graph.models) == ["e", "w"]
    for genus, clash in ((1, {**elliptic, "trace": 2}),
                         (1, {"type": "weil", "id": "e", "numerator": [1, -1, 2]}),
                         (1, {"type": "symbolic", "id": "e"}),
                         (2, {"type": "symbolic", "id": "e"})):
        path["vertices"][2] = vertex("x", genus, clash)
        with pytest.raises(GraphError, match="vertex 'x': model id 'e'"):
            parse_graph(path)


def test_a_directly_built_graph_refuses_one_id_for_two_curves():
    # Without the check, every vertex of id 'm' would be point-counted with
    # the first curve, trace 1.
    u = Vertex("u", CurveModel("elliptic", "m", 1, trace=1))
    w = Vertex("w", CurveModel("elliptic", "m", 1, trace=-2))
    with pytest.raises(GraphError, match="vertex 'w': model id 'm' already names"):
        DualGraph((u, w), (("u", "w"),), ())
    same = DualGraph((u, Vertex("w", CurveModel("elliptic", "m", 1, trace=1))), (("u", "w"),), ())
    assert same.models == {"m": CurveModel("elliptic", "m", 1, trace=1)}


def test_a_model_id_clash_is_reported_before_connectivity_and_stability():
    # Two vertices without edges, so disconnected and unstable as well.
    clash = {"vertices": [vertex("u", 0, {"type": "symbolic", "id": "m"}),
                          vertex("w", 1, {"type": "symbolic", "id": "m"})]}
    with pytest.raises(GraphError, match="vertex 'w': model id 'm' already names"):
        parse_graph(clash)
    clash["vertices"][1] = vertex("w", 0, {"type": "symbolic", "id": "m"})
    with pytest.raises(GraphError, match="not connected"):
        parse_graph(clash)


def test_total_genus():
    single = parse_graph({"vertices": [vertex(genus=3)]})
    assert total_genus(single) == 3
    loop = parse_graph({"vertices": [vertex(genus=1)], "edges": [["v", "v"]]})
    assert total_genus(loop) == 2


def test_counts_figures():
    two_component = parse_graph(
        {"vertices": [vertex("u", 2), vertex("w", 2)], "edges": [["u", "w"]]}
    )
    assert two_component.num_edges == 1 and two_component.num_legs == 0
    assert two_component.valence("u") == 1 and two_component.valence("w") == 1

    marked = parse_graph({"vertices": [vertex("m", 2)], "legs": ["m"]})
    assert marked.num_edges == 0 and marked.num_legs == 1
    assert marked.legs_at("m") == 1

    loop = parse_graph({"vertices": [vertex(genus=1)], "edges": [["v", "v"]]})
    assert loop.valence("v") == 2


def test_edges_are_stored_as_written_as_tuples():
    graph = parse_graph(
        {"vertices": [vertex("b", 1), vertex("a", 1)], "edges": [["b", "a"], ["a", "b"]]}
    )
    assert graph.edges == (("b", "a"), ("a", "b"))
    assert all(type(edge) is tuple for edge in graph.edges)
    vertices = (_genus_2("u"), _genus_2("w"))
    listed = DualGraph(list(vertices), [["w", "u"]], ["u"])
    written = DualGraph(vertices, (("w", "u"),), ("u",))
    # List fields and a list edge are stored as tuples: the graphs are equal
    # and hash alike.
    assert listed == written and hash(listed) == hash(written)
    assert all(type(field) is tuple for field in (listed.vertices, listed.edges, listed.legs))
    # Equality reads the edges as written, as it reads their order.
    assert listed != DualGraph(vertices, (("u", "w"),), ())


def test_json_round_trip():
    documents = [
        {"vertices": [vertex(genus=2)]},
        {
            "vertices": [
                vertex("u", 1, {"type": "elliptic", "trace": 2}, punctures=1),
                vertex("w", 1, {"type": "weil", "numerator": [1, -1, 3]}),
            ],
            "edges": [["u", "w"], ["u", "u"]],
            "legs": ["w", "w"],
        },
        {
            # Two vertices explicitly sharing one generator namespace.
            "vertices": [
                vertex("u", 2, {"type": "symbolic", "id": "shared"}),
                vertex("w", 2, {"type": "symbolic", "id": "shared"}),
            ],
            "edges": [["u", "w"]],
        },
    ]
    for document in documents:
        graph = parse_graph(document)
        assert parse_graph(graph_to_json(graph)) == graph


def test_stability_sweep_matches_inequality():
    # Every connected graph shape with <= 2 vertices, <= 3 edges, <= 2 legs,
    # genus <= 2, checked against the inequality evaluated from scratch.
    def stable(genus, valence, legs):
        return 2 * genus - 2 + valence + legs > 0

    checked = 0
    for g1, loops, legs in itertools.product(range(3), range(4), range(3)):
        doc = {
            "vertices": [vertex("a", g1)],
            "edges": [["a", "a"]] * loops,
            "legs": ["a"] * legs,
        }
        expected = stable(g1, 2 * loops, legs)
        _expect_acceptance(doc, expected)
        checked += 1
    for g1, g2 in itertools.product(range(3), repeat=2):
        for bridges, loops1, loops2 in itertools.product(range(4), repeat=3):
            if bridges + loops1 + loops2 > 3:
                continue
            for legs1, legs2 in itertools.product(range(3), repeat=2):
                if legs1 + legs2 > 2:
                    continue
                doc = {
                    "vertices": [vertex("a", g1), vertex("b", g2)],
                    "edges": [["a", "b"]] * bridges
                    + [["a", "a"]] * loops1
                    + [["b", "b"]] * loops2,
                    "legs": ["a"] * legs1 + ["b"] * legs2,
                }
                expected = (
                    bridges >= 1
                    and stable(g1, bridges + 2 * loops1, legs1)
                    and stable(g2, bridges + 2 * loops2, legs2)
                )
                _expect_acceptance(doc, expected)
                checked += 1
    assert checked > 300


def _expect_acceptance(doc, expected):
    if expected:
        parse_graph(doc)
    else:
        with pytest.raises(GraphError):
            parse_graph(doc)


# Keys and scalars of the schema come up often, so documents get past the
# first checks; arbitrary text and numbers cover the rest.
_KEYS = st.sampled_from(
    ["vertices", "edges", "legs", "id", "genus", "punctures", "model",
     "type", "trace", "numerator"]
) | st.text(max_size=3)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers()
    | st.floats()
    | st.sampled_from(["u", "w", "symbolic", "p1", "elliptic", "weil"])
    | st.text(max_size=3)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=25,
)


@given(_JSON, st.booleans())
@settings(max_examples=200, deadline=None)
def test_parse_graph_raises_only_graph_error(document, allow_unstable):
    for source in (document, json.dumps(document)):
        try:
            parse_graph(source, allow_unstable=allow_unstable)
        except GraphError:
            pass


# Texts that fail to decode: bytes that are not UTF-8, an integer literal past
# Python's digit limit, and nesting past the recursion limit.
_UNDECODABLE = {
    "not-utf-8": b'{"vertices": [{"id": "v\xff", "genus": 2}]}',
    "too-many-digits": '{"vertices": [{"id": "v", "genus": %s}]}'
    % ("1" * (sys.get_int_max_str_digits() + 1)),
    "too-deep": "[" * 100_000,
    "too-deep-inside": '{"vertices": [{"id": "v", "genus": 2, "model": %s}]}' % ("[" * 100_000),
}


@pytest.mark.parametrize("name", sorted(_UNDECODABLE))
def test_undecodable_text_is_a_graph_error(name, tmp_path):
    text = _UNDECODABLE[name]
    sources = [text] if isinstance(text, bytes) else [text, text.encode()]
    for source in sources:
        with pytest.raises(GraphError, match="invalid JSON"):
            parse_graph(source)
    path = tmp_path / "graph.json"
    path.write_bytes(sources[-1])
    with pytest.raises(GraphError):
        load_graph(str(path))


def test_model_type_must_be_a_name():
    for kind in (["symbolic"], {"a": 1}, None, 1):
        with pytest.raises(GraphError, match="unknown model type"):
            parse_graph({"vertices": [vertex(genus=2, model={"type": kind})]})


# -- records ----------------------------------------------------------------------

ELLIPTIC = CurveModel("elliptic", "e", 1, trace=1)
RECORDS = {
    "curve-model": (ELLIPTIC, CurveModel("elliptic", "e", 1, trace=2)),
    "weil-model": (
        CurveModel("weil", "w", 1, numerator=[1, -1, 3]),
        CurveModel("weil", "w", 1, numerator=[1, -1, 2]),
    ),
    "vertex": (Vertex("u", ELLIPTIC, 2), Vertex("u", ELLIPTIC)),
    "graph": (
        DualGraph((Vertex("u", ELLIPTIC),), (("u", "u"),), ()),
        DualGraph((Vertex("u", ELLIPTIC),), (("u", "u"),), ("u",)),
    ),
}


@pytest.mark.parametrize("record, other", RECORDS.values(), ids=list(RECORDS))
def test_records_compare_hash_and_copy_field_by_field(record, other):
    rebuilt = pickle.loads(pickle.dumps(record))
    assert rebuilt is not record
    for twin in (rebuilt, copy.copy(record), copy.deepcopy(record)):
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)
    assert record != other  # one field differs

    class Subclass(type(record)):
        __slots__ = ()

    assert Subclass(*rebuilt._values()) != record
    assert record != rebuilt._values()
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)
    with pytest.raises(AttributeError):
        delattr(record, type(record)._fields[0])


def test_record_repr_lists_the_fields():
    assert repr(ELLIPTIC) == (
        "CurveModel(kind='elliptic', name='e', genus=1, trace=1, numerator=None)"
    )


def test_curve_model_validates_its_fields():
    with pytest.raises(GraphError, match="invalid model id"):
        CurveModel("symbolic", "1m", 1)
    with pytest.raises(GraphError, match="genus must be a nonnegative integer"):
        CurveModel("symbolic", "m", -1)


@pytest.mark.parametrize(
    "args, message",
    [
        (("bogus", "m", 1), "unknown model type"),
        ((None, "m", 1), "unknown model type"),
        (("elliptic", "m", 1), "trace must be an integer"),
        (("elliptic", "m", 1, True), "trace must be an integer"),
        (("elliptic", "m", 1, 1.0), "trace must be an integer"),
        (("elliptic", "m", 0, 1), "genus 1"),
        (("elliptic", "m", 2, 1), "genus 1"),
        (("p1", "m", 3), "genus 0"),
        (("p1", "m", 0, 3), "a p1 model has no trace"),
        (("symbolic", "m", 1, None, (1,)), "a symbolic model has no numerator"),
    ],
)
def test_curve_model_refuses_a_kind_it_cannot_count(args, message):
    # Each of these would build and then fail, or count the wrong curve,
    # under a measure, or lose a field in a JSON round trip.
    with pytest.raises(GraphError, match=message):
        CurveModel(*args)


def test_curve_model_refuses_numbers_that_are_not_ints():
    # A float, a bool or a numeric string is not an integer.
    for numerator in ([1, 2.9, 7], [1, True, 7], [True], [1, "-3", 7], (1, 0.0)):
        with pytest.raises(GraphError, match="weil numerator must be a list of integers"):
            CurveModel("weil", "w", 1, numerator=numerator)
    for genus in ("2", True, 1.0, None):
        with pytest.raises(GraphError, match="genus must be a nonnegative integer"):
            CurveModel("symbolic", "m", genus)
    with pytest.raises(GraphError, match="genus must be a nonnegative integer"):
        CurveModel("weil", "w", False, numerator=[1])


def _genus_2(vid, punctures=0):
    return Vertex(vid, CurveModel("symbolic", vid, 2), punctures)


# Each builds with the constructors alone a graph that parse_graph refuses,
# or a record holding a field of the wrong record type, which no document
# decodes to; the constructors must refuse it with a GraphError.
_DIRECT_REFUSALS = {
    "duplicate-id": (lambda: DualGraph((_genus_2("u"), _genus_2("u")), (("u", "u"),), ()),
                     "duplicate vertex id 'u'"),
    "unknown-endpoint": (lambda: DualGraph((_genus_2("u"),), (("u", "x"),), ()),
                         "edge references unknown vertex id 'x'"),
    "unknown-leg": (lambda: DualGraph((_genus_2("u"),), (), ("x",)),
                    "leg references unknown vertex id 'x'"),
    "non-string-endpoint": (lambda: DualGraph((_genus_2("u"),), (("u", 1),), ()),
                            "edge endpoint must be a vertex id string: 1"),
    "disconnected": (lambda: DualGraph((_genus_2("u"), _genus_2("w")), (), ()),
                     r"graph is not connected: unreachable vertices \['w'\]"),
    "no-vertices": (lambda: DualGraph((), (), ()),
                    "a dual graph needs a nonempty list of vertices"),
    "negative-punctures": (lambda: DualGraph((_genus_2("u", -3),), (), ()),
                           "vertex 'u': punctures must be a nonnegative integer"),
    "bool-punctures": (lambda: DualGraph((_genus_2("u", True),), (), ()),
                       "vertex 'u': punctures must be a nonnegative integer"),
    "vertex-id": (lambda: DualGraph((Vertex("1v", CurveModel("symbolic", "m", 2)),), (), ()),
                  "invalid vertex id: '1v'"),
    "elliptic-genus-2": (
        lambda: DualGraph((Vertex("u", CurveModel("elliptic", "u", 2, trace=1)),), (), ()),
        "an elliptic model has genus 1, not 2",
    ),
    "model-not-a-curve": (lambda: Vertex("u", "m"),
                          "vertex 'u': model must be a CurveModel: 'm'"),
    "vertex-not-a-vertex": (lambda: DualGraph(["u"], (), ()),
                            "vertex must be a Vertex: 'u'"),
    "three-endpoints": (lambda: DualGraph((_genus_2("u"),), (("u", "u", "u"),), ()),
                        r"edge must be a pair of vertex ids: \('u', 'u', 'u'\)"),
    "string-edge": (lambda: DualGraph((_genus_2("u"), _genus_2("w")), ("uw",), ()),
                    "edge must be a pair of vertex ids: 'uw'"),
    "string-legs": (lambda: DualGraph((_genus_2("u"), _genus_2("w")), (("u", "w"),), "uw"),
                    "'legs' must be a list"),
    "none-vertices": (lambda: DualGraph(None, (), ()), "'vertices' must be a list"),
    "none-edges": (lambda: DualGraph((_genus_2("u"),), None, ()), "'edges' must be a list"),
    "none-legs": (lambda: DualGraph((_genus_2("u"),), (), None), "'legs' must be a list"),
    "int-legs": (lambda: DualGraph((_genus_2("u"),), (), 5), "'legs' must be a list"),
    "dict-vertices": (lambda: DualGraph({"a": _genus_2("a")}, (), ()),
                      "'vertices' must be a list"),
    "generator-edges": (lambda: DualGraph((_genus_2("u"),), (e for e in [("u", "u")]), ()),
                        "'edges' must be a list"),
    # Every field's shape is checked before any edge: the legs are named first.
    "shape-before-pairs": (lambda: DualGraph((_genus_2("u"),), ("uw",), None),
                           "'legs' must be a list"),
}


@pytest.mark.parametrize("name", sorted(_DIRECT_REFUSALS))
def test_a_directly_built_graph_refuses_what_parse_graph_refuses(name):
    build, message = _DIRECT_REFUSALS[name]
    with pytest.raises(GraphError, match=message):
        build()


def test_a_vertex_reads_its_genus_from_its_model():
    assert Vertex._fields == ("id", "model", "punctures")
    v = Vertex("u", CurveModel("elliptic", "m", 1, trace=3), 2)
    assert v.genus == 1 and v.punctures == 2
    graph = DualGraph([v], [("u", "u")], [])
    assert total_genus(graph) == 2 and graph == DualGraph((v,), (("u", "u"),), ())


def test_derived_graph_data_on_the_battery():
    expected = {
        "loop-on-genus-1": (["m"], {"m": (2, 0)}),
        "marked-genus-2": (["m"], {"m": (0, 1)}),
        "two-components-genus-2": (["u", "w"], {"u": (1, 0), "w": (1, 0)}),
        "parallel-edges-genus-1": (["u", "w"], {"u": (2, 0), "w": (2, 0)}),
        "theta": (["u", "w"], {"u": (3, 0), "w": (3, 0)}),
        "genus-2-two-marks": (["m"], {"m": (0, 2)}),
    }
    for name, graph in battery().items():
        model_ids, counts = expected[name]
        assert list(graph.models) == model_ids
        assert all(graph.models[v.model.name] == v.model for v in graph.vertices)
        assert {v.id: (graph.valence(v.id), graph.legs_at(v.id)) for v in graph.vertices} == counts
        rebuilt = pickle.loads(pickle.dumps(graph))
        assert rebuilt.models == graph.models
        assert all(rebuilt.valence(v.id) == graph.valence(v.id) for v in graph.vertices)
