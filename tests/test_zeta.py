"""Closed-form zeta constructors and their algebraic identities."""

import math

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divzeta.graph import CurveModel, DualGraph, GraphError, Vertex, parse_graph, total_genus
from divzeta.measures import EulerCharacteristic, PointCount, SymbolicIdentity, leaf_images
from divzeta.ring import RationalFn, TruncSeries, lefschetz, one, sym_pow
from divzeta.zeta import ZetaKind, _graph_scalar, zeta_rational, zeta_series

from conftest import (
    free_leaves,
    loop_vertex,
    marked_curve,
    node_factor_rational,
    two_components,
    vertex,
    vertex_zeta_series,
)

L = lefschetz()


def c(model, degree):
    return sym_pow(model, degree)


def convolve(a, b, degree):
    """Independent Cauchy product on plain coefficient lists."""
    return sum((a[i] * b[degree - i] for i in range(degree + 1)), one() * 0)


# -- vertex zetas ---------------------------------------------------------------


def one_vertex_zeta(model, punctures, order):
    """The closed form of one component with ``punctures`` punctures and no
    edges or legs: its Kapranov zeta times ``(1-t)^punctures``."""
    graph = DualGraph((Vertex(model.name, model, punctures),), (), ())
    series = zeta_series(ZetaKind.DIVISORIAL, graph, order, free_leaves(graph, order))
    assert series == vertex_zeta_series(model, order) * one_minus_t(order) ** punctures
    return series


def one_minus_t(order):
    return RationalFn([1, -1]).series(order)


def test_p1_with_two_punctures_is_torus_zeta():
    series = one_vertex_zeta(CurveModel("p1", "p", 0), 2, 3)
    expected = RationalFn([1, -1], [1, -L]).series(3)
    assert series == expected


def test_p1_zeta_counts_projective_spaces():
    series = one_vertex_zeta(CurveModel("p1", "p", 0), 0, 3)
    assert series[2] == L**2 + L + 1
    assert series[3] == L**3 + L**2 + L + 1


def test_symbolic_vertex_zeta():
    series = one_vertex_zeta(CurveModel("symbolic", "m", 3), 0, 2)
    assert series == TruncSeries([1, c("m", 1), c("m", 2)])


def test_symbolic_vertex_with_puncture():
    # Cauchy product with (1-t), coefficients checked against a direct
    # convolution of the coefficient lists.
    series = one_vertex_zeta(CurveModel("symbolic", "m", 3), 1, 2)
    plain = [one(), c("m", 1), c("m", 2)]
    window = [one(), -one(), one() * 0]
    for d in range(3):
        assert series[d] == convolve(plain, window, d)
    assert series[1] == c("m", 1) - 1
    assert series[2] == c("m", 2) - c("m", 1)


def test_elliptic_vertex_stays_symbolic():
    series = one_vertex_zeta(CurveModel("elliptic", "e", 1, trace=2), 0, 2)
    assert series == TruncSeries([1, c("e", 1), c("e", 2)])



# -- node factor ------------------------------------------------------------------


def test_node_factor_series_values():
    series = node_factor_rational().series(3)
    assert series[0] == one()
    assert series[2] == L
    assert series[3] == L**2 + L - 1


def test_node_factor_rational_shape():
    # One leg and no node: the divisorial scalar is the node factor times
    # (1-t), multiplied into its numerator only.
    fn = _graph_scalar(ZetaKind.DIVISORIAL, marked_curve(2), free_leaves(marked_curve(2)))
    assert fn == node_factor_rational() * RationalFn([1, -1])
    assert fn.numerator == (one(), -(L + 1), L)
    assert fn.denominator == (one(), -(L + 1), one())


# -- closed forms -----------------------------------------------------------------


def test_smooth_unmarked_vertex_equals_vertex_zeta():
    graph = parse_graph({"vertices": [vertex("m", 2)]})
    expected = vertex_zeta_series(CurveModel("symbolic", "m", 2), 10)
    for kind in ZetaKind:
        assert zeta_series(kind, graph, 10, free_leaves(graph, 10)) == expected


def test_divisorial_loop_first_coefficient():
    # node_factor*(1-t)^2*Z at order 1: 1 - 2 + c[m,1].
    graph = loop_vertex(1)
    series = zeta_series(ZetaKind.DIVISORIAL, graph, 1, free_leaves(graph, 1))
    assert series[1] == c("m", 1) - 1


def test_divisorial_marked_first_coefficient():
    graph = marked_curve(2)
    series = zeta_series(ZetaKind.DIVISORIAL, graph, 1, free_leaves(graph, 1))
    assert series[1] == c("m", 1)


def test_hilbert_no_edges_is_vertex_product():
    graph = marked_curve(2)  # legs must be ignored
    expected = vertex_zeta_series(CurveModel("symbolic", "m", 2), 4)
    assert zeta_series(ZetaKind.HILBERT, graph, 4, free_leaves(graph, 4)) == expected


def test_hilbert_two_components_coefficient():
    # (1 - t + L t^2) * Z_u * Z_w at t^2, expanded by hand.
    graph = two_components(2)
    series = zeta_series(ZetaKind.HILBERT, graph, 2, free_leaves(graph, 2))
    expected = (
        c("u", 2) + c("u", 1) * c("w", 1) + c("w", 2) - c("u", 1) - c("w", 1) + L
    )
    assert series[2] == expected


def test_hilbert_loop_coefficient():
    graph = loop_vertex(1)
    series = zeta_series(ZetaKind.HILBERT, graph, 1, free_leaves(graph, 1))
    assert series[1] == c("m", 1) - 1


def test_nodal_loop_coefficient():
    graph = loop_vertex(1)
    series = zeta_series(ZetaKind.KAPRANOV_NODAL, graph, 1, free_leaves(graph, 1))
    assert series[1] == c("m", 1) - 1


def test_divisorial_to_nodal_ratio():
    # divisorial = nodal * node_factor^(|E|+n) * (1-t)^(|E|+n).
    order = 6
    for graph in (loop_vertex(1), marked_curve(2), two_components(2)):
        scale, leaves = graph.num_edges + graph.num_legs, free_leaves(graph, order)
        expected = (
            zeta_series(ZetaKind.KAPRANOV_NODAL, graph, order, leaves)
            * node_factor_rational().series(order) ** scale
            * RationalFn([1, -1]).series(order) ** scale
        )
        assert zeta_series(ZetaKind.DIVISORIAL, graph, order, leaves) == expected


def test_unit_constant_terms():
    for graph in (loop_vertex(1), marked_curve(2), two_components(2)):
        for kind in ZetaKind:
            assert zeta_series(kind, graph, 4, free_leaves(graph, 4))[0] == one()


# -- gluing and closing identities ---------------------------------------------


def test_multiplicativity_across_separating_edge():
    order = 8
    joined = two_components(2)
    left = parse_graph({"vertices": [vertex("u", 2)], "legs": ["u"]})
    right = parse_graph({"vertices": [vertex("w", 2, punctures=1)]})
    divisorial = {
        name: zeta_series(ZetaKind.DIVISORIAL, graph, order, free_leaves(graph, order))
        for name, graph in (("joined", joined), ("left", left), ("right", right))
    }
    assert divisorial["joined"] == divisorial["left"] * divisorial["right"]


def test_loop_and_mark_puncture_exchange():
    order = 8
    with_loop = parse_graph(
        {"vertices": [vertex("m", 1), vertex("o", 2)], "edges": [["m", "o"], ["m", "m"]]}
    )
    with_mark = parse_graph(
        {
            "vertices": [vertex("m", 1, punctures=1), vertex("o", 2)],
            "edges": [["m", "o"]],
            "legs": ["m"],
        }
    )
    base = parse_graph(
        {"vertices": [vertex("m", 1), vertex("o", 2)], "edges": [["m", "o"]]}
    )
    loop, mark, plain = (
        zeta_series(ZetaKind.DIVISORIAL, graph, order, free_leaves(graph, order))
        for graph in (with_loop, with_mark, base)
    )
    assert loop == mark
    one_minus_t = RationalFn([1, -1]).series(order)
    factor = node_factor_rational().series(order) * one_minus_t**2
    assert loop == plain * factor


def test_puncture_multiplies_by_one_minus_t():
    order = 6
    plain = parse_graph({"vertices": [vertex("m", 2)]})
    punctured = parse_graph({"vertices": [vertex("m", 2, punctures=1)]})
    before, after = (
        zeta_series(ZetaKind.DIVISORIAL, graph, order, free_leaves(graph, order))
        for graph in (plain, punctured)
    )
    assert after == before * RationalFn([1, -1]).series(order)


# -- rational forms -----------------------------------------------------------------


def test_rational_matches_series_for_concrete_models():
    # All vertices are projective lines, so the rational form is exact.
    graph = parse_graph(
        {
            "vertices": [
                vertex("u", 0, {"type": "p1"}),
                vertex("w", 0, {"type": "p1"}),
            ],
            "edges": [["u", "w"], ["u", "w"], ["u", "w"]],
        }
    )
    order = 8
    leaves = free_leaves(graph, order)
    assert zeta_rational(ZetaKind.DIVISORIAL, graph, leaves).series(order) == zeta_series(
        ZetaKind.DIVISORIAL, graph, order, leaves
    )


def test_rational_matches_series_through_twice_genus():
    graph = parse_graph({"vertices": [vertex("m", 2)]})
    leaves = free_leaves(graph, 4)
    expansion = zeta_rational(ZetaKind.DIVISORIAL, graph, leaves).series(4)
    series = zeta_series(ZetaKind.DIVISORIAL, graph, 4, leaves)
    for d in range(5):
        assert expansion[d] == series[d]


def test_rational_is_unreduced_product():
    graph = marked_curve(2)
    fn = zeta_rational(ZetaKind.DIVISORIAL, graph, free_leaves(graph))
    # |E| = 0, n = 1: numerator carries (1 - L t) * (1 - t) * Q(t).
    assert len(fn.denominator) - 1 == 2 + 2  # node denominator * (1-t)(1-Lt)
    assert fn == RationalFn(fn.numerator, fn.denominator)


def test_divisorial_equals_smooth_kapranov_on_smooth_unmarked_curves():
    # The paper: on a smooth unmarked curve the divisorial zeta function is
    # Kapranov's, as a series and as a rational function: the component's
    # numerator over (1-t)(1-L t), with no graph scalar.
    for genus, model in ((2, None), (1, {"type": "elliptic", "trace": 3}), (0, {"type": "p1"})):
        graph = parse_graph({"vertices": [vertex("m", genus, model)]}, allow_unstable=True)
        leaves = free_leaves(graph, 8)
        kapranov = vertex_zeta_series(graph.vertices[0].model, 8)
        assert zeta_series(ZetaKind.DIVISORIAL, graph, 8, leaves) == kapranov
        divisorial = zeta_rational(ZetaKind.DIVISORIAL, graph, leaves)
        assert len(divisorial.numerator) == 2 * genus + 1
        assert divisorial.denominator == (one(), -(L + 1), L)
        # Free generators satisfy the curve recurrence only through t^2g; a
        # projective line's classes are concrete and satisfy it at every order.
        through = slice(9 if genus == 0 else 2 * genus + 1)
        assert divisorial.series(8).coefficients()[through] == kapranov.coefficients()[through]


def test_smooth_zeta_is_vertex_product():
    # Each kind multiplies its graph scalar into the product over the vertices
    # of their Kapranov zetas, each times (1-t) per puncture; the nodal
    # scalar of one node is (1-t).
    graph = parse_graph(
        {"vertices": [vertex("u", 2, punctures=1), vertex("w", 1)], "edges": [["u", "w"]]}
    )
    order = 4
    series = zeta_series(ZetaKind.KAPRANOV_NODAL, graph, order, free_leaves(graph, order))
    expected = one_minus_t(order) ** graph.num_edges
    for v in graph.vertices:
        expected *= vertex_zeta_series(v.model, order) * one_minus_t(order) ** v.punctures
    assert series == expected


# Prime powers from 2 to 27: the fields a point count is drawn over.
_FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)


@st.composite
def smooth_curves(draw, q):
    """One component of any model kind, realizable over a field with ``q``
    elements unless symbolic, with 0-3 punctures, no edges and no legs."""
    kind = draw(st.sampled_from(("symbolic", "p1", "elliptic", "weil")))
    bound = math.isqrt(4 * q)
    if kind == "symbolic":
        model = CurveModel("symbolic", "m", draw(st.integers(0, 3)))
    elif kind == "p1":
        model = CurveModel("p1", "m", 0)
    elif kind == "elliptic":
        model = CurveModel("elliptic", "m", 1, trace=draw(st.integers(-bound, bound)))
    else:
        genus = draw(st.integers(1, 3))
        if draw(st.booleans()):
            # Full degree 2g: the functional equation fixes the top half, and
            # in genus 1 the Hasse bound holds the middle coefficient.
            low = [1] + draw(st.lists(st.integers(-bound, bound), min_size=genus, max_size=genus))
            numerator = low + [low[j] * q ** (genus - j) for j in reversed(range(genus))]
        else:
            numerator = [1] + draw(st.lists(st.integers(-3, 3), max_size=2 * genus - 1))
        model = CurveModel("weil", "m", genus, numerator=numerator)
    return DualGraph((Vertex("m", model, draw(st.integers(0, 3))),), (), ())


@given(st.sampled_from(_FIELD_SIZES), st.data())
@settings(max_examples=60, deadline=None)
def test_smooth_unmarked_closed_forms_are_kapranov_times_punctures(q, data):
    # The paper's degeneration: without nodes or marks the divisorial zeta is
    # the component's Kapranov zeta, times (1-t) per puncture, in every ring.
    graph = data.draw(smooth_curves(q))
    (v,) = graph.vertices
    order = 10
    reference = vertex_zeta_series(v.model, order) * one_minus_t(order) ** v.punctures
    measures = [SymbolicIdentity(), EulerCharacteristic()]
    if v.model.kind != "symbolic":
        measures.append(PointCount(q))
    for measure in measures:
        expected = [measure.of_elem(c, graph.models) for c in reference.coefficients()]
        leaves = leaf_images(graph, measure, order)
        series = zeta_series(ZetaKind.DIVISORIAL, graph, order, leaves)
        assert list(series.coefficients()) == expected
        # Free generators satisfy the curve recurrence only through t^2g.
        free = isinstance(measure, SymbolicIdentity) and v.model.kind != "p1"
        exact = min(order, 2 * v.genus) if free else order
        expansion = zeta_rational(ZetaKind.DIVISORIAL, graph, leaves).series(order)
        assert list(expansion.coefficients())[: exact + 1] == expected[: exact + 1]


def test_leaves_reach_the_order_and_twice_the_genus():
    graph = parse_graph(
        {"vertices": [vertex("u", 2), vertex("w", 0, {"type": "p1"})], "edges": [["u", "w"]] * 3}
    )
    for order, lengths in ((0, (5, 1)), (3, (5, 4)), (7, (8, 8))):
        leaves = leaf_images(graph, EulerCharacteristic(), order)
        assert tuple(map(len, leaves.classes.values())) == lengths


# -- Macdonald's formula under the Euler characteristic ----------------------------


@st.composite
def punctured_graphs(draw, kinds=("p1", "elliptic", "symbolic"), max_punctures=2, max_trace=2):
    """1-3 vertices on a path, with loops, multi-edges, legs and punctures,
    each a projective line, an elliptic curve (``|trace| <= max_trace``) or
    a symbolic curve, as ``kinds`` allows."""
    ids = ["u", "v", "w"][: draw(st.integers(1, 3))]
    vertices = []
    for vid in ids:
        kind = draw(st.sampled_from(kinds))
        genus = {"p1": 0, "elliptic": 1}.get(kind, draw(st.integers(0, 2)))
        model = {"type": kind}
        if kind == "elliptic":
            model["trace"] = draw(st.integers(-max_trace, max_trace))
        vertices.append(vertex(vid, genus, model, draw(st.integers(0, max_punctures))))
    ends = st.sampled_from(ids)
    extra = draw(st.lists(st.tuples(ends, ends).map(list), max_size=2))
    document = {
        "vertices": vertices,
        "edges": [list(pair) for pair in zip(ids, ids[1:])] + extra,
        "legs": draw(st.lists(ends, max_size=2)),
    }
    try:
        return parse_graph(document, allow_unstable=True)
    except GraphError:
        assume(False)


@given(punctured_graphs())
@settings(max_examples=100, deadline=None)
def test_euler_image_is_macdonald_formula(graph):
    # Macdonald: sum_d chi(Sym^d C) t^d = (1-t)^(-chi(C)) for the nodal curve
    # with its punctures removed, chi(C) = sum_v (2 - 2g_v - p_v) - |E|.  The
    # divisorial and nodal Kapranov zetas both reach it; legs cancel.
    chi = sum(2 - 2 * v.genus - v.punctures for v in graph.vertices) - graph.num_edges
    one_minus_t = RationalFn([1, -1], [1])
    expected = one_minus_t**-chi if chi <= 0 else RationalFn([1], [1, -1]) ** chi
    leaves = leaf_images(graph, EulerCharacteristic(), 0)
    for kind in (ZetaKind.DIVISORIAL, ZetaKind.KAPRANOV_NODAL):
        assert zeta_rational(kind, graph, leaves) == expected


# -- the functional equation of the Hilbert zeta under point counting ----------------

_t = sympy.Symbol("t")


def _as_sympy(fn):
    """An integer ``RationalFn`` as a sympy rational function of ``t``."""
    numerator = sum(c * _t**i for i, c in enumerate(fn.numerator))
    return numerator / sum(c * _t**i for i, c in enumerate(fn.denominator))


@given(st.sampled_from([2, 3, 4, 5, 7, 9]), st.data())
@settings(max_examples=60, deadline=None)
def test_hilbert_zeta_satisfies_the_functional_equation(q, data):
    # Over F_q the Hilbert zeta of a nodal curve of arithmetic genus g_a
    # without punctures satisfies Z(1/(qt)) = q^(1-g_a) t^(2-2g_a) Z(t): each
    # component's zeta does with its own genus, and each node's factor
    # 1 - t + q t^2 goes to itself over q t^2.
    graph = data.draw(punctured_graphs(("p1", "elliptic"), 0, math.isqrt(4 * q)))
    leaves = leaf_images(graph, PointCount(q), 0)
    zeta = _as_sympy(zeta_rational(ZetaKind.HILBERT, graph, leaves))
    genus = total_genus(graph)
    dual = zeta.subs(_t, 1 / (q * _t))
    scale = sympy.Integer(q) ** (1 - genus) * _t ** (2 - 2 * genus)
    assert sympy.cancel(dual - scale * zeta) == 0
