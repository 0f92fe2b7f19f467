"""Closed-form zeta constructors and their algebraic identities."""

import pytest

from divzeta.graph import CurveModel, parse_graph
from divzeta.ring import RationalFn, TruncSeries, lefschetz, one, sym_pow
from divzeta.zeta import (
    ZetaKind,
    node_factor_rational,
    vertex_zeta_series,
    zeta_rational,
    zeta_series,
)

from conftest import loop_vertex, marked_curve, two_components, vertex

L = lefschetz()


def c(model, degree):
    return sym_pow(model, degree)


def convolve(a, b, degree):
    """Independent Cauchy product on plain coefficient lists."""
    return sum((a[i] * b[degree - i] for i in range(degree + 1)), one() * 0)


# -- vertex zetas ---------------------------------------------------------------


def test_p1_with_two_punctures_is_torus_zeta():
    series = vertex_zeta_series(CurveModel.projective_line("p"), 2, 3)
    expected = RationalFn([1, -1], [1, -L]).series(3)
    assert series == expected


def test_p1_zeta_counts_projective_spaces():
    series = vertex_zeta_series(CurveModel.projective_line("p"), 0, 3)
    assert series[2] == L**2 + L + 1
    assert series[3] == L**3 + L**2 + L + 1


def test_symbolic_vertex_zeta():
    series = vertex_zeta_series(CurveModel.symbolic("m", 3), 0, 2)
    assert series == TruncSeries([1, c("m", 1), c("m", 2)])


def test_symbolic_vertex_with_puncture():
    # Cauchy product with (1-t), coefficients checked against a direct
    # convolution of the coefficient lists.
    series = vertex_zeta_series(CurveModel.symbolic("m", 3), 1, 2)
    plain = [one(), c("m", 1), c("m", 2)]
    window = [one(), -one(), one() * 0]
    for d in range(3):
        assert series[d] == convolve(plain, window, d)
    assert series[1] == c("m", 1) - 1
    assert series[2] == c("m", 2) - c("m", 1)


def test_elliptic_vertex_stays_symbolic():
    series = vertex_zeta_series(CurveModel.elliptic("e", 2), 0, 2)
    assert series == TruncSeries([1, c("e", 1), c("e", 2)])


# -- node factor ------------------------------------------------------------------


def test_node_factor_series_values():
    series = node_factor_rational().series(3)
    assert series[0] == one()
    assert series[2] == L
    assert series[3] == L**2 + L - 1


def test_node_factor_rational_shape():
    fn = node_factor_rational()
    assert fn.numerator == (one(), -L)
    assert fn.denominator == (one(), -(L + 1), one())


# -- closed forms -----------------------------------------------------------------


def test_smooth_unmarked_vertex_equals_vertex_zeta():
    graph = parse_graph({"vertices": [vertex("m", 2)]})
    expected = vertex_zeta_series(CurveModel.symbolic("m", 2), 0, 10)
    for kind in ZetaKind:
        assert zeta_series(kind, graph, 10) == expected


def test_divisorial_loop_first_coefficient():
    # node_factor*(1-t)^2*Z at order 1: 1 - 2 + c[m,1].
    series = zeta_series(ZetaKind.DIVISORIAL, loop_vertex(1), 1)
    assert series[1] == c("m", 1) - 1


def test_divisorial_marked_first_coefficient():
    series = zeta_series(ZetaKind.DIVISORIAL, marked_curve(2), 1)
    assert series[1] == c("m", 1)


def test_hilbert_no_edges_is_vertex_product():
    graph = marked_curve(2)  # legs must be ignored
    assert zeta_series(ZetaKind.HILBERT, graph, 4) == vertex_zeta_series(
        CurveModel.symbolic("m", 2), 0, 4
    )


def test_hilbert_two_components_coefficient():
    # (1 - t + L t^2) * Z_u * Z_w at t^2, expanded by hand.
    series = zeta_series(ZetaKind.HILBERT, two_components(2), 2)
    expected = (
        c("u", 2) + c("u", 1) * c("w", 1) + c("w", 2) - c("u", 1) - c("w", 1) + L
    )
    assert series[2] == expected


def test_hilbert_loop_coefficient():
    series = zeta_series(ZetaKind.HILBERT, loop_vertex(1), 1)
    assert series[1] == c("m", 1) - 1


def test_nodal_loop_coefficient():
    series = zeta_series(ZetaKind.KAPRANOV_NODAL, loop_vertex(1), 1)
    assert series[1] == c("m", 1) - 1


def test_divisorial_to_nodal_ratio():
    # divisorial = nodal * node_factor^(|E|+n) * (1-t)^(|E|+n).
    order = 6
    for graph in (loop_vertex(1), marked_curve(2), two_components(2)):
        scale = graph.num_edges + graph.num_legs
        expected = (
            zeta_series(ZetaKind.KAPRANOV_NODAL, graph, order)
            * node_factor_rational().series(order) ** scale
            * TruncSeries.from_coeffs([1, -1], order) ** scale
        )
        assert zeta_series(ZetaKind.DIVISORIAL, graph, order) == expected


def test_unit_constant_terms():
    for graph in (loop_vertex(1), marked_curve(2), two_components(2)):
        for kind in ZetaKind:
            assert zeta_series(kind, graph, 4)[0] == one()


# -- gluing and closing identities ---------------------------------------------


def test_multiplicativity_across_separating_edge():
    order = 8
    joined = two_components(2)
    left = parse_graph({"vertices": [vertex("u", 2)], "legs": ["u"]})
    right = parse_graph({"vertices": [vertex("w", 2, punctures=1)]})
    assert zeta_series(ZetaKind.DIVISORIAL, joined, order) == zeta_series(
        ZetaKind.DIVISORIAL, left, order
    ) * zeta_series(ZetaKind.DIVISORIAL, right, order)


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
    assert zeta_series(ZetaKind.DIVISORIAL, with_loop, order) == zeta_series(
        ZetaKind.DIVISORIAL, with_mark, order
    )
    base = parse_graph(
        {"vertices": [vertex("m", 1), vertex("o", 2)], "edges": [["m", "o"]]}
    )
    one_minus_t = TruncSeries.from_coeffs([1, -1], order)
    factor = node_factor_rational().series(order) * one_minus_t**2
    assert zeta_series(ZetaKind.DIVISORIAL, with_loop, order) == (
        zeta_series(ZetaKind.DIVISORIAL, base, order) * factor
    )


def test_puncture_multiplies_by_one_minus_t():
    order = 6
    plain = parse_graph({"vertices": [vertex("m", 2)]})
    punctured = parse_graph({"vertices": [vertex("m", 2, punctures=1)]})
    assert zeta_series(ZetaKind.DIVISORIAL, punctured, order) == zeta_series(
        ZetaKind.DIVISORIAL, plain, order
    ) * TruncSeries.from_coeffs([1, -1], order)


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
    assert zeta_rational(ZetaKind.DIVISORIAL, graph).series(order) == zeta_series(
        ZetaKind.DIVISORIAL, graph, order
    )


def test_rational_matches_series_through_twice_genus():
    graph = parse_graph({"vertices": [vertex("m", 2)]})
    expansion = zeta_rational(ZetaKind.DIVISORIAL, graph).series(4)
    series = zeta_series(ZetaKind.DIVISORIAL, graph, 4)
    for d in range(5):
        assert expansion[d] == series[d]


def test_rational_is_unreduced_product():
    graph = marked_curve(2)
    fn = zeta_rational(ZetaKind.DIVISORIAL, graph)
    # |E| = 0, n = 1: numerator carries (1 - L t) * (1 - t) * Q(t).
    assert len(fn.denominator) - 1 == 2 + 2  # node denominator * (1-t)(1-Lt)
    assert fn == RationalFn(fn.numerator, fn.denominator)


def test_divisorial_equals_smooth_kapranov_on_smooth_unmarked_curves():
    # The paper: on a smooth unmarked curve the divisorial zeta function is
    # Kapranov's, as a series and as a rational function.
    for genus, model in ((2, None), (1, {"type": "elliptic", "trace": 3}), (0, {"type": "p1"})):
        graph = parse_graph({"vertices": [vertex("m", genus, model)]}, allow_unstable=True)
        divisorial = zeta_rational(ZetaKind.DIVISORIAL, graph)
        kapranov = zeta_rational(ZetaKind.KAPRANOV_SMOOTH, graph)
        assert divisorial == kapranov
        assert divisorial.numerator == kapranov.numerator
        assert divisorial.denominator == kapranov.denominator
        assert zeta_series(ZetaKind.DIVISORIAL, graph, 8) == zeta_series(
            ZetaKind.KAPRANOV_SMOOTH, graph, 8
        )


def test_smooth_zeta_is_vertex_product():
    graph = two_components(2)
    order = 3
    series = zeta_series(ZetaKind.KAPRANOV_SMOOTH, graph, order)
    expected = vertex_zeta_series(
        CurveModel.symbolic("u", 2), 0, order
    ) * vertex_zeta_series(CurveModel.symbolic("w", 2), 0, order)
    assert series == expected
