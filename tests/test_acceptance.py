"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; there are no tolerances anywhere.
"""

import time

import divzeta.strata as strata
from divzeta.graph import parse_graph
from divzeta.measures import EulerCharacteristic, PointCount
from divzeta.ring import RationalFn, lefschetz, one, sym_pow, zero
from divzeta.strata import (
    divisor_class_from_strata,
    punctured_sym_class,
    stable_pair_count,
    stable_pairs,
    stratum_class,
    torus_class,
)
from divzeta.zeta import ZetaKind, zeta_series
from divzeta.graph import CurveModel

from conftest import (
    battery,
    composition_torus_sum,
    declare_weil,
    free_leaves,
    marked_curve,
    node_factor_rational,
    one_minus_t_coefficient,
    two_components,
    vertex,
    vertex_zeta_series,
)

L = lefschetz()


def report(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def battery_numerators(q):
    """A valid Weil numerator for each genus of the battery."""
    return {0: [1], 1: [1, -1, q], 2: [1, 1, 1, q, q * q]}


def battery_holds(order=6, q=None):
    """Criterion-2 check: oracle equals closed form on every battery graph."""
    for graph in battery().values():
        closed = zeta_series(ZetaKind.DIVISORIAL, graph, order, free_leaves(graph, order))
        if q is None:
            measure = None
        else:
            measure = PointCount(q)
            models = declare_weil(graph, battery_numerators(q)).models
        for degree in range(order + 1):
            oracle = divisor_class_from_strata(graph, degree)
            if measure is None:
                if oracle != closed[degree]:
                    return False
            elif measure.of_elem(oracle, models) != measure.of_elem(closed[degree], models):
                return False
    return True


def test_criterion_1_strata_counts_match_figures():
    start = time.perf_counter()
    four = stable_pair_count(marked_curve(2), 2)[2]
    seven = stable_pair_count(two_components(2), 2)[2]
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: figure strata counts (4 and 7) within 0.1 s",
        four == 4 and seven == 7 and elapsed < 0.1,
    )


def test_criterion_2_closed_form_matches_strata_oracle():
    start = time.perf_counter()
    ok = battery_holds(order=6)
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: strata oracle equals closed divisorial form, d <= 6, within 5 s",
        ok and elapsed < 5.0,
    )


def test_criterion_3_torus_classes():
    expansion = RationalFn([1, -1], [1, -L]).series(10)
    projective_line = CurveModel.projective_line("p")
    ok = all(
        torus_class(d) == L**d - L ** (d - 1)
        and torus_class(d) == expansion[d]
        and torus_class(d) == punctured_sym_class(projective_line, 2, d)
        for d in range(1, 11)
    )
    report("criterion 3: torus symmetric-power classes, d <= 10", ok)


def test_criterion_4_marked_point_factor():
    node = node_factor_rational().series(8)
    ok = all(composition_torus_sum(d) == node[d] for d in range(1, 9))
    ok = ok and composition_torus_sum(2) == L
    ok = ok and composition_torus_sum(3) == L**2 + L - 1
    report("criterion 4: composition sums equal node-factor coefficients, d <= 8", ok)


def test_criterion_5_gluing_identities_at_enumeration_level():
    # Loop versus mark-plus-puncture on a two-vertex graph.
    with_loop = parse_graph(
        {
            "vertices": [vertex("a", 1), vertex("b", 2)],
            "edges": [["a", "b"], ["a", "a"]],
        }
    )
    with_mark = parse_graph(
        {
            "vertices": [vertex("a", 1, punctures=1), vertex("b", 2)],
            "edges": [["a", "b"]],
            "legs": ["a"],
        }
    )
    loop_ok = all(
        divisor_class_from_strata(with_loop, d) == divisor_class_from_strata(with_mark, d)
        for d in range(6)
    )

    # Crossing: the oracle of a one-edge join is the convolution of the
    # oracle with an extra mark on one side and an extra puncture on the other.
    joined = two_components(2)
    left = parse_graph({"vertices": [vertex("u", 2)], "legs": ["u"]})
    right = parse_graph({"vertices": [vertex("w", 2, punctures=1)]})
    cross_ok = True
    for d in range(6):
        convolution = zero()
        for i in range(d + 1):
            convolution = convolution + divisor_class_from_strata(
                left, i
            ) * divisor_class_from_strata(right, d - i)
        cross_ok = cross_ok and convolution == divisor_class_from_strata(joined, d)
    report(
        "criterion 5: loop exchange and cross convolution at the oracle level, d <= 5",
        loop_ok and cross_ok,
    )


def test_criterion_6_euler_specialization():
    ok = True
    for graph in battery().values():
        exponent = (
            graph.num_edges
            + sum(2 * v.genus - 2 for v in graph.vertices)
            + sum(v.punctures for v in graph.vertices)
        )
        euler = EulerCharacteristic()
        series = zeta_series(ZetaKind.DIVISORIAL, graph, 10, free_leaves(graph, 10))
        image = [euler.of_elem(c, graph.models) for c in series.coefficients()]
        expected = [one_minus_t_coefficient(exponent, d) for d in range(11)]
        ok = ok and image == expected
    report("criterion 6: Euler image is (1-t)^(|E| + sum(2g-2) + punctures)", ok)


def test_criterion_7_point_count_specialization():
    line = parse_graph({"vertices": [vertex("p", 0, {"type": "p1"})]}, allow_unstable=True)
    # The closed form of a smooth unmarked line is its Kapranov zeta.
    series = zeta_series(ZetaKind.DIVISORIAL, line, 8, free_leaves(line, 8))
    ok = series == vertex_zeta_series(line.vertices[0].model, 8)
    for q in (2, 3, 5):
        measure = PointCount(q)
        counts = [measure.of_elem(c, line.models) for c in series.coefficients()]
        ok = ok and counts == [(q ** (d + 1) - 1) // (q - 1) for d in range(9)]
    elliptic = {"E": CurveModel.elliptic("E", 2)}
    ok = ok and PointCount(5).of_elem(sym_pow("E", 1), elliptic) == 4
    ok = ok and all(battery_holds(order=6, q=q) for q in (2, 3, 5))
    report("criterion 7: point counts (q in {2,3,5}) and closed-vs-oracle check under them", ok)


def test_criterion_8_smooth_unmarked_degeneration():
    graph = parse_graph({"vertices": [vertex("m", 2)]})
    leaves = free_leaves(graph, 10)
    reference = vertex_zeta_series(graph.vertices[0].model, 10)
    ok = all(zeta_series(kind, graph, 10, leaves) == reference for kind in ZetaKind)
    report("criterion 8: all three zetas are Kapranov's on a smooth unmarked curve, d <= 10", ok)


def test_criterion_9_hilbert_formula():
    graph = two_components(2)
    z_u = [one()] + [sym_pow("u", d) for d in range(1, 5)]
    z_w = [one()] + [sym_pow("w", d) for d in range(1, 5)]
    window = [one(), -one(), L]

    def convolve(a, b, degree):
        return sum(
            (a[i] * b[degree - i] for i in range(degree + 1) if i < len(a) and degree - i < len(b)),
            zero(),
        )

    product = [convolve(z_u, z_w, d) for d in range(5)]
    expected = [convolve(window, product, d) for d in range(5)]
    series = zeta_series(ZetaKind.HILBERT, graph, 4, free_leaves(graph, 4))
    ok = all(series[d] == expected[d] for d in range(5))
    report("criterion 9: Hilbert coefficients match the hand expansion, d <= 4", ok)


def test_criterion_10_mutation_sensitivity(monkeypatch):
    healthy = strata.torus_class

    def flipped_at(index):
        def mutant(m, *image):
            if m != index:
                return healthy(m, *image)
            return L ** (m + 1) - L ** (m - 1) if m else L
        return mutant

    detected = True
    for index in range(5):
        monkeypatch.setattr(strata, "torus_class", flipped_at(index))
        detected = detected and not battery_holds(order=6)
    monkeypatch.setattr(strata, "torus_class", healthy)

    # Dropping any single stable pair from a representative check.
    graph = two_components(2)
    closed = zeta_series(ZetaKind.DIVISORIAL, graph, 2, free_leaves(graph, 2))
    pairs = stable_pairs(graph, 2)
    full = divisor_class_from_strata(graph, 2)
    assert full == closed[2]
    for pair in pairs:
        detected = detected and full - stratum_class(graph, pair) != closed[2]
    report("criterion 10: every single-mutation is detected", detected)
