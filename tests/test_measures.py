"""Measure homomorphisms and integer specializations."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divzeta.graph import CurveModel, parse_graph
from divzeta.measures import (
    PRIME_POWER_LIMIT,
    EulerCharacteristic,
    MeasureError,
    PointCount,
    SymbolicIdentity,
    euler_for_graph,
    is_prime_power,
    one_minus_t_coefficient,
    point_count_for_graph,
    weil_series,
)
from divzeta.ring import RationalFn, RingElem, lefschetz, one, sym_pow, zero
from divzeta.strata import torus_class
from divzeta.zeta import (
    ZetaKind,
    leaf_images,
    rational_coefficients,
    vertex_zeta_series,
    zeta_rational,
    zeta_rational_image,
    zeta_series,
    zeta_series_image,
)

from conftest import battery, loop_vertex, vertex

L = lefschetz()


# -- weil_series (the independent expansion oracle) -----------------------------


def test_weil_series_projective_line():
    assert weil_series([1], 3, 3) == [1, 4, 13, 40]


def test_weil_series_elliptic():
    assert weil_series([1, -2, 5], 5, 1) == [1, 4]


def test_weil_series_degenerate_q():
    assert weil_series([1], 1, 4) == [1, 2, 3, 4, 5]


def test_weil_series_validation():
    with pytest.raises(ValueError):
        weil_series([2], 3, 2)
    with pytest.raises(ValueError):
        weil_series([1], 0, 2)


# -- measure construction --------------------------------------------------------


def test_point_count_requires_prime_power():
    for q in (2, 3, 4, 5, 8, 9, 27):
        assert is_prime_power(q)
        PointCount(q)
    for q in (0, 1, 6, 10, 12):
        assert not is_prime_power(q)
        with pytest.raises(ValueError):
            PointCount(q)


def trial_division_is_prime_power(value):
    if value < 2:
        return False
    probe = 2
    while probe * probe <= value:
        if value % probe == 0:
            while value % probe == 0:
                value //= probe
            return value == 1
        probe += 1
    return True


def test_prime_power_test_matches_trial_division():
    for q in range(5000):
        assert is_prime_power(q) == trial_division_is_prime_power(q), q


def test_prime_power_test_is_fast_on_large_q():
    mersenne = 2**61 - 1
    start = time.perf_counter()
    assert is_prime_power(mersenne)
    assert is_prime_power(2**61)
    assert is_prime_power((2**31 - 1) ** 2)
    assert not is_prime_power(3 * mersenne)
    assert not is_prime_power(PRIME_POWER_LIMIT - 1)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="too large"):
        is_prime_power(PRIME_POWER_LIMIT)


def test_point_count_validates_numerators():
    PointCount(5, {"e": [1, -2, 5]}, {"e": 1})
    PointCount(5, {"m": [1]}, {"m": 1})  # degree < 2g skips the equation
    with pytest.raises(ValueError, match="functional equation"):
        PointCount(5, {"e": [1, -2, 3]}, {"e": 1})
    with pytest.raises(ValueError, match="constant term"):
        PointCount(5, {"e": [2, 1, 5]}, {"e": 1})
    with pytest.raises(ValueError, match="exceeds"):
        PointCount(5, {"e": [1, 0, 0, 5]}, {"e": 1})
    with pytest.raises(ValueError, match="missing genus"):
        PointCount(5, {"e": [1, -2, 5]})


# -- generator images -------------------------------------------------------------


def test_euler_kills_torus_classes():
    euler = EulerCharacteristic({"m": 2})
    assert euler.of_elem(torus_class(0)) == 1
    for m in range(1, 6):
        assert euler.of_elem(torus_class(m)) == 0


def test_euler_class_images():
    euler = EulerCharacteristic({"g0": 0, "g1": 1, "g2": 2})
    assert [euler.class_image("g0", d) for d in range(4)] == [1, 2, 3, 4]
    assert [euler.class_image("g1", d) for d in range(4)] == [1, 0, 0, 0]
    assert [euler.class_image("g2", d) for d in range(4)] == [1, -2, 1, 0]


def test_point_count_projective_plane():
    counting = PointCount(3, {"p1": [1]}, {"p1": 0})
    assert counting.of_elem(sym_pow("p1", 2)) == 13


def test_point_count_elliptic_degree_one():
    counting = PointCount(5, {"E": [1, -2, 5]}, {"E": 1})
    assert counting.of_elem(sym_pow("E", 1)) == 4


def test_unrealized_generator_is_named():
    counting = PointCount(3)
    with pytest.raises(MeasureError, match=r"c\[mystery,2\]"):
        counting.of_elem(sym_pow("mystery", 2))
    euler = EulerCharacteristic()
    with pytest.raises(MeasureError, match=r"c\[mystery,1\]"):
        euler.of_elem(sym_pow("mystery", 1))


def test_identity_measure_passthrough():
    x = sym_pow("m", 2) * L - 3
    identity = SymbolicIdentity()
    assert identity.of_elem(x) == x


# -- homomorphism laws -------------------------------------------------------------

_GEN_POOL = [L, sym_pow("m", 1), sym_pow("m", 2), sym_pow("n", 1)]


@st.composite
def ring_elems(draw):
    total = zero()
    for _ in range(draw(st.integers(0, 4))):
        term = RingElem.from_int(draw(st.integers(-5, 5)))
        for gen in draw(st.lists(st.sampled_from(_GEN_POOL), max_size=3)):
            term = term * gen
        total = total + term
    return total


_MEASURES = [
    EulerCharacteristic({"m": 2, "n": 1}),
    PointCount(3, {"m": [1, 1, 1, 3, 9], "n": [1, -1, 3]}, {"m": 2, "n": 1}),
]


@given(ring_elems(), ring_elems())
@settings(max_examples=40, deadline=None)
def test_measures_are_ring_homomorphisms(a, b):
    for measure in _MEASURES:
        assert measure.of_elem(a * b) == measure.of_elem(a) * measure.of_elem(b)
        assert measure.of_elem(a + b) == measure.of_elem(a) + measure.of_elem(b)
        assert measure.of_elem(one()) == 1


# -- specializations of zeta series -------------------------------------------------


def test_point_count_of_p1_vertex_zeta_matches_weil_series():
    series = vertex_zeta_series(CurveModel.projective_line("p"), 0, 8)
    for q in (2, 3, 5):
        counting = PointCount(q)
        assert [counting.of_elem(c) for c in series.coefficients()] == weil_series([1], q, 8)


def test_point_count_of_symbolic_vertex_zeta_matches_weil_series():
    series = vertex_zeta_series(CurveModel.symbolic("m", 1), 0, 6)
    counting = PointCount(5, {"m": [1, -2, 5]}, {"m": 1})
    assert [counting.of_elem(c) for c in series.coefficients()] == weil_series([1, -2, 5], 5, 6)


def test_euler_image_of_divisorial_zeta_smoke():
    graph = loop_vertex(1)
    euler = euler_for_graph(graph)
    # |E| + sum(2g-2) + punctures = 1 + 0 + 0.
    series = zeta_series(ZetaKind.DIVISORIAL, graph, 6)
    image = [euler.of_elem(c) for c in series.coefficients()]
    expected = [one_minus_t_coefficient(1, d) for d in range(7)]
    assert image == expected


def test_point_count_for_graph_pulls_model_data():
    graph = parse_graph(
        {
            "vertices": [
                vertex("u", 1, {"type": "elliptic", "trace": 2}),
                vertex("w", 1, {"type": "weil", "numerator": [1, 0, 5]}),
            ],
            "edges": [["u", "w"], ["u", "w"]],
        }
    )
    counting = point_count_for_graph(graph, 5)
    assert counting.of_elem(sym_pow("u", 1)) == 5 + 1 - 2
    assert counting.of_elem(sym_pow("w", 1)) == 5 + 1
    with pytest.raises(ValueError, match="unknown model"):
        point_count_for_graph(graph, 5, {"nope": [1]})


def test_point_count_for_graph_leaves_uncovered_models_unrealized():
    graph = loop_vertex(1)
    counting = point_count_for_graph(graph, 3)
    with pytest.raises(MeasureError, match=r"c\[m,1\]"):
        counting.of_elem(sym_pow("m", 1))
    covered = point_count_for_graph(graph, 3, {"m": [1, -1, 3]})
    assert covered.of_elem(sym_pow("m", 1)) == 3


def test_one_minus_t_coefficient():
    assert [one_minus_t_coefficient(2, d) for d in range(4)] == [1, -2, 1, 0]
    assert [one_minus_t_coefficient(0, d) for d in range(3)] == [1, 0, 0]
    assert [one_minus_t_coefficient(-1, d) for d in range(4)] == [1, 1, 1, 1]
    assert [one_minus_t_coefficient(-2, d) for d in range(4)] == [1, 2, 3, 4]


# -- the measure applied to the leaves vs. to the symbolic result ------------------


def _differential_graphs():
    graphs = battery()
    graphs["chain4-elliptic"] = parse_graph(
        {
            "vertices": [
                vertex(name, 1, {"type": "elliptic", "trace": trace})
                for name, trace in zip("abcd", (1, -3, 0, 4))
            ],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
        }
    )
    graphs["p1-punctured"] = parse_graph(
        {
            "vertices": [
                vertex("u", 0, {"type": "p1"}, punctures=1),
                vertex("w", 1, {"type": "elliptic", "trace": 2}),
            ],
            "edges": [["u", "w"]] * 3,
            "legs": ["w"],
        }
    )
    return graphs


_DIFFERENTIAL_GRAPHS = _differential_graphs()

# Weil numerators at q = 5 for the battery's symbolic models, by genus.  The
# short genus-2 numerator has degree below 2g, so the image of the symbolic
# rational numerator ends in zeros.
_NUMERATOR_SETS = (
    {0: [1], 1: [1, -2, 5], 2: [1, -1]},
    {0: [1], 1: [1, 4, 5], 2: [1, 1, 1, 5, 25]},
)


def _integer_measures(graph):
    symbolic = {v.model.name: v.genus for v in graph.vertices if v.model.kind == "symbolic"}
    yield euler_for_graph(graph)
    for numerators in _NUMERATOR_SETS:
        extra = {name: numerators[genus] for name, genus in symbolic.items()}
        yield point_count_for_graph(graph, 5, extra)


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_GRAPHS))
def test_measure_applied_early_equals_applied_late(name):
    graph = _DIFFERENTIAL_GRAPHS[name]
    order = 6
    measures = list(_integer_measures(graph))
    leaves = [leaf_images(graph, measure, order) for measure in measures]
    for kind in ZetaKind:
        series = zeta_series(kind, graph, order)
        fn = zeta_rational(kind, graph)
        # Symbolic factors never lose degree, so no padding applies.
        assert rational_coefficients(kind, graph, fn) == (
            list(fn.numerator.coefficients()),
            list(fn.denominator.coefficients()),
        )
        for measure, images in zip(measures, leaves):
            early = zeta_series_image(kind, graph, order, images).coefficients()
            assert all(type(c) is int for c in early)
            late = [measure.of_elem(c) for c in series.coefficients()]
            assert list(early) == late, (kind, measure.name)
            early_fn = zeta_rational_image(kind, graph, images)
            assert rational_coefficients(kind, graph, early_fn) == (
                [measure.of_elem(c) for c in fn.numerator.coefficients()],
                [measure.of_elem(c) for c in fn.denominator.coefficients()],
            ), (kind, measure.name)


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_GRAPHS))
def test_printed_rational_form_expands_to_the_printed_series(name):
    # The two targets share the graph scalar and differ in the vertex
    # factors.  Under a measure realizing every model through a Weil
    # numerator of degree at most 2g they agree at every order; in free
    # generators, through t^(2g) of the lowest-genus curve vertex.
    graph = _DIFFERENTIAL_GRAPHS[name]
    order = 12
    exact = min((2 * v.genus for v in graph.vertices if v.model.kind != "p1"), default=order)
    for kind in ZetaKind:
        for measure in _integer_measures(graph):
            leaves = leaf_images(graph, measure, order)
            fn = zeta_rational_image(kind, graph, leaves)
            expansion = RationalFn(*rational_coefficients(kind, graph, fn)).series(order)
            assert expansion == zeta_series_image(kind, graph, order, leaves), (kind, measure.name)
        fn = zeta_rational(kind, graph)
        expansion = RationalFn(*rational_coefficients(kind, graph, fn)).series(exact)
        assert expansion == zeta_series(kind, graph, exact), kind


def test_class_series_matches_class_images():
    counting = PointCount(5, {"m": [1, -1], "e": [1, -2, 5]}, {"m": 2, "e": 1})
    euler = EulerCharacteristic({"m": 2, "e": 1})
    for measure in (counting, euler):
        for model in ("m", "e"):
            assert measure.class_series(model, 6) == [1] + [
                measure.class_image(model, d) for d in range(1, 7)
            ]
    assert SymbolicIdentity().class_series("m", 2) == [one(), sym_pow("m", 1), sym_pow("m", 2)]
    # c[m,0] is the unit, so degree 0 needs no realization.
    assert PointCount(3).class_series("mystery", 0) == [1]
    with pytest.raises(MeasureError, match=r"c\[mystery,1\]"):
        PointCount(3).class_series("mystery", 2)
    with pytest.raises(MeasureError, match=r"c\[mystery,1\]"):
        EulerCharacteristic().class_series("mystery", 2)
