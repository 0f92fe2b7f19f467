"""Measure homomorphisms and integer specializations."""

import itertools
import time
from fractions import Fraction

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
    point_count_for_graph,
)
from divzeta.ring import RingElem, TruncSeries, lefschetz, one, sym_pow, zero
from divzeta.strata import torus_class
from divzeta.zeta import (
    ZetaKind,
    leaf_images,
    vertex_zeta_series,
    zeta_rational,
    zeta_series,
)

from conftest import (
    battery,
    declare_weil,
    free_leaves,
    loop_vertex,
    one_minus_t_coefficient,
    vertex,
    weil_series,
)

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
    assert euler.class_series("g0", 3) == [1, 2, 3, 4]
    assert euler.class_series("g1", 3) == [1, 0, 0, 0]
    assert euler.class_series("g2", 3) == [1, -2, 1, 0]


def test_point_count_projective_plane():
    counting = PointCount(3, {"p1": [1]}, {"p1": 0})
    assert counting.of_elem(sym_pow("p1", 2)) == 13


def test_point_count_elliptic_degree_one():
    counting = PointCount(5, {"E": [1, -2, 5]}, {"E": 1})
    assert counting.of_elem(sym_pow("E", 1)) == 4


def test_unrealized_generator_is_named():
    # A model is realized as a whole, so the first generator past the unit
    # is named whichever degree was asked for.
    counting = PointCount(3)
    with pytest.raises(MeasureError, match=r"c\[mystery,1\]"):
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
    series = zeta_series(ZetaKind.DIVISORIAL, graph, 6, free_leaves(graph, 6))
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


def test_point_count_for_graph_leaves_uncovered_models_unrealized():
    graph = loop_vertex(1)
    counting = point_count_for_graph(graph, 3)
    with pytest.raises(MeasureError, match=r"c\[m,1\]"):
        counting.of_elem(sym_pow("m", 1))
    declared = point_count_for_graph(declare_weil(graph, {1: [1, -1, 3]}), 3)
    assert declared.of_elem(sym_pow("m", 1)) == 3


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
    yield euler_for_graph(graph)
    for numerators in _NUMERATOR_SETS:
        yield point_count_for_graph(declare_weil(graph, numerators), 5)


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_GRAPHS))
def test_measure_applied_early_equals_applied_late(name):
    graph = _DIFFERENTIAL_GRAPHS[name]
    order = 6
    measures = list(_integer_measures(graph))
    leaves = [leaf_images(graph, measure, order) for measure in measures]
    free = free_leaves(graph, order)
    zero_leads = set()
    for kind in ZetaKind:
        series = zeta_series(kind, graph, order, free)
        fn = zeta_rational(kind, graph, free)
        # Symbolic factors never lose degree.
        assert fn.numerator[-1] != 0 and fn.denominator[-1] != 0
        for measure, images in zip(measures, leaves):
            early = zeta_series(kind, graph, order, images).coefficients()
            assert all(type(c) is int for c in early)
            late = [measure.of_elem(c) for c in series.coefficients()]
            assert list(early) == late, (kind, measure.name)
            # Side by side at the symbolic lengths, zero leading coefficients too.
            early_fn = zeta_rational(kind, graph, images)
            assert early_fn.numerator == tuple(map(measure.of_elem, fn.numerator))
            assert early_fn.denominator == tuple(map(measure.of_elem, fn.denominator))
            if early_fn.numerator[-1] == 0:
                zero_leads.add(kind)
    # The short genus-2 numerator sends the leading coefficient to zero.
    short = any(v.genus == 2 and v.model.kind == "symbolic" for v in graph.vertices)
    assert zero_leads == (set(ZetaKind) if short else set())


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_GRAPHS))
def test_printed_rational_form_expands_to_the_printed_series(name):
    # The two builders share the graph scalar and differ in the vertex
    # factors.  Under a measure realizing every model through a Weil
    # numerator of degree at most 2g they agree at every order, so measured
    # compute prints the rational form's expansion; in free generators they
    # agree through t^(2g) of the lowest-genus curve vertex.
    graph = _DIFFERENTIAL_GRAPHS[name]
    order = 40
    exact = min((2 * v.genus for v in graph.vertices if v.model.kind != "p1"), default=order)
    for kind in ZetaKind:
        for measure in _integer_measures(graph):
            leaves = leaf_images(graph, measure, order)
            expansion = zeta_rational(kind, graph, leaves).series(order)
            assert expansion == zeta_series(kind, graph, order, leaves), (kind, measure.name)
        free = free_leaves(graph, exact)
        expansion = zeta_rational(kind, graph, free).series(exact)
        assert expansion == zeta_series(kind, graph, exact, free), kind


def _weil_coefficient(numerator, q, degree):
    """``[t^degree] P(t)/((1-t)(1-qt))`` alone, for q >= 2: ``1/((1-t)(1-qt))``
    has coefficient ``(q^(k+1) - 1)/(q - 1)`` at ``t^k``."""
    return sum(
        numerator[i] * ((q ** (degree - i + 1) - 1) // (q - 1))
        for i in range(min(degree, len(numerator) - 1) + 1)
    )


def _reference_numerators(q):
    """Numerators by genus, of degree below 2g and equal to 2g (these
    satisfy the functional equation)."""
    return [
        (1, [1]),
        (1, [1, -2, q]),
        (2, [1, -1]),
        (2, [1, 2, 3]),
        (2, [1, 1, 1, q, q * q]),
        (3, [1, -3, 0, 5, 0, -3 * q * q, q**3]),
    ]


def test_class_series_matches_the_per_coefficient_formula():
    for q in (2, 3, 4, 5, 7, 9):
        for genus, numerator in _reference_numerators(q):
            counting = PointCount(q, {"m": numerator}, {"m": genus})
            expected = [_weil_coefficient(numerator, q, d) for d in range(13)]
            assert counting.class_series("m", 12) == expected, (q, numerator)
    for genus in range(4):
        euler = EulerCharacteristic({"m": genus})
        one_minus_t = TruncSeries.from_coeffs([1, -1], 12)
        if genus == 0:
            expansion = (one_minus_t**2).inverse()
        else:
            expansion = one_minus_t ** (2 * genus - 2)
        assert euler.class_series("m", 12) == list(expansion.coefficients()), genus
    assert SymbolicIdentity().class_series("m", 2) == [one(), sym_pow("m", 1), sym_pow("m", 2)]
    # c[m,0] is the unit, so degree 0 needs no realization.
    assert PointCount(3).class_series("mystery", 0) == [1]
    assert EulerCharacteristic().class_series("mystery", 0) == [1]
    with pytest.raises(MeasureError, match=r"c\[mystery,1\]"):
        PointCount(3).class_series("mystery", 2)
    with pytest.raises(MeasureError, match=r"c\[mystery,1\]"):
        EulerCharacteristic().class_series("mystery", 2)


def test_integer_class_series_match_the_kept_weil_series():
    # Point counting expands P_m / ((1-t)(1-qt)); the Euler characteristic is
    # point counting at L -> 1 with P_m = (1-t)^(2g).
    for order in range(41):
        for q in (2, 3, 4, 5, 7, 9):
            for genus, numerator in _reference_numerators(q):
                counting = PointCount(q, {"m": numerator}, {"m": genus})
                assert counting.class_series("m", order) == weil_series(numerator, q, order)
        for genus in range(7):
            numerator = [one_minus_t_coefficient(2 * genus, d) for d in range(2 * genus + 1)]
            euler = EulerCharacteristic({"m": genus})
            assert euler.class_series("m", order) == weil_series(numerator, 1, order), genus


# -- point counts of real curves --------------------------------------------------


def _poly_mul(a, b, p):
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    return tuple(c % p for c in product)


def _field(p, k):
    """The elements of ``F_{p^k}`` as coefficient tuples, and its product,
    modulo the first monic irreducible of degree ``k``: the first monic
    polynomial that is no product of two monic ones of lower degree (at
    ``k = 4`` having no root in ``F_p`` is not enough)."""
    elements = list(itertools.product(range(p), repeat=k))

    def monic(degree):
        return [(*tail, 1) for tail in itertools.product(range(p), repeat=degree)]

    reducible = {
        _poly_mul(f, g, p) for i in range(1, k // 2 + 1) for f in monic(i) for g in monic(k - i)
    }
    modulus = next(m for m in monic(k) if m not in reducible)  # x^k + ... + modulus[0]

    def mul(a, b):
        product = list(_poly_mul(a, b, p))
        for top in range(2 * k - 2, k - 1, -1):  # x^k = -(modulus[0] + ...)
            c = product[top]
            for i in range(k):
                product[top - k + i] -= c * modulus[i]
        return tuple(c % p for c in product[:k])

    return elements, mul


def _count_curve_points(f, p, k):
    """Points of ``y^2 = f(x)`` over ``F_{p^k}``, ``f`` squarefree of odd
    degree with coefficients from the constant up, and its one point at
    infinity."""
    elements, mul = _field(p, k)
    squares = {}
    for y in elements:
        square = mul(y, y)
        squares[square] = squares.get(square, 0) + 1
    points = 1
    for x in elements:
        value = (f[-1],) + (0,) * (k - 1)
        for c in reversed(f[:-1]):  # Horner's rule
            value = mul(value, x)
            value = ((value[0] + c) % p,) + value[1:]
        points += squares.get(value, 0)
    return points


def _count_points(a, b, p, k):
    """Points of ``y^2 = x^3 + ax + b`` over ``F_{p^k}``, with the one at infinity."""
    return _count_curve_points((b, a, 0, 1), p, k)


def _effective_divisors(counts, order):
    """``[t^d] exp(sum_k N_k t^k / k)`` for ``d <= order``: with ``Z' = S' Z``,
    ``d z_d = sum_k N_k z_(d-k)``."""
    z = [Fraction(1)]
    for d in range(1, order + 1):
        z.append(sum(counts[k - 1] * z[d - k] for k in range(1, d + 1)) / d)
    assert all(c.denominator == 1 for c in z)
    return [int(c) for c in z]


@pytest.mark.parametrize("p", [5, 7])
def test_weil_series_counts_divisors_on_real_elliptic_curves(p):
    curves = [(a, b) for a, b in ((1, 1), (2, 3), (0, 1), (3, 0)) if (4 * a**3 + 27 * b**2) % p]
    assert len(curves) >= 3
    for a, b in curves:
        counts = [_count_points(a, b, p, k) for k in (1, 2, 3)]
        trace = p + 1 - counts[0]
        expected = _effective_divisors(counts, 3)
        assert weil_series([1, -trace, p], p, 3) == expected, (a, b)
        graph = parse_graph(
            {"vertices": [vertex("v", 1, {"type": "elliptic", "id": "e", "trace": trace})],
             "legs": ["v"]}
        )
        assert point_count_for_graph(graph, p).class_series("e", 3) == expected, (a, b)


# (p, f): y^2 = f(x) is smooth over F_p (f squarefree mod p), coefficients of
# f from the constant up; two elliptic curves and three of genus 2.
_CURVES = [
    (5, (1, 1, 0, 1)),
    (7, (3, 2, 0, 1)),
    (3, (2, 0, 1, 0, 0, 1)),
    (5, (3, 1, 0, 0, 2, 1)),
    (5, (1, 0, 3, 1, 0, 1)),
]


@pytest.mark.parametrize("p, f", _CURVES)
def test_weil_series_counts_divisors_through_degree_four(p, f):
    genus = (len(f) - 2) // 2
    counts = [_count_curve_points(f, p, k) for k in (1, 2, 3, 4)]
    # P(t) = prod_i (1 - alpha_i t) with sum_i alpha_i^k = q^k + 1 - N_k; the
    # functional equation gives the coefficients past t^g.
    s1, s2 = p + 1 - counts[0], p**2 + 1 - counts[1]
    if genus == 1:
        numerator = [1, -s1, p]
        model = {"type": "elliptic", "id": "c", "trace": s1}
    else:
        assert (s1**2 - s2) % 2 == 0
        numerator = [1, -s1, (s1**2 - s2) // 2, -p * s1, p**2]
        model = {"type": "weil", "id": "c", "numerator": numerator}
    expected = _effective_divisors(counts, 4)
    assert weil_series(numerator, p, 4) == expected
    graph = parse_graph({"vertices": [vertex("v", genus, model)], "legs": ["v"]})
    assert point_count_for_graph(graph, p).class_series("c", 4) == expected
