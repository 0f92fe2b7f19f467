"""Measure homomorphisms and integer specializations."""

import contextlib
import functools
import io
import itertools
import json
import math
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divzeta.cli import main
from divzeta.graph import CurveModel, DualGraph, Vertex, parse_graph
from divzeta.measures import (
    PRIME_POWER_LIMIT,
    EulerCharacteristic,
    MeasureError,
    PointCount,
    SymbolicIdentity,
    is_prime_power,
    leaf_images,
)
from divzeta.ring import RationalFn, RingElem, lefschetz, one, sym_pow, zero
from divzeta.strata import torus_class
from divzeta.zeta import ZetaKind, zeta_rational, zeta_series

from conftest import (
    battery,
    declare_weil,
    free_leaves,
    loop_vertex,
    one_minus_t_coefficient,
    vertex,
    vertex_zeta_series,
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
    # A weil model's constant term and degree are checked by the model
    # (tests/test_graph.py); the functional equation depends on q.
    counting = PointCount(5)
    counting.class_series(CurveModel("weil", "e", 1, numerator=[1, -2, 5]), 2)
    # Degree below 2g skips the equation.
    counting.class_series(CurveModel("weil", "m", 1, numerator=[1]), 2)
    with pytest.raises(ValueError, match="functional equation"):
        counting.class_series(CurveModel("weil", "e", 1, numerator=[1, -2, 3]), 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 25])
def test_point_count_enforces_the_hasse_bound_in_genus_one(q):
    # A genus-1 numerator 1 - a t + q t^2 comes from a curve only when
    # a^2 <= 4q, for an elliptic model and a weil model alike.
    bound = math.isqrt(4 * q)
    for trace in (-bound, bound):
        elliptic = CurveModel("elliptic", "e", 1, trace=trace)
        assert PointCount(q).class_series(elliptic, 1)[1] == q + 1 - trace
        weil = CurveModel("weil", "w", 1, numerator=[1, -trace, q])
        assert PointCount(q).class_series(weil, 1)[1] == q + 1 - trace
    for trace in (-bound - 1, bound + 1, 100):
        message = rf"model 'e': trace {trace} is outside the Hasse bound .* at q = {q}$"
        with pytest.raises(MeasureError, match=message):
            PointCount(q).class_series(CurveModel("elliptic", "e", 1, trace=trace), 1)
        with pytest.raises(MeasureError, match=message):
            PointCount(q).class_series(CurveModel("weil", "e", 1, numerator=[1, -trace, q]), 1)
    # Degree below 2g, and genus 2, are not checked against the bound.
    short = CurveModel("weil", "e", 1, numerator=[1, 100])
    assert PointCount(q).class_series(short, 1)[1] == q + 101
    genus_2 = CurveModel("weil", "w", 2, numerator=[1, 100, 0, 100 * q, q * q])
    assert PointCount(q).class_series(genus_2, 1)[1] == q + 101


# -- generator images -------------------------------------------------------------


def test_euler_kills_torus_classes():
    euler = EulerCharacteristic()
    assert euler.of_elem(torus_class(0), {}) == 1
    for m in range(1, 6):
        assert euler.of_elem(torus_class(m), {}) == 0


def test_euler_class_images():
    euler = EulerCharacteristic()
    assert euler.class_series(CurveModel("p1", "g0", 0), 3) == [1, 2, 3, 4]
    assert euler.class_series(CurveModel("symbolic", "g0", 0), 3) == [1, 2, 3, 4]
    assert euler.class_series(CurveModel("elliptic", "g1", 1, trace=2), 3) == [1, 0, 0, 0]
    assert euler.class_series(CurveModel("symbolic", "g2", 2), 3) == [1, -2, 1, 0]


def test_point_count_projective_plane():
    models = {"p1": CurveModel("p1", "p1", 0)}
    assert PointCount(3).of_elem(sym_pow("p1", 2), models) == 13


def test_point_count_elliptic_degree_one():
    models = {"E": CurveModel("elliptic", "E", 1, trace=2)}
    assert PointCount(5).of_elem(sym_pow("E", 1), models) == 4


def test_unrealized_generator_is_named():
    # A model is realized as a whole, so the first generator past the unit
    # is named whichever degree was asked for.  The Euler characteristic
    # reads only the genus, so it realizes every model.
    models = {"mystery": CurveModel("symbolic", "mystery", 1)}
    with pytest.raises(MeasureError, match=r"c\[mystery,1\]"):
        PointCount(3).of_elem(sym_pow("mystery", 2), models)
    assert EulerCharacteristic().of_elem(sym_pow("mystery", 1), models) == 0


def test_a_generator_without_a_model_is_named():
    # of_elem looks each generator's model up in the models it is given; a
    # missing one is a MeasureError naming the generator, not a KeyError.
    for measure in (EulerCharacteristic(), PointCount(3)):
        with pytest.raises(MeasureError, match=r"c\[mystery,2\]"):
            measure.of_elem(L + sym_pow("mystery", 2), {})
    assert EulerCharacteristic().of_elem(3 * L, {}) == 3
    long_id = "m" * 10_000
    with pytest.raises(MeasureError) as caught:
        EulerCharacteristic().of_elem(sym_pow(long_id, 1), {})
    assert len(str(caught.value)) < 100


def test_identity_measure_passthrough():
    x = sym_pow("m", 2) * L - 3
    identity = SymbolicIdentity()
    assert identity.of_elem(x, {}) == x


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


_MEASURES = [EulerCharacteristic(), PointCount(3)]
_POOL_MODELS = {
    "m": CurveModel("weil", "m", 2, numerator=[1, 1, 1, 3, 9]),
    "n": CurveModel("weil", "n", 1, numerator=[1, -1, 3]),
}


@given(ring_elems(), ring_elems())
@settings(max_examples=40, deadline=None)
def test_measures_are_ring_homomorphisms(a, b):
    for measure in _MEASURES:
        image = functools.partial(measure.of_elem, models=_POOL_MODELS)
        assert image(a * b) == image(a) * image(b)
        assert image(a + b) == image(a) + image(b)
        assert image(one()) == 1


# -- specializations of zeta series -------------------------------------------------


def test_point_count_of_p1_vertex_zeta_matches_weil_series():
    line = CurveModel("p1", "p", 0)
    series = vertex_zeta_series(line, 8)
    for q in (2, 3, 5):
        counting = PointCount(q)
        image = [counting.of_elem(c, {"p": line}) for c in series.coefficients()]
        assert image == weil_series([1], q, 8)


def test_point_count_of_symbolic_vertex_zeta_matches_weil_series():
    series = vertex_zeta_series(CurveModel("symbolic", "m", 1), 6)
    models = {"m": CurveModel("weil", "m", 1, numerator=[1, -2, 5])}
    image = [PointCount(5).of_elem(c, models) for c in series.coefficients()]
    assert image == weil_series([1, -2, 5], 5, 6)


def test_euler_image_of_divisorial_zeta_smoke():
    graph = loop_vertex(1)
    # |E| + sum(2g-2) + punctures = 1 + 0 + 0.
    series = zeta_series(ZetaKind.DIVISORIAL, graph, 6, free_leaves(graph, 6))
    image = [EulerCharacteristic().of_elem(c, graph.models) for c in series.coefficients()]
    expected = [one_minus_t_coefficient(1, d) for d in range(7)]
    assert image == expected


def test_point_count_reads_elliptic_and_weil_models():
    graph = parse_graph(
        {
            "vertices": [
                vertex("u", 1, {"type": "elliptic", "trace": 2}),
                vertex("w", 1, {"type": "weil", "numerator": [1, 0, 5]}),
            ],
            "edges": [["u", "w"], ["u", "w"]],
        }
    )
    counting = PointCount(5)
    assert counting.of_elem(sym_pow("u", 1), graph.models) == 5 + 1 - 2
    assert counting.of_elem(sym_pow("w", 1), graph.models) == 5 + 1


def test_point_count_leaves_symbolic_models_unrealized():
    graph = loop_vertex(1)
    counting = PointCount(3)
    with pytest.raises(MeasureError, match=r"c\[m,1\]"):
        counting.of_elem(sym_pow("m", 1), graph.models)
    declared = declare_weil(graph, {1: [1, -1, 3]})
    assert counting.of_elem(sym_pow("m", 1), declared.models) == 3


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
    """Each integer measure, with ``graph`` as that measure reads it: point
    counting with the symbolic models declared as weil models."""
    yield EulerCharacteristic(), graph
    for numerators in _NUMERATOR_SETS:
        yield PointCount(5), declare_weil(graph, numerators)


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_GRAPHS))
def test_measure_applied_early_equals_applied_late(name):
    graph = _DIFFERENTIAL_GRAPHS[name]
    order = 6
    measures = list(_integer_measures(graph))
    leaves = [leaf_images(declared, measure, order) for measure, declared in measures]
    free = free_leaves(graph, order)
    zero_leads = set()
    for kind in ZetaKind:
        series = zeta_series(kind, graph, order, free)
        fn = zeta_rational(kind, graph, free)
        # Symbolic factors never lose degree.
        assert fn.numerator[-1] != 0 and fn.denominator[-1] != 0
        for (measure, declared), images in zip(measures, leaves):
            image = functools.partial(measure.of_elem, models=declared.models)
            early = zeta_series(kind, declared, order, images).coefficients()
            assert all(type(c) is int for c in early)
            late = [image(c) for c in series.coefficients()]
            assert list(early) == late, (kind, type(measure).__name__)
            # Side by side at the symbolic lengths, zero leading coefficients too.
            early_fn = zeta_rational(kind, declared, images)
            assert early_fn.numerator == tuple(map(image, fn.numerator))
            assert early_fn.denominator == tuple(map(image, fn.denominator))
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
        for measure, declared in _integer_measures(graph):
            leaves = leaf_images(declared, measure, order)
            expansion = zeta_rational(kind, declared, leaves).series(order)
            series = zeta_series(kind, declared, order, leaves)
            assert expansion == series, (kind, type(measure).__name__)
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
            model = CurveModel("weil", "m", genus, numerator=numerator)
            expected = [_weil_coefficient(numerator, q, d) for d in range(13)]
            assert PointCount(q).class_series(model, 12) == expected, (q, numerator)
    for genus in range(4):
        model = CurveModel("symbolic", "m", genus)
        one_minus_t = RationalFn([1, -1]).series(12)
        if genus == 0:
            expansion = (one_minus_t**2).inverse()
        else:
            expansion = one_minus_t ** (2 * genus - 2)
        expected = list(expansion.coefficients())
        assert EulerCharacteristic().class_series(model, 12) == expected, genus
    symbolic = CurveModel("symbolic", "m", 2)
    assert SymbolicIdentity().class_series(symbolic, 2) == [one(), sym_pow("m", 1), sym_pow("m", 2)]
    line = CurveModel("p1", "m", 0)
    assert SymbolicIdentity().class_series(line, 2) == [one(), 1 + L, 1 + L + L * L]
    # A measure realizes a model or refuses it at every order, 0 included.
    mystery = CurveModel("symbolic", "mystery", 1)
    for order in (0, 2):
        with pytest.raises(MeasureError, match=r"c\[mystery,1\]"):
            PointCount(3).class_series(mystery, order)
    assert EulerCharacteristic().class_series(mystery, 0) == [1]
    assert EulerCharacteristic().class_series(mystery, 2) == [1, 0, 0]  # reads the genus alone


def test_integer_class_series_match_the_kept_weil_series():
    # Point counting expands P_m / ((1-t)(1-qt)); the Euler characteristic is
    # point counting at L -> 1 with P_m = (1-t)^(2g).
    for order in range(41):
        for q in (2, 3, 4, 5, 7, 9):
            for genus, numerator in _reference_numerators(q):
                model = CurveModel("weil", "m", genus, numerator=numerator)
                assert PointCount(q).class_series(model, order) == weil_series(numerator, q, order)
        for genus in range(7):
            numerator = [one_minus_t_coefficient(2 * genus, d) for d in range(2 * genus + 1)]
            model = CurveModel("symbolic", "m", genus)
            expected = weil_series(numerator, 1, order)
            assert EulerCharacteristic().class_series(model, order) == expected, genus


@st.composite
def _counted_models(draw, q):
    """A curve model, and the Weil numerator point counting at ``q`` gives it
    (None for a symbolic model, which has none).  A genus-1 weil numerator
    may break the Hasse bound."""
    kind = draw(st.sampled_from(["p1", "elliptic", "weil", "symbolic"]))
    if kind == "p1":
        return CurveModel("p1", "m", 0), [1]
    if kind == "elliptic":
        bound = math.isqrt(4 * q)  # |a| <= 2 sqrt(q)
        trace = draw(st.integers(-bound, bound))
        return CurveModel("elliptic", "m", 1, trace=trace), [1, -trace, q]
    genus = draw(st.integers(0, 3))
    if kind == "symbolic":
        return CurveModel("symbolic", "m", genus), None
    coefficients = st.integers(-9, 9)
    if draw(st.booleans()):  # degree 2g: the rest is fixed by the functional equation
        head = [1, *draw(st.lists(coefficients, min_size=genus, max_size=genus))]
        tail = [head[2 * genus - k] * q ** (k - genus) for k in range(genus + 1, 2 * genus + 1)]
        numerator = head + tail
    else:
        numerator = [1, *draw(st.lists(coefficients, max_size=max(2 * genus - 1, 0)))]
    return CurveModel("weil", "m", genus, numerator=numerator), numerator


def _leaf_classes(graph, measure, order):
    try:
        leaves = leaf_images(graph, measure, order)
    except MeasureError as exc:
        return str(exc)
    return leaves.lefschetz, leaves.classes


@given(st.sampled_from([2, 3, 4, 5, 7, 9]), st.integers(0, 40), st.data())
@settings(max_examples=200, deadline=None)
def test_an_integer_measure_is_a_rule_on_the_model(q, order, data):
    # The numerator depends on the model alone, so one measure serves every
    # graph: two graphs that give the id "m" different curves get the leaves
    # a fresh measure gives each.
    pairs = [data.draw(_counted_models(q)) for _ in range(2)]
    for model, numerator in pairs:
        counting = PointCount(q)
        if numerator is None:
            with pytest.raises(MeasureError, match=r"c\[m,1\]"):
                counting.class_series(model, order)
        elif model.genus == 1 and len(numerator) == 3 and numerator[1] ** 2 > 4 * q:
            with pytest.raises(MeasureError, match="Hasse bound"):
                counting.class_series(model, order)
        else:
            assert counting.class_series(model, order) == weil_series(numerator, q, order)
        row = [one_minus_t_coefficient(2 * model.genus, d) for d in range(2 * model.genus + 1)]
        assert EulerCharacteristic().class_series(model, order) == weil_series(row, 1, order)
    graphs = [DualGraph((Vertex("v", model),), (), ()) for model, _ in pairs]
    for make in (EulerCharacteristic, functools.partial(PointCount, q)):
        shared = make()
        once = [_leaf_classes(graph, shared, order) for graph in graphs]
        assert once == [_leaf_classes(graph, make(), order) for graph in graphs]


def _has_a_jacobian(drawn):
    """Whether a drawn ``(q, (model, numerator))`` is a curve's at ``q``: a
    numerator of degree ``2g`` (which meets the functional equation), inside
    the Hasse bound in genus 1."""
    q, (model, numerator) = drawn
    if numerator is None or len(numerator) != 2 * model.genus + 1:
        return False
    return model.genus != 1 or numerator[1] ** 2 <= 4 * q


_JACOBIAN_MODELS = (
    st.sampled_from([q for q in range(2, 28) if is_prime_power(q)])
    .flatmap(lambda q: st.tuples(st.just(q), _counted_models(q)))
    .filter(_has_a_jacobian)
)


@given(_JACOBIAN_MODELS)
@example((7, (CurveModel("elliptic", "m", 1, trace=3), [1, -3, 7])))
@example((7, (CurveModel("elliptic", "m", 1, trace=-5), [1, 5, 7])))
@example((7, (CurveModel("weil", "m", 2, numerator=[1, 2, 5, 14, 49]), [1, 2, 5, 14, 49])))
@example((8, (CurveModel("weil", "m", 2, numerator=[1, 0, 0, 0, 64]), [1, 0, 0, 0, 64])))
@settings(max_examples=200, deadline=None)
def test_symmetric_powers_past_2g_minus_2_are_projective_bundles(drawn):
    # For d >= 2g-1, Sym^d C is a P^(d-g)-bundle over the Jacobian (Kapranov,
    # arXiv:math/0001005), so #Sym^d C(F_q) = h (q^(d-g+1) - 1)/(q - 1) with
    # h = P(1) the Jacobian's number of points: a fact no measure encodes.
    # It follows from the functional equation by partial fractions.
    q, (model, numerator) = drawn
    genus, h = model.genus, sum(numerator)
    counts = PointCount(q).class_series(model, 20)
    euler = EulerCharacteristic().class_series(model, 20)
    for d in range(max(2 * genus - 1, 0), 21):
        assert counts[d] * (q - 1) == h * (q ** (d - genus + 1) - 1), d
        # The limit q -> 1, where h = (1-1)^(2g) is 1 in genus 0 and 0 above.
        assert euler[d] == (genus == 0) * (d - genus + 1), d
    if model.kind == "p1":  # 1 + l + ... + l^d under every measure
        for measure in (SymbolicIdentity(), EulerCharacteristic(), PointCount(q)):
            lef = measure.lefschetz_image()
            expected = [sum(lef**k for k in range(d + 1)) for d in range(21)]
            assert measure.class_series(model, 20) == expected, type(measure).__name__


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
        assert PointCount(p).class_series(graph.models["e"], 3) == expected, (a, b)


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
    assert PointCount(p).class_series(graph.models["c"], 4) == expected


# -- nodal Kapranov is the Hasse-Weil zeta of the nodal curve ------------------------

# y^2 = x^3 + ax + b, smooth over F_p (4a^3 + 27b^2 nonzero mod p).
_ELLIPTIC = {
    p: [(a, b) for a, b in ((1, 1), (2, 3), (0, 1), (3, 0)) if (4 * a**3 + 27 * b**2) % p]
    for p in (5, 7)
}


@functools.lru_cache(maxsize=None)
def _elliptic_counts(a, b, p):
    """``#E(F_{p^k})`` for ``k = 1..4``, by brute force."""
    return tuple(_count_points(a, b, p, k) for k in (1, 2, 3, 4))


@st.composite
def _nodal_elliptic_curves(draw):
    """A prime ``p``, and a graph document of 1-3 counted elliptic curves over
    ``F_p`` on a path, with loops, multi-edges, punctures and legs, with the
    curve of each vertex."""
    p = draw(st.sampled_from(sorted(_ELLIPTIC)))
    ids = ["u", "v", "w"][: draw(st.integers(1, 3))]
    curves, vertices = {}, []
    for vid in ids:
        a, b = curves[vid] = draw(st.sampled_from(_ELLIPTIC[p]))
        trace = p + 1 - _elliptic_counts(a, b, p)[0]
        model = {"type": "elliptic", "trace": trace}
        vertices.append(vertex(vid, 1, model, draw(st.integers(0, 2))))
    ends = st.sampled_from(ids)
    extra = draw(st.lists(st.tuples(ends, ends).map(list), max_size=2))
    document = {
        "vertices": vertices,
        "edges": [list(pair) for pair in zip(ids, ids[1:])] + extra,
        "legs": draw(st.lists(ends, max_size=2)),
    }
    return p, curves, document


@given(_nodal_elliptic_curves())
@settings(max_examples=40, deadline=None)
def test_nodal_kapranov_is_the_hasse_weil_zeta_of_the_nodal_curve(drawn):
    # Gluing two rational points into a node loses one point over every
    # F_(p^k), and a puncture removes one; a leg marks a point and removes
    # none.  So #C(F_(p^k)) = sum_v N_(v,k) - |E| - p_total, and the printed
    # point-count image of --zeta kapranov-nodal is exp(sum_k #C t^k / k).
    p, curves, document = drawn
    removed = len(document["edges"]) + sum(v["punctures"] for v in document["vertices"])
    counts = [
        sum(_elliptic_counts(*curve, p)[k] for curve in curves.values()) - removed
        for k in range(4)
    ]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "graph.json")
        with open(path, "w") as handle:
            json.dump(document, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["--input", path, "--allow-unstable", "--zeta", "kapranov-nodal",
                           "--measure", "point-count", "--q", str(p), "--max-degree", "4",
                           "--output", "json"])
    assert status == 0
    assert json.loads(out.getvalue())["coefficients"] == _effective_divisors(counts, 4)
