"""Rationality read off the strata oracle alone.

The paper's theorem is that the divisorial zeta is rational.  Berlekamp-Massey
(Massey, "Shift-register synthesis and BCH decoding", IEEE Trans. Inf. Theory
1969) finds the shortest linear recurrence of the oracle's point-count
series, without the closed form.  A series ``P/Q`` with ``Q(0) = 1`` has a
recurrence of length at most ``max(deg Q, deg P + 1)``, exactly that when
``P/Q`` is in lowest terms, and ``2l`` terms of a sequence fix its
recurrence of length ``l``.  The closed form is read only for the size it
predicts: the degrees of the sides of its printed rational form.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divzeta.graph import CurveModel, DualGraph, GraphError, Vertex, parse_graph
from divzeta.measures import PointCount, leaf_images
from divzeta.ring import RationalFn
from divzeta.strata import divisor_series_from_strata
from divzeta.zeta import ZetaKind, zeta_rational

from conftest import battery


def recurrence_length(sequence):
    """The length of the shortest linear recurrence that ``sequence`` satisfies,
    by Berlekamp-Massey over the rationals."""
    current, previous = [Fraction(1)], [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for n, term in enumerate(sequence):
        window = reversed(sequence[n - length : n])
        discrepancy = term + sum(c * s for c, s in zip(current[1 : length + 1], window))
        if discrepancy == 0:
            shift += 1
            continue
        scale = discrepancy / last
        updated = current + [Fraction(0)] * (len(previous) + shift - len(current))
        for i, b in enumerate(previous):
            updated[i + shift] -= scale * b
        if 2 * length <= n:
            length, previous, last, shift = n + 1 - length, current, discrepancy, 1
        else:
            shift += 1
        current = updated
    return length


def test_recurrence_length_of_known_series():
    assert recurrence_length([0] * 8) == 0
    assert recurrence_length([1, 1, 2, 3, 5, 8, 13, 21]) == 2  # 1 / (1 - t - t^2)
    assert recurrence_length([0, 0, 0, 1, 0, 0, 0, 0]) == 4  # t^3: P of degree 3
    # 1/((1-t)(1-7t)) has length 2; times (1-7t), unreduced, it is 1/(1-t).
    counts = RationalFn([1], [1, -8, 7]).series(9).coefficients()
    assert recurrence_length(counts) == 2
    assert recurrence_length(RationalFn([1, -7], [1, -8, 7]).series(9).coefficients()) == 1
    # A degree-5 numerator over a quadratic: max(deg Q, deg P + 1) = 6.
    long_numerator = RationalFn([1, 0, 0, 0, 0, 2], [1, -1, -1]).series(13)
    assert recurrence_length(long_numerator.coefficients()) == 6


Q = 7
# The curves a genus realizes at q = 7: a projective line, an elliptic curve
# of trace 1, and a genus-2 curve whose numerator satisfies the functional
# equation at 7.
_NUMERATOR_2 = [1, 2, 5, 14, 49]


def _realize(graph):
    """``graph`` with each vertex's curve chosen by its genus, one per vertex."""
    def model(v):
        if v.genus == 0:
            return CurveModel("p1", v.id, 0)
        if v.genus == 1:
            return CurveModel("elliptic", v.id, 1, trace=1)
        return CurveModel("weil", v.id, 2, numerator=_NUMERATOR_2)

    vertices = tuple(Vertex(v.id, model(v), v.punctures) for v in graph.vertices)
    return DualGraph(vertices, graph.edges, graph.legs)


def _printed_degrees(graph, measure):
    """Degrees of the numerator and denominator of the printed divisorial
    form, at their formal lengths."""
    fn = zeta_rational(ZetaKind.DIVISORIAL, graph, leaf_images(graph, measure, 0))
    return len(fn.numerator) - 1, len(fn.denominator) - 1


def _oracle_length(graph, measure, order):
    leaves = leaf_images(graph, measure, order)
    return recurrence_length(divisor_series_from_strata(graph, order, leaves).coefficients())


_PATH = parse_graph({
    "vertices": [{"id": vid, "genus": 1} for vid in "abcd"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
})
_FIXED = {**battery(), "elliptic-path": _PATH}


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_oracle_recurrence_has_the_reduced_size_of_the_printed_form(name):
    # The printed form keeps (1-t)^b and (1-qt)^a in its numerator, a = |E|+n
    # and b = 2|E|+n+p, and one (1-t)(1-qt) per vertex in its denominator;
    # what is left after they cancel is in lowest terms for these curves.
    graph = _realize(_FIXED[name])
    edges, legs = graph.num_edges, graph.num_legs
    punctures = sum(v.punctures for v in graph.vertices)
    a, b = edges + legs, 2 * edges + legs + punctures
    cancelled = min(a, len(graph.vertices)) + min(b, len(graph.vertices))
    num, den = (degree - cancelled for degree in _printed_degrees(graph, PointCount(Q)))
    if name == "elliptic-path":
        assert (num + cancelled, den + cancelled, num, den) == (17, 14, 10, 7)
    assert _oracle_length(graph, PointCount(Q), 80) == max(den, num + 1)


@st.composite
def realized_graphs(draw, q):
    """Stable graphs of 1-3 vertices whose curves point counting at ``q``
    realizes: projective lines, elliptic curves within the Hasse bound and
    genus-2 numerators of full degree."""
    bound = math.isqrt(4 * q)
    ids = ["a", "b", "c"][: draw(st.integers(1, 3))]
    vertices = []
    for vid in ids:
        genus = draw(st.integers(0, 2))
        if genus == 0:
            model = {"type": "p1"}
        elif genus == 1:
            model = {"type": "elliptic", "trace": draw(st.integers(-bound, bound))}
        else:
            low = [1, *draw(st.lists(st.integers(-9, 9), min_size=2, max_size=2))]
            model = {"type": "weil", "numerator": [*low, low[1] * q, q * q]}
        vertices.append({"id": vid, "genus": genus, "model": model,
                         "punctures": draw(st.integers(0, 1))})
    # A spanning path keeps the graph connected; extra edges may be loops.
    edges = [[u, w] for u, w in zip(ids, ids[1:])]
    extra = st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                     max_size=3 - len(edges))
    edges += [list(pair) for pair in draw(extra)]
    legs = draw(st.lists(st.sampled_from(ids), max_size=2))
    try:
        return parse_graph({"vertices": vertices, "edges": edges, "legs": legs})
    except GraphError:
        assume(False)


@given(st.sampled_from([2, 3, 4, 5, 7]), st.data())
@settings(max_examples=60, deadline=None)
def test_oracle_recurrence_is_no_longer_than_the_printed_form(q, data):
    # Whatever cancels, the oracle's series is P/Q for the printed sides, so
    # its first 2*size + 2 terms satisfy a recurrence no longer than size; a
    # series of larger linear complexity needs a longer one there.
    graph = data.draw(realized_graphs(q))
    num, den = _printed_degrees(graph, PointCount(q))
    size = max(den, num + 1)
    assert _oracle_length(graph, PointCount(q), 2 * size + 1) <= size
