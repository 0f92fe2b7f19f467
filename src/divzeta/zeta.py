"""Closed forms for the zeta functions of a stable marked curve.

With ``E`` the edge multiset, ``n`` the leg count, ``p`` the total number
of punctures, and ``Z_v`` the Kapranov zeta of the normalization of the
component at vertex ``v``, every closed form is one graph scalar times the
vertex zetas,

    ``node_factor^a * (1-t)^(b+p) * (1 - t + L*t^2)^c * prod_v Z_v``

where ``node_factor = (1 - L*t) / (1 - L*t - t + t^2)`` and the kind fixes
the exponents (the scalar is left out when all three are 0):

* divisorial:      ``a = |E|+n``, ``b = 2|E|+n``
* Hilbert:         ``c = |E|``   (legs ignored)
* nodal Kapranov:  ``b = |E|``
* smooth Kapranov: none, only the punctures' ``(1-t)^p``.

The scalar is built once per call as an unreduced rational function and
multiplied into each vertex's ``numerator / ((1-t)(1-L*t))``
(``zeta_rational``).  ``zeta_series`` builds the same closed form as a
series instead, the product of the truncated vertex series with the
scalar's expansion.  Both take the product's leaves (``Leaves``): the image
of ``L`` and, per model, the images of ``c[m,0], c[m,1], ...``.  A motivic
measure is a ring homomorphism, so it is applied once, to the leaves
(``leaf_images``, the measure's ``class_series`` of each model), and a
builder run over them gives the measure's image of the symbolic closed form
without expanding it; under ``SymbolicIdentity`` the leaves are the free
generators, and a projective line's classes ``1 + L + ... + L^d``.  Under a
measure every class series is the expansion of its Weil numerator over
``(1-t)(1-l*t)``, so the rational form expands to the series at every
order: the CLI builds the rational form alone, from classes through
``t^2g``, and expands it by one recurrence, linear in the order, where the
series product is quadratic.
The strata oracle reads only the leaves from here (``Leaves``,
``leaf_images``), never a builder.

For a vertex of genus g the rational form uses
the numerator ``sum_d (c_d - (L+1) c_{d-1} + L c_{d-2}) t^d`` of degree 2g
over ``(1-t)(1-L*t)``; its expansion realizes the symmetric-power recurrence
``c_d = (L+1) c_{d-1} - L c_{d-2}`` that holds for curve classes beyond
degree 2g, so it matches the free-generator series through ``t^(2g)`` and
matches it at every order under any measure that realizes the generators
through a Weil numerator of degree at most 2g.  Each factor keeps its formal
length (``RationalFn``), so the rational form's sides have the lengths of
the symbolic form in any ring, even where a measure sends a vertex
numerator's leading coefficients to zero (a Weil numerator of degree below
2g).
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Mapping, Sequence
from functools import reduce

from .graph import CurveModel, DualGraph
from .measures import MotivicMeasure, class_rational
from .ring import Coeff, RationalFn, TruncSeries, _poly_product, _power


class ZetaKind(enum.Enum):
    DIVISORIAL = "divisorial"
    HILBERT = "hilbert"
    KAPRANOV_NODAL = "kapranov-nodal"
    KAPRANOV_SMOOTH = "kapranov-smooth"


class Leaves:
    """The leaves of the closed forms, all in one coefficient ring.

    ``classes`` maps each model id to the images of ``c[m,0..N]``, the
    classes of the model's symmetric powers.
    """

    __slots__ = ("lefschetz", "classes", "one")

    def __init__(self, lefschetz: Coeff, classes: Mapping[str, Sequence[Coeff]]):
        self.lefschetz = lefschetz
        self.classes = classes
        self.one = lefschetz**0  # the unit of the leaves' ring


def leaf_images(graph: DualGraph, measure: MotivicMeasure, order: int) -> Leaves:
    """The leaves of ``graph``'s closed forms under ``measure``.

    Each model's classes run through ``t^max(order, 2g)``.  ``order`` is the
    highest degree a series builder will read: ``zeta_series`` and
    ``divisor_series_from_strata`` take the first ``order + 1`` classes, so
    ``verify`` and a symbolic ``compute`` that prints the series pass
    ``--max-degree``.  ``zeta_rational`` takes only the first ``2g + 1``,
    so every other ``compute``, which prints the rational form and under a
    measure its expansion, passes ``min(max_degree, 1)``: every class of
    degree 1 and up that it reads is still realized.  A model the measure
    does not realize to that degree raises ``MeasureError`` here.
    """
    classes = {
        name: measure.class_series(model, max(order, 2 * model.genus))
        for name, model in graph.models.items()
    }
    return Leaves(measure.lefschetz_image(), classes)


# -- factors -------------------------------------------------------------------


def _exponents(kind: ZetaKind, graph: DualGraph) -> tuple[int, int, int]:
    """Exponents of the node factor, ``(1-t)`` and the Hilbert factor."""
    edges, legs = graph.num_edges, graph.num_legs
    punctures = sum(v.punctures for v in graph.vertices)
    if kind is ZetaKind.DIVISORIAL:
        return edges + legs, 2 * edges + legs + punctures, 0
    if kind is ZetaKind.HILBERT:
        return 0, punctures, edges
    if kind is ZetaKind.KAPRANOV_NODAL:
        return 0, edges + punctures, 0
    return 0, punctures, 0


def _graph_scalar(kind: ZetaKind, graph: DualGraph, leaves: Leaves) -> RationalFn | None:
    """The factor fixed by the edges, legs and punctures, or None if it is 1.

    ``(1-t)^b`` and the Hilbert factor have no denominator: their powers
    are t-polynomials, multiplied into the node factor's numerator only.
    """
    a, b, c = _exponents(kind, graph)
    if not (a or b or c):
        return None
    one_, lef = leaves.one, leaves.lefschetz
    node = RationalFn([one_, -lef], [one_, -(lef + one_), one_]) ** a
    numerator = node.numerator
    for factor, exponent in (((one_, -one_), b), ((one_, -one_, lef), c)):
        if exponent:
            power = _power(factor, exponent, (one_,), _poly_product)
            numerator = _poly_product(numerator, power)
    return RationalFn(numerator, node.denominator)


def _sym_numerator(model: CurveModel, leaves: Leaves) -> list[Coeff]:
    """Numerator of the vertex zeta over ``(1-t)(1-L*t)``, of degree 2g with
    coefficients c_d - (L+1) c_{d-1} + L c_{d-2} (1 for a projective line).
    """
    lef = leaves.lefschetz
    c = [0, 0, *leaves.classes[model.name][: 2 * model.genus + 1]]
    return [
        c[d + 2] - (lef + leaves.one) * c[d + 1] + lef * c[d]
        for d in range(2 * model.genus + 1)
    ]


# -- the closed forms ---------------------------------------------------------------


def zeta_series(kind: ZetaKind, graph: DualGraph, order: int, leaves: Leaves) -> TruncSeries:
    """The closed form of ``kind``, truncated at ``order``, in the leaves' ring.

    ``leaves`` reach ``t^order`` (``leaf_images(graph, measure, order)``).
    """
    product = reduce(
        operator.mul,
        (TruncSeries(leaves.classes[v.model.name][: order + 1]) for v in graph.vertices),
    )
    scalar = _graph_scalar(kind, graph, leaves)
    # Operand order sets each coefficient's term order, and with it the cost
    # of the display sort in str(); this order keeps the established cost.
    return product if scalar is None else scalar.series(order) * product


def zeta_rational(kind: ZetaKind, graph: DualGraph, leaves: Leaves) -> RationalFn:
    """The closed form of ``kind`` as an unreduced rational function, in the leaves' ring."""
    lef = leaves.lefschetz
    factors = [class_rational(_sym_numerator(v.model, leaves), lef) for v in graph.vertices]
    scalar = _graph_scalar(kind, graph, leaves)
    return reduce(operator.mul, factors if scalar is None else [scalar, *factors])
