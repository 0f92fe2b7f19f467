"""Closed forms for the zeta functions of a stable marked curve.

With ``E`` the edge multiset, ``n`` the leg count, ``p`` the total number
of punctures, and ``Z_v`` the Kapranov zeta of the normalization of the
component at vertex ``v``, every closed form is one graph scalar times the
vertex zetas,

    ``node_factor^a * (1-t)^(b+p) * (1 - t + L*t^2)^c * prod_v Z_v``

where ``node_factor = (1 - L*t) / (1 - L*t - t + t^2)`` and the kind fixes
the exponents (the scalar is the unit when all three are 0):

* divisorial:      ``a = |E|+n``, ``b = 2|E|+n``
* Hilbert:         ``c = |E|``   (legs ignored)
* nodal Kapranov:  ``b = |E|``

On a smooth curve (one vertex, no edges) without legs, every kind is the
Kapranov zeta times the punctures' ``(1-t)^p``.

The scalar is built once per call as an unreduced rational function, the
product of the powers of its three factors with a nonzero exponent, and
multiplied into each vertex's ``numerator / ((1-t)(1-L*t))``
(``zeta_rational``).  ``zeta_series`` builds the same closed form as a
series instead, the scalar's expansion, which checks the order, times the
product of the truncated vertex series.  Both read only the leaves they are
given (``measures.Leaves``): the image of ``L`` and, per model, the images
of ``c[m,0], c[m,1], ...``, all in one ring.  A measure is a ring
homomorphism, so a builder run over its leaves gives the measure's image of
the symbolic closed form without expanding it.

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
from functools import reduce

from .graph import CurveModel, DualGraph
from .measures import Leaves, class_rational
from .ring import Coeff, RationalFn, TruncSeries


class ZetaKind(enum.Enum):
    DIVISORIAL = "divisorial"
    HILBERT = "hilbert"
    KAPRANOV_NODAL = "kapranov-nodal"


# -- factors -------------------------------------------------------------------


def _exponents(kind: ZetaKind, graph: DualGraph) -> tuple[int, int, int]:
    """Exponents of the node factor, ``(1-t)`` and the Hilbert factor."""
    edges, legs = graph.num_edges, graph.num_legs
    punctures = sum(v.punctures for v in graph.vertices)
    if kind is ZetaKind.DIVISORIAL:
        return edges + legs, 2 * edges + legs + punctures, 0
    if kind is ZetaKind.HILBERT:
        return 0, punctures, edges
    return 0, edges + punctures, 0


def _graph_scalar(kind: ZetaKind, graph: DualGraph, leaves: Leaves) -> RationalFn:
    """The factor fixed by the edges, legs and punctures: the node factor,
    ``(1-t)`` and the Hilbert factor, in that order, each to its exponent,
    over the nonzero exponents only, or the unit ``1/1`` when all are 0.
    The last two have denominator 1: their powers are t-polynomials.
    """
    one_, lef = leaves.one, leaves.lefschetz
    factors = (
        RationalFn([one_, -lef], [one_, -(lef + one_), one_]),
        RationalFn([one_, -one_], [one_]),
        RationalFn([one_, -one_, lef], [one_]),
    )
    powers = [f**e for f, e in zip(factors, _exponents(kind, graph)) if e]
    return reduce(operator.mul, powers) if powers else RationalFn([one_], [one_])


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

    ``leaves`` reach ``t^order`` (``measures.leaf_images(graph, measure, order)``).
    """
    scalar = _graph_scalar(kind, graph, leaves).series(order)
    product = reduce(
        operator.mul,
        (TruncSeries(leaves.classes[v.model.name][: order + 1]) for v in graph.vertices),
    )
    # Operand order sets each coefficient's term order, and with it the cost
    # of the display sort in str(); this order keeps the established cost.
    return scalar * product


def zeta_rational(kind: ZetaKind, graph: DualGraph, leaves: Leaves) -> RationalFn:
    """The closed form of ``kind`` as an unreduced rational function, in the leaves' ring."""
    lef = leaves.lefschetz
    factors = [class_rational(_sym_numerator(v.model, leaves), lef) for v in graph.vertices]
    return reduce(operator.mul, factors, _graph_scalar(kind, graph, leaves))
