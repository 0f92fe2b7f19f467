"""Closed forms for the zeta functions of a stable marked curve.

With ``E`` the edge multiset, ``n`` the leg count, and ``Z_v`` the zeta
series of the normalization of the component at vertex ``v`` (including its
puncture factor), every closed form is one product

    ``node_factor^a * (1-t)^b * (1 - t + L*t^2)^c * prod_v Z_v``

where ``node_factor = (1 - L*t) / (1 - L*t - t + t^2)`` and the kind fixes
the exponents (factors with exponent 0 are left out):

* divisorial:      ``a = |E|+n``, ``b = 2|E|+n``
* Hilbert:         ``c = |E|``   (legs ignored)
* nodal Kapranov:  ``b = |E|``
* smooth Kapranov: none, the plain product of vertex zetas.

One builder per target evaluates the product: ``zeta_series_image`` as a
truncated series, ``zeta_rational_image`` as an unreduced rational function
in ``t``.  Both take the product's leaves (``Leaves``): the image of ``L``
and, per model, the images of ``c[m,0], c[m,1], ...``.  ``zeta_series`` and
``zeta_rational`` are the symbolic reference: their leaves are the free
generators.  A motivic measure is a ring homomorphism, so applying it to the
leaves (``leaf_images``) and then running the same builder over the integers
gives the measure's image of the symbolic closed form, without expanding it.

For a symbolic (or elliptic/weil) vertex of genus g the rational form uses
the numerator ``sum_d (c_d - (L+1) c_{d-1} + L c_{d-2}) t^d`` of degree 2g
over ``(1-t)(1-L*t)``; its expansion realizes the symmetric-power recurrence
``c_d = (L+1) c_{d-1} - L c_{d-2}`` that holds for curve classes beyond
degree 2g, so it matches the free-generator series through ``t^(2g)`` and
matches it at every order under any measure that realizes the generators
through a Weil numerator of degree at most 2g.
"""

from __future__ import annotations

import enum
import functools
from typing import Mapping, Sequence

from .graph import CurveModel, DualGraph
from .measures import MotivicMeasure, SymbolicIdentity
from .ring import Coeff, RationalFn, TPoly, TruncSeries, lefschetz


class ZetaKind(enum.Enum):
    DIVISORIAL = "divisorial"
    HILBERT = "hilbert"
    KAPRANOV_NODAL = "kapranov-nodal"
    KAPRANOV_SMOOTH = "kapranov-smooth"


class Leaves:
    """The leaves of the closed forms, all in one coefficient ring.

    ``classes`` maps each model id to the images of ``c[m,0..N]``; a
    projective line needs none, its zeta is built from ``L`` alone.
    """

    __slots__ = ("lefschetz", "classes", "one")

    def __init__(self, lefschetz: Coeff, classes: Mapping[str, Sequence[Coeff]]):
        self.lefschetz = lefschetz
        self.classes = classes
        self.one = lefschetz**0  # the unit of the leaves' ring


_SYMBOLIC = SymbolicIdentity()


def leaf_images(
    graph: DualGraph, measure: MotivicMeasure, order: int, rational: bool = True
) -> Leaves:
    """The leaves of ``graph``'s closed forms under ``measure``.

    Each model's classes run through ``t^order``, enough for the series, and
    with ``rational`` through ``t^2g`` as well, as the rational form's
    vertex numerators need.  A model the measure does not realize to that
    degree raises ``MeasureError`` here.
    """
    classes: dict[str, Sequence[Coeff]] = {}
    for v in graph.vertices:
        model = v.model
        if model.kind != "p1" and model.name not in classes:
            degree = max(order, 2 * model.genus) if rational else order
            classes[model.name] = measure.class_series(model.name, degree)
    return Leaves(measure.lefschetz_image(), classes)


def _model_leaves(model: CurveModel | None = None, order: int = 0) -> Leaves:
    """Symbolic leaves for one model, or for none."""
    classes = {}
    if model is not None and model.kind != "p1":
        classes[model.name] = _SYMBOLIC.class_series(model.name, order)
    return Leaves(lefschetz(), classes)


# -- factors -------------------------------------------------------------------


def _exponents(kind: ZetaKind, graph: DualGraph) -> tuple[int, int, int]:
    """Exponents of the node factor, ``(1-t)`` and the Hilbert factor."""
    edges, legs = graph.num_edges, graph.num_legs
    if kind is ZetaKind.DIVISORIAL:
        return edges + legs, 2 * edges + legs, 0
    if kind is ZetaKind.HILBERT:
        return 0, 0, edges
    if kind is ZetaKind.KAPRANOV_NODAL:
        return 0, edges, 0
    return 0, 0, 0


def _graph_factors(
    kind: ZetaKind, graph: DualGraph, leaves: Leaves
) -> list[tuple[TPoly, TPoly | None, int]]:
    """``(numerator, denominator or None, exponent)`` per factor used."""
    a, b, c = _exponents(kind, graph)
    factors = [
        (*_node_factor(leaves), a),
        (_one_minus_t(leaves), None, b),
        (TPoly([leaves.one, -leaves.one, leaves.lefschetz]), None, c),
    ]
    return [factor for factor in factors if factor[2]]


def _node_factor(leaves: Leaves) -> tuple[TPoly, TPoly]:
    """``1 - L*t`` over ``1 - L*t - t + t^2``."""
    one_, lef = leaves.one, leaves.lefschetz
    return TPoly([one_, -lef]), TPoly([one_, -(lef + one_), one_])


def _one_minus_t(leaves: Leaves) -> TPoly:
    return TPoly([leaves.one, -leaves.one])


def _sym_denominator(leaves: Leaves) -> TPoly:
    """``(1-t)(1-L*t)`` as one quadratic."""
    lef = leaves.lefschetz
    return TPoly([leaves.one, -(lef + leaves.one), lef])


def _sym_numerator(model: CurveModel, leaves: Leaves) -> TPoly:
    """Degree-2g numerator with coefficients c_d - (L+1) c_{d-1} + L c_{d-2}."""
    lef = leaves.lefschetz
    c = [0, 0, *leaves.classes[model.name][: 2 * model.genus + 1]]
    return TPoly(
        [
            c[d + 2] - (lef + leaves.one) * c[d + 1] + lef * c[d]
            for d in range(2 * model.genus + 1)
        ]
    )


def rational_coefficients(
    kind: ZetaKind, graph: DualGraph, fn: RationalFn
) -> tuple[list[Coeff], list[Coeff]]:
    """Numerator and denominator coefficients of ``fn``, the rational form of
    ``kind`` on ``graph`` in any ring, at the lengths of the symbolic form.

    In free generators every factor has a nonzero leading coefficient, so
    the degrees of the factors add up.  A measure may send the leading
    coefficients of a vertex numerator to zero (a Weil numerator of degree
    below 2g); its image is padded with zeros back to the symbolic length.
    """
    a, b, c = _exponents(kind, graph)
    numerator = a + b + 2 * c
    for v in graph.vertices:
        numerator += v.punctures + (0 if v.model.kind == "p1" else 2 * v.model.genus)
    denominator = 2 * a + 2 * len(graph.vertices)
    return _padded(fn.numerator, numerator), _padded(fn.denominator, denominator)


def _padded(poly: TPoly, degree: int) -> list[Coeff]:
    return list(poly.coefficients()) + [0] * (degree - poly.degree)


# -- truncated series ---------------------------------------------------------------


def _vertex_series(model: CurveModel, punctures: int, order: int, leaves: Leaves) -> TruncSeries:
    if model.kind == "p1":
        base = RationalFn(TPoly([leaves.one]), _sym_denominator(leaves)).series(order)
    else:
        base = TruncSeries(leaves.classes[model.name][: order + 1])
    if punctures:
        base = base * _one_minus_t(leaves).series(order) ** punctures
    return base


def zeta_series_image(
    kind: ZetaKind, graph: DualGraph, order: int, leaves: Leaves
) -> TruncSeries:
    """The closed form of ``kind``, truncated at ``order``, in the leaves' ring."""
    product = TruncSeries.from_coeffs([leaves.one], order)
    for v in graph.vertices:
        product = product * _vertex_series(v.model, v.punctures, order, leaves)
    scalar = None
    for numerator, denominator, exponent in _graph_factors(kind, graph, leaves):
        factor = numerator.series(order)
        if denominator is not None:
            factor = denominator.series(order).inverse() * factor
        power = factor**exponent
        scalar = power if scalar is None else scalar * power
    return product if scalar is None else scalar * product


def zeta_series(kind: ZetaKind, graph: DualGraph, order: int) -> TruncSeries:
    """The closed form of ``kind`` in free generators, truncated at ``order``."""
    return zeta_series_image(kind, graph, order, leaf_images(graph, _SYMBOLIC, order))


def vertex_zeta_series(model: CurveModel, punctures: int, order: int) -> TruncSeries:
    """Kapranov zeta of one normalized component, with its puncture factor.

    Symbolic, elliptic, and weil models keep free coefficients
    ``c[name,d]``; a projective line expands to ``1/((1-t)(1-L*t))``.
    Each puncture multiplies by ``(1-t)``.
    """
    return _vertex_series(model, punctures, order, _model_leaves(model, order))


def one_minus_t(order: int) -> TruncSeries:
    return _one_minus_t(_model_leaves()).series(order)


def node_factor_rational() -> RationalFn:
    """The per-node (and per-mark) factor (1 - L*t) / (1 - L*t - t + t^2)."""
    return RationalFn(*_node_factor(_model_leaves()))


def node_factor_series(order: int) -> TruncSeries:
    return node_factor_rational().series(order)


# -- rational forms ------------------------------------------------------------------


def _vertex_rational(model: CurveModel, punctures: int, leaves: Leaves) -> RationalFn:
    if model.kind == "p1":
        numerator = TPoly([leaves.one])
    else:
        numerator = _sym_numerator(model, leaves)
    if punctures:
        numerator = numerator * _one_minus_t(leaves) ** punctures
    return RationalFn(numerator, _sym_denominator(leaves))


def zeta_rational_image(kind: ZetaKind, graph: DualGraph, leaves: Leaves) -> RationalFn:
    """The closed form of ``kind`` as an unreduced rational function, in the leaves' ring."""
    product = RationalFn([leaves.one], [leaves.one])
    for v in graph.vertices:
        product = product * _vertex_rational(v.model, v.punctures, leaves)
    scalar = None
    for numerator, denominator, exponent in _graph_factors(kind, graph, leaves):
        power = RationalFn(
            numerator**exponent,
            TPoly([leaves.one]) if denominator is None else denominator**exponent,
        )
        scalar = power if scalar is None else scalar * power
    return product if scalar is None else scalar * product


def zeta_rational(kind: ZetaKind, graph: DualGraph) -> RationalFn:
    """The closed form of ``kind`` in free generators, as a rational function."""
    return zeta_rational_image(kind, graph, leaf_images(graph, _SYMBOLIC, 0))


def vertex_zeta_rational(model: CurveModel, punctures: int) -> RationalFn:
    return _vertex_rational(model, punctures, _model_leaves(model, 2 * model.genus))


# -- one name per kind ---------------------------------------------------------------

divisorial_zeta_series = functools.partial(zeta_series, ZetaKind.DIVISORIAL)
divisorial_zeta_rational = functools.partial(zeta_rational, ZetaKind.DIVISORIAL)
hilbert_zeta_series = functools.partial(zeta_series, ZetaKind.HILBERT)
hilbert_zeta_rational = functools.partial(zeta_rational, ZetaKind.HILBERT)
nodal_zeta_series = functools.partial(zeta_series, ZetaKind.KAPRANOV_NODAL)
nodal_zeta_rational = functools.partial(zeta_rational, ZetaKind.KAPRANOV_NODAL)
smooth_zeta_series = functools.partial(zeta_series, ZetaKind.KAPRANOV_SMOOTH)
smooth_zeta_rational = functools.partial(zeta_rational, ZetaKind.KAPRANOV_SMOOTH)
