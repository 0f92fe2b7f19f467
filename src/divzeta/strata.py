"""Brute-force enumeration of divisor strata on a dual graph.

A stratum of the degree-d divisor space is indexed by a stable pair: a
subdivision of the dual graph together with a degree assignment that is at
least 1 on every exceptional vertex.  Concretely that is a nonnegative
degree per original vertex, an ordered composition per edge (the degrees
along the chain of exceptional bubbles subdividing it, read from the
edge's first endpoint), and an ordered composition per leg (the chain
inserted between the component and the marked point, read from the
component outward).

The class of a stratum is the product of punctured symmetric-power classes
of the components with the torus symmetric-power classes of the exceptional
bubbles; summing over all stable pairs of total degree d gives the degree-d
coefficient of the divisorial zeta function, independently of its closed
form.

A stable pair is an independent choice per slot (vertex, edge, leg) and its
class is a product of per-slot factors, so by distributivity the sum over
all pairs of degree d is the ``t^d`` coefficient of a product of per-slot
series.  ``divisor_series_from_strata`` evaluates that product for every
degree at once, in the ring of the leaves it is given
(``measures.leaf_images``, the same leaves the closed form reads), so a
measured product runs over the integers and the measure is never applied
here.  A vertex's factor is its
model's classes times ``(1-t)`` per hole; the punctures, the chain series
(built from the image of ``L``) and their product are the oracle's own,
independent of the closed form's graph scalar.  The product is reordered by
commutativity alone: the narrow factors, which hold only ``L``, are
multiplied first (``(1-t)`` to the total number of holes, and the one chain
series every edge and leg shares, to the power ``|E|+n``), and the vertex
classes are folded onto them one vertex at a time, in ascending model order.
With distinct symbolic models every coefficient then comes out with its
terms in display order, so ``str`` sorts it in one pass.
``divisor_class_from_strata`` is its symbolic coefficient of one degree.
``stable_pair_count`` counts the pairs of every degree from the same
factorization, with the per-slot series in closed form, as one expansion of
a rational function; ``stable_pairs`` and ``stratum_class`` are the literal
enumeration they are tested against at small degree.  There a pair is a
plain tuple of degrees and chains, and a component's class is a binomial
sum over its model's classes (``punctured_sym_class``): the literal sum
reads no closed-form builder, and it checks every count by ``ring``'s rule.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator
from functools import lru_cache, reduce

from .graph import DualGraph, Vertex
from .measures import Leaves, SymbolicIdentity, leaf_images
from .ring import Coeff, RationalFn, RingElem, TruncSeries, lefschetz, one, sum_elems
from .ring import _require_natural


@lru_cache(maxsize=None, typed=True)
def compositions(total: int) -> tuple[tuple[int, ...], ...]:
    """All ordered compositions of ``total``; only the empty one for 0."""
    _require_natural(total, "composition total")
    if total == 0:
        return ((),)
    out = []
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            out.append((first,) + rest)
    return tuple(out)


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def stable_pairs(graph: DualGraph, degree: int) -> list[tuple]:
    """All stable pairs of the given total degree, sorted.

    A pair is a tuple ``(vertex_degrees, edge_chains, leg_chains)``, aligned
    by position with ``graph.vertices``, ``graph.edges`` and ``graph.legs``;
    chain entries are positive.  The total degree is split over vertices,
    edges, and legs by weak compositions; each edge or leg share then
    expands into every ordered composition.  Chain reversal is never
    quotiented out.
    """
    _require_natural(degree, "degree")
    num_v, num_e = len(graph.vertices), graph.num_edges
    pairs = []
    for split in weak_compositions(degree, num_v + num_e + graph.num_legs):
        vertex_degrees = split[:num_v]
        edge_options = [compositions(s) for s in split[num_v : num_v + num_e]]
        leg_options = [compositions(s) for s in split[num_v + num_e :]]
        for edge_chains in itertools.product(*edge_options):
            for leg_chains in itertools.product(*leg_options):
                pairs.append((vertex_degrees, edge_chains, leg_chains))
    pairs.sort()
    return pairs


def stable_pair_count(graph: DualGraph, order: int) -> list[int]:
    """Numbers of stable pairs of degrees 0 through ``order``, without
    enumerating them.

    A vertex takes any degree, ``1/(1-t)``; an edge or leg takes an ordered
    composition, of which a positive total ``s`` has ``2^(s-1)``, giving
    ``(1-t)/(1-2t)``.  The counts are the expansion of
    ``((1-t)/(1-2t))^(|E|+n) * (1-t)^(-|V|)``.
    """
    chain, vertex = RationalFn([1, -1], [1, -2]), RationalFn([1], [1, -1])
    counts = chain ** (graph.num_edges + graph.num_legs) * vertex ** len(graph.vertices)
    return list(counts.series(order).coefficients())


def torus_class(m: int, lef: Coeff | None = None) -> Coeff:
    """Class of the m-th symmetric power of the one-dimensional torus,
    ``1`` and then ``L^(m-1) * (L - 1)``, one power, at ``lef`` the image of
    ``L`` (``L`` itself by default)."""
    _require_natural(m, "symmetric-power index")
    lef = lefschetz() if lef is None else lef
    if m == 0:
        return lef**0
    return lef ** (m - 1) * (lef - 1)


@lru_cache(maxsize=None, typed=True)
def punctured_sym_class(model, holes: int, degree: int) -> RingElem:
    """Class of the degree-d symmetric power of a component minus ``holes`` points.

    ``sum_k (-1)^k C(holes, k) c[m, d-k]``, the ``t^d`` coefficient of the
    model's classes (``SymbolicIdentity().class_series``: free generators,
    or ``1 + L + ... + L^d`` for a projective line) times ``(1-t)^holes``,
    for the literal reference ``stratum_class``, one degree at a time; the
    factorized oracle builds it for every degree at once.  ``holes``, and
    ``degree`` in ``class_series``, must be nonnegative integers.
    """
    _require_natural(holes, "holes")
    classes = SymbolicIdentity().class_series(model, degree)
    return sum_elems(
        classes[degree - k] * ((-1) ** k * math.comb(holes, k))
        for k in range(min(holes, degree) + 1)
    )


def stratum_class(graph: DualGraph, pair: tuple) -> RingElem:
    """Product of component classes and torus classes over one stable pair.

    Each original vertex contributes the class of its punctured symmetric
    power, where the punctured locus removes the nodes, marked points, and
    punctures; each chain entry ``a`` contributes the torus class of index
    ``a - 1``.
    """
    vertex_degrees, edge_chains, leg_chains = pair
    result = one()
    for v, deg in zip(graph.vertices, vertex_degrees):
        result = result * punctured_sym_class(v.model, _holes(graph, v), deg)
    for chain in edge_chains + leg_chains:
        for entry in chain:
            result = result * torus_class(entry - 1)
    return result


def _holes(graph: DualGraph, v: Vertex) -> int:
    """Points removed from a component: its nodes, marked points, and punctures."""
    return graph.valence(v.id) + graph.legs_at(v.id) + v.punctures


def _chain_series(order: int, leaves: Leaves) -> TruncSeries:
    """Sum of torus products over ordered compositions, per total up to ``order``.

    A chain is empty or a first bubble followed by a chain, so the series
    ``C`` satisfies ``C = 1 + T*C`` with ``T = sum_{a>=1} torus_class(a-1) t^a``
    and is the inverse of ``1 - T``, here taken in the leaves' ring, with
    each torus class at the leaves' image of ``L``; no composition is listed.
    """
    tori = [-torus_class(a - 1, leaves.lefschetz) for a in range(1, order + 1)]
    return TruncSeries([leaves.one] + tori).inverse()


def divisor_series_from_strata(graph: DualGraph, order: int, leaves: Leaves) -> TruncSeries:
    """Classes of the divisor spaces of degree 0 through ``order`` as a sum
    over strata, as one series in the leaves' ring.

    This is the independent counterpart of the closed-form divisorial zeta.
    The sum over all stable pairs of degree d is evaluated slot by slot: the
    ``t^d`` coefficient of the product of one series
    ``sum_d punctured_sym_class(model, holes, d) t^d`` per vertex and one
    chain series of torus classes per edge and leg.  A vertex's series is
    its model's classes (``leaves``, from ``leaf_images(graph, measure,
    order)``), the vertex zeta, times ``(1-t)^holes``.  The factors are
    regrouped by commutativity, every degree at once: ``(1-t)^H``, ``H``
    the holes of all vertices together, times the chain series to the power
    ``|E|+n``, both by repeated squaring, is the narrow part, whose
    coefficients hold only ``L`` symbolically and are stored in display
    order; then each vertex's classes are multiplied on, in ascending model
    order.  A measure is a ring homomorphism, so the product over its
    leaves is its image of the symbolic product.  Under ``SymbolicIdentity`` the ``t^d``
    coefficient equals, term for term, the sum of ``stratum_class`` over
    ``stable_pairs(graph, d)``.
    """
    holes = sum(_holes(graph, v) for v in graph.vertices)
    narrow = RationalFn([leaves.one, -leaves.one]).series(order) ** holes
    chains = graph.num_edges + graph.num_legs
    if chains:
        narrow = narrow * _chain_series(order, leaves) ** chains
    # The kernel pairs the right factor's coefficients from the highest
    # degree down and keeps the left's term order within each pair.  So once
    # the narrow part is stored in display order (its own products are only
    # nearly so, and integers have no term order), each vertex's classes,
    # folded on in ascending model order, become the most significant sort
    # key: with distinct symbolic models every coefficient comes out in the
    # order str() prints it in.
    if isinstance(leaves.one, RingElem):
        narrow = TruncSeries([coeff.in_display_order() for coeff in narrow.coefficients()])
    vertices = sorted(graph.vertices, key=lambda v: v.model.name)
    return reduce(
        operator.mul,
        (TruncSeries(leaves.classes[v.model.name][: order + 1]) for v in vertices),
        narrow,
    )


def divisor_class_from_strata(graph: DualGraph, degree: int) -> RingElem:
    """Class of the degree-d divisor space as a sum over strata, symbolically."""
    leaves = leaf_images(graph, SymbolicIdentity(), degree)
    return divisor_series_from_strata(graph, degree, leaves)[degree]
