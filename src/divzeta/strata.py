"""Brute-force enumeration of divisor strata on a dual graph.

A stratum of the degree-d divisor space is indexed by a stable pair: a
subdivision of the dual graph together with a degree assignment that is at
least 1 on every exceptional vertex.  Concretely that is a nonnegative
degree per original vertex, an ordered composition per edge (the degrees
along the chain of exceptional bubbles subdividing it, read along the
edge's stored orientation), and an ordered composition per leg (the chain
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
degree at once, in the ring of a motivic measure: each factor is mapped
before the slots are multiplied, so a measured product runs over the
integers.  ``divisor_class_from_strata`` is its symbolic coefficient of one
degree, and ``stable_pair_count`` counts the pairs the same way;
``stable_pairs`` and ``stratum_class`` are the literal enumeration they are
tested against at small degree.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator

from .graph import DualGraph, Vertex
from .measures import MotivicMeasure, SymbolicIdentity
from .ring import RingElem, TruncSeries, lefschetz, one, sum_elems
from .zeta import one_minus_t, vertex_zeta_series


@dataclass(frozen=True)
class StablePair:
    """One stratum: degrees on original vertices plus chain compositions.

    Entries align with ``graph.vertices``, ``graph.edges``, and
    ``graph.legs`` by position.  Chain entries are all positive.
    """

    vertex_degrees: tuple[int, ...]
    edge_chains: tuple[tuple[int, ...], ...]
    leg_chains: tuple[tuple[int, ...], ...]

    def total_degree(self) -> int:
        return (
            sum(self.vertex_degrees)
            + sum(map(sum, self.edge_chains))
            + sum(map(sum, self.leg_chains))
        )

    def sort_key(self) -> tuple:
        return (self.vertex_degrees, self.edge_chains, self.leg_chains)

    def dump(self, graph: DualGraph) -> str:
        """One-line form, e.g. ``v:{v1:2} e:{} l:{leg0:[1,1]}``."""
        vparts = [
            f"{v.id}:{deg}"
            for v, deg in zip(graph.vertices, self.vertex_degrees)
            if deg
        ]
        eparts = [
            f"e{i}:[{','.join(map(str, chain))}]"
            for i, chain in enumerate(self.edge_chains)
            if chain
        ]
        lparts = [
            f"leg{i}:[{','.join(map(str, chain))}]"
            for i, chain in enumerate(self.leg_chains)
            if chain
        ]
        return (
            f"v:{{{','.join(vparts)}}}"
            f" e:{{{','.join(eparts)}}}"
            f" l:{{{','.join(lparts)}}}"
        )


@lru_cache(maxsize=None)
def compositions(total: int) -> tuple[tuple[int, ...], ...]:
    """All ordered compositions of ``total``; only the empty one for 0."""
    if total < 0:
        raise ValueError("cannot compose a negative total")
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


def stable_pairs(graph: DualGraph, degree: int) -> list[StablePair]:
    """All stable pairs of the given total degree, sorted by ``sort_key``.

    The total degree is split over vertices, edges, and legs by weak
    compositions; each edge or leg share then expands into every ordered
    composition.  Chain reversal is never quotiented out.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    num_v = len(graph.vertices)
    num_e = graph.num_edges
    num_l = graph.num_legs
    pairs = []
    for split in weak_compositions(degree, num_v + num_e + num_l):
        vertex_degrees = split[:num_v]
        edge_options = [compositions(s) for s in split[num_v : num_v + num_e]]
        leg_options = [compositions(s) for s in split[num_v + num_e :]]
        for edge_chains in itertools.product(*edge_options):
            for leg_chains in itertools.product(*leg_options):
                pairs.append(StablePair(vertex_degrees, edge_chains, leg_chains))
    pairs.sort(key=StablePair.sort_key)
    return pairs


def stable_pair_count(graph: DualGraph, degree: int) -> int:
    """Number of stable pairs of the given degree, without enumerating them.

    A vertex takes any degree, ``1/(1-t)``; an edge or leg takes an ordered
    composition, of which a positive total ``s`` has ``2^(s-1)``, giving
    ``(1-t)/(1-2t)``.  The count is the ``t^degree`` coefficient of
    ``(1-t)^(-|V|) * ((1-t)/(1-2t))^(|E|+n)``.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    vertex = TruncSeries([1] * (degree + 1))
    chain = TruncSeries([1] + [2 ** (s - 1) for s in range(1, degree + 1)])
    factors = [vertex] * len(graph.vertices) + [chain] * (graph.num_edges + graph.num_legs)
    return reduce(operator.mul, factors)[degree]


def torus_class(m: int) -> RingElem:
    """Class of the m-th symmetric power of the one-dimensional torus."""
    if m < 0:
        raise ValueError("symmetric-power index must be nonnegative")
    if m == 0:
        return one()
    return lefschetz() ** m - lefschetz() ** (m - 1)


@lru_cache(maxsize=None)
def punctured_sym_class(model, holes: int, degree: int) -> RingElem:
    """Class of the degree-d symmetric power of a component minus ``holes`` points.

    Coefficient of ``t^degree`` in the vertex zeta times ``(1-t)^holes``.
    """
    series = vertex_zeta_series(model, 0, degree) * one_minus_t(degree) ** holes
    return series[degree]


def stratum_class(graph: DualGraph, pair: StablePair) -> RingElem:
    """Product of component classes and torus classes over one stable pair.

    Each original vertex contributes the class of its punctured symmetric
    power, where the punctured locus removes the nodes, marked points, and
    punctures; each chain entry ``a`` contributes the torus class of index
    ``a - 1``.
    """
    result = one()
    for v, deg in zip(graph.vertices, pair.vertex_degrees):
        result = result * punctured_sym_class(v.model, _holes(graph, v), deg)
    for chain in pair.edge_chains + pair.leg_chains:
        for entry in chain:
            result = result * torus_class(entry - 1)
    return result


def _holes(graph: DualGraph, v: Vertex) -> int:
    """Points removed from a component: its nodes, marked points, and punctures."""
    return graph.valence(v.id) + graph.legs_at(v.id) + v.punctures


def _chain_series(order: int, measure: MotivicMeasure) -> TruncSeries:
    """Sum of torus products over ordered compositions, per total up to ``order``.

    A chain is empty or a first bubble followed by a chain, so the series
    ``C`` satisfies ``C = 1 + T*C`` with ``T = sum_{a>=1} torus_class(a-1) t^a``
    and is the inverse of ``1 - T``, here taken in ``measure``'s ring; no
    composition is listed.
    """
    image = measure.of_elem
    tori = [-image(torus_class(a - 1)) for a in range(1, order + 1)]
    return TruncSeries([image(one())] + tori).inverse()


def divisor_series_from_strata(
    graph: DualGraph, order: int, measure: MotivicMeasure
) -> TruncSeries:
    """Classes of the divisor spaces of degree 0 through ``order`` as a sum
    over strata, as one series in ``measure``'s ring.

    This is the independent counterpart of the closed-form divisorial zeta.
    The sum over all stable pairs of degree d is evaluated slot by slot: the
    ``t^d`` coefficient of the product of one series
    ``sum_d punctured_sym_class(model, holes, d) t^d`` per vertex and one
    chain series of torus classes per edge and leg.  A measure is a ring
    homomorphism, so each slot's classes are mapped before the product is
    taken.  Under ``SymbolicIdentity`` the ``t^d`` coefficient equals, term
    for term, the sum of ``stratum_class`` over ``stable_pairs(graph, d)``.
    """
    if order < 0:
        raise ValueError("degree must be nonnegative")
    image = measure.of_elem
    factors = [
        TruncSeries(
            image(punctured_sym_class(v.model, _holes(graph, v), d)) for d in range(order + 1)
        )
        for v in graph.vertices
    ]
    factors += [_chain_series(order, measure)] * (graph.num_edges + graph.num_legs)
    return reduce(operator.mul, factors)


def divisor_class_from_strata(graph: DualGraph, degree: int) -> RingElem:
    """Class of the degree-d divisor space as a sum over strata, symbolically."""
    return divisor_series_from_strata(graph, degree, SymbolicIdentity())[degree]


def composition_torus_sum(degree: int) -> RingElem:
    """Sum over ordered compositions of ``degree`` of products of torus classes.

    Equals the ``t^degree`` coefficient of the node factor.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    total = []
    for alpha in compositions(degree):
        product = one()
        for entry in alpha:
            product = product * torus_class(entry - 1)
        total.append(product)
    return sum_elems(total)
