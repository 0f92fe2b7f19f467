"""Shared graph factories for the test suite, hypothesis profiles, and
independent integer expansions.

``HYPOTHESIS_PROFILE=ci`` selects the CI profile: derandomized, so every run
draws the same examples, and without a deadline, since shared runners are
slow.  Example counts stay as each test sets them.

``free_leaves`` gives a graph's leaves in free generators, which the
symbolic closed forms and oracle read (``zeta_series``, ``zeta_rational``,
``divisor_series_from_strata``).

``weil_series`` and ``one_minus_t_coefficient`` are the hand-written
expansions the package used before every expansion became one recurrence
(``RationalFn.series``); they stay here, unchanged, as references that share
no code with it.

``node_factor_rational`` and ``vertex_zeta_series`` are small references
for the closed forms' node factor and one component's zeta, built by no
closed-form builder; ``composition_torus_sum`` is the node factor's
coefficient as a literal sum over compositions of torus classes.
"""

import math
import os
from collections.abc import Sequence

from hypothesis import settings

from divzeta.graph import CurveModel, DualGraph, Vertex, parse_graph
from divzeta.measures import SymbolicIdentity, leaf_images
from divzeta.ring import RationalFn, TruncSeries, lefschetz, one, sum_elems
from divzeta.strata import compositions, torus_class

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def free_leaves(graph, order=0):
    """``graph``'s leaves under ``SymbolicIdentity``, through ``t^order``."""
    return leaf_images(graph, SymbolicIdentity(), order)


def node_factor_rational():
    """The per-node (and per-mark) factor ``(1 - L*t) / (1 - L*t - t + t^2)``."""
    lef = lefschetz()
    return RationalFn([1, -lef], [1, -(lef + 1), 1])


def composition_torus_sum(degree):
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


def vertex_zeta_series(model, order):
    """Kapranov zeta of one normalized component through ``t^order``: the
    model's classes in free generators (a projective line's
    ``1 + L + ... + L^d``)."""
    return TruncSeries(SymbolicIdentity().class_series(model, order))


def weil_series(numerator: Sequence[int], q: int, order: int) -> list[int]:
    """Truncated expansion of ``P(t) / ((1-t)(1-q t))`` over the integers.

    ``q = 1`` is accepted for expansion checks.
    """
    numerator = list(numerator)
    if not numerator or numerator[0] != 1:
        raise ValueError("numerator must have constant term 1")
    if q < 1:
        raise ValueError("q must be a positive integer")
    # 1/((1-t)(1-qt)) has coefficient 1 + q + ... + q^d.
    base = []
    power_sum = 0
    power = 1
    for _ in range(order + 1):
        power_sum += power
        power *= q
        base.append(power_sum)
    return [
        sum(numerator[i] * base[d - i] for i in range(min(d, len(numerator) - 1) + 1))
        for d in range(order + 1)
    ]


def one_minus_t_coefficient(exponent: int, degree: int) -> int:
    """Coefficient of ``t^degree`` in ``(1-t)**exponent`` for any integer exponent."""
    if degree < 0:
        return 0
    if exponent >= 0:
        return (-1) ** degree * math.comb(exponent, degree)
    return math.comb(degree - exponent - 1, degree)


def vertex(vid, genus, model=None, punctures=0):
    out = {"id": vid, "genus": genus, "punctures": punctures}
    if model is not None:
        out["model"] = model
    return out


def declare_weil(graph, by_genus):
    """``graph`` with each symbolic model declared as a weil model whose
    numerator is ``by_genus[genus]``: the curves point counting realizes."""
    models = {
        name: CurveModel.weil(name, by_genus[model.genus], model.genus)
        if model.kind == "symbolic" else model
        for name, model in graph.models.items()
    }
    vertices = tuple(
        Vertex(v.id, models[v.model.name], v.punctures) for v in graph.vertices
    )
    return DualGraph(vertices, graph.edges, graph.legs)


def marked_curve(genus=2):
    """One smooth component with one marked point (four strata in degree 2)."""
    return parse_graph({"vertices": [vertex("m", genus)], "legs": ["m"]})


def two_components(genus=2):
    """Two smooth components meeting in one node (seven strata in degree 2)."""
    return parse_graph(
        {"vertices": [vertex("u", genus), vertex("w", genus)], "edges": [["u", "w"]]}
    )


def loop_vertex(genus=1):
    """One component with a self-node."""
    return parse_graph({"vertices": [vertex("m", genus)], "edges": [["m", "m"]]})


def parallel_edges(genus=1):
    """Two components joined by two nodes."""
    return parse_graph(
        {
            "vertices": [vertex("u", genus), vertex("w", genus)],
            "edges": [["u", "w"], ["u", "w"]],
        }
    )


def theta_graph():
    """Two rational components joined by three nodes."""
    return parse_graph(
        {
            "vertices": [vertex("u", 0), vertex("w", 0)],
            "edges": [["u", "w"], ["u", "w"], ["u", "w"]],
        }
    )


def two_marks(genus=2):
    """One smooth component with two marked points."""
    return parse_graph({"vertices": [vertex("m", genus)], "legs": ["m", "m"]})


def battery():
    """The six-graph verification battery."""
    return {
        "loop-on-genus-1": loop_vertex(1),
        "marked-genus-2": marked_curve(2),
        "two-components-genus-2": two_components(2),
        "parallel-edges-genus-1": parallel_edges(1),
        "theta": theta_graph(),
        "genus-2-two-marks": two_marks(2),
    }
