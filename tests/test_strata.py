"""Stable-pair enumeration and the strata oracle."""

import operator
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divzeta.ring as ring
import divzeta.strata as strata
import divzeta.zeta as zeta
from divzeta.graph import CurveModel, DualGraph, GraphError, Vertex, parse_graph
from divzeta.measures import (
    EulerCharacteristic,
    MeasureError,
    PointCount,
    SymbolicIdentity,
    leaf_images,
)
from divzeta.ring import RationalFn, TruncSeries, lefschetz, one, sum_elems, sym_pow
from divzeta.strata import (
    compositions,
    divisor_class_from_strata,
    divisor_series_from_strata,
    punctured_sym_class,
    stable_pair_count,
    stable_pairs,
    stratum_class,
    _chain_series,
    _holes,
    torus_class,
    weak_compositions,
)
from divzeta.zeta import ZetaKind, zeta_series

from conftest import (
    battery,
    composition_torus_sum,
    declare_weil,
    free_leaves,
    loop_vertex,
    marked_curve,
    node_factor_rational,
    one_minus_t_coefficient,
    theta_graph,
    two_components,
    vertex,
)

L = lefschetz()


# -- combinatorial generators --------------------------------------------------


def test_compositions():
    assert compositions(0) == ((),)
    assert compositions(1) == ((1,),)
    assert set(compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}
    assert len(compositions(6)) == 32  # 2^(n-1)


def test_weak_compositions():
    assert list(weak_compositions(0, 0)) == [()]
    assert list(weak_compositions(2, 0)) == []
    assert sorted(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]


# -- enumeration ----------------------------------------------------------------


def test_marked_curve_has_four_strata_in_degree_two():
    assert stable_pair_count(marked_curve(), 2)[2] == 4


def test_two_components_have_seven_strata_in_degree_two():
    assert stable_pair_count(two_components(), 2)[2] == 7


def total_degree(pair):
    vertex_degrees, edge_chains, leg_chains = pair
    return sum(vertex_degrees) + sum(map(sum, edge_chains + leg_chains))


def test_degree_zero_single_empty_pair():
    for graph in (marked_curve(), two_components(), theta_graph()):
        pairs = stable_pairs(graph, 0)
        assert len(pairs) == 1
        assert total_degree(pairs[0]) == 0
        _, edge_chains, leg_chains = pairs[0]
        assert not any(edge_chains) and not any(leg_chains)


def test_pairs_are_sorted_and_unique():
    for degree in range(5):
        pairs = stable_pairs(theta_graph(), degree)
        assert pairs == sorted(pairs)
        assert len(set(pairs)) == len(pairs)
        assert all(total_degree(p) == degree for p in pairs)


def test_pair_count_growth():
    for graph in (marked_curve(), two_components(), theta_graph()):
        counts = stable_pair_count(graph, 6)
        assert counts[0] == 1
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_pairs_golden_marked_curve_degree_two():
    # (vertex degrees, edge chains, leg chains); an empty chain is ().
    assert stable_pairs(marked_curve(), 2) == [
        ((0,), (), ((1, 1),)),
        ((0,), (), ((2,),)),
        ((1,), (), ((1,),)),
        ((2,), (), ((),)),
    ]


def test_pairs_golden_two_components_degree_two():
    assert stable_pairs(two_components(), 2) == [
        ((0, 0), ((1, 1),), ()),
        ((0, 0), ((2,),), ()),
        ((0, 1), ((1,),), ()),
        ((0, 2), ((),), ()),
        ((1, 0), ((1,),), ()),
        ((1, 1), ((),), ()),
        ((2, 0), ((),), ()),
    ]


# -- classes ---------------------------------------------------------------------


def test_torus_class_values():
    assert torus_class(0) == one()
    assert torus_class(1) == L - 1
    assert torus_class(3) == L**3 - L**2


def test_torus_class_matches_torus_zeta_expansion():
    expansion = RationalFn([1, -1], [1, -L]).series(10)
    for d in range(11):
        assert torus_class(d) == expansion[d]


def test_punctured_sym_class():
    p1 = CurveModel("p1", "p", 0)
    for d in range(1, 6):
        assert punctured_sym_class(p1, 2, d) == torus_class(d)
    m = CurveModel("symbolic", "m", 3)
    assert punctured_sym_class(m, 0, 2) == sym_pow("m", 2)
    assert punctured_sym_class(m, 2, 1) == sym_pow("m", 1) - 2


def test_stratum_classes_on_marked_curve():
    graph = marked_curve(2)
    whole = ((2,), (), ((),))
    two_bubbles = ((0,), (), ((1, 1),))
    one_bubble = ((0,), (), ((2,),))
    assert {whole, two_bubbles, one_bubble} <= set(stable_pairs(graph, 2))
    assert all(total_degree(p) == 2 for p in (whole, two_bubbles, one_bubble))
    assert stratum_class(graph, whole) == sym_pow("m", 2) - sym_pow("m", 1)
    assert stratum_class(graph, two_bubbles) == one()
    assert stratum_class(graph, one_bubble) == L - 1


def test_oracle_sums():
    assert divisor_class_from_strata(marked_curve(2), 0) == one()
    assert divisor_class_from_strata(marked_curve(2), 1) == sym_pow("m", 1)
    assert divisor_class_from_strata(loop_vertex(1), 1) == sym_pow("m", 1) - 1


def test_composition_torus_sum_values():
    assert composition_torus_sum(1) == one()
    assert composition_torus_sum(2) == L
    assert composition_torus_sum(3) == L**2 + L - 1
    with pytest.raises(ValueError):
        composition_torus_sum(0)


def test_composition_torus_sum_matches_node_factor():
    series = node_factor_rational().series(8)
    for d in range(1, 9):
        assert composition_torus_sum(d) == series[d]


def test_oracle_matches_closed_form_smoke():
    graph = two_components(2)
    series = zeta_series(ZetaKind.DIVISORIAL, graph, 4, free_leaves(graph, 4))
    for d in range(5):
        assert divisor_class_from_strata(graph, d) == series[d]


def test_sum_is_partition_independent():
    graph = theta_graph()
    pairs = stable_pairs(graph, 4)
    forward = one() * 0
    for pair in pairs:
        forward = forward + stratum_class(graph, pair)
    backward = one() * 0
    for pair in reversed(pairs):
        backward = backward + stratum_class(graph, pair)
    assert forward == backward == divisor_class_from_strata(graph, 4)


# -- factorized oracle against literal enumeration -----------------------------------


def literal_class(graph, degree):
    return sum_elems(stratum_class(graph, pair) for pair in stable_pairs(graph, degree))


def assert_matches_enumeration(graph, degree):
    assert divisor_class_from_strata(graph, degree) == literal_class(graph, degree)
    assert stable_pair_count(graph, degree)[degree] == len(stable_pairs(graph, degree))


@pytest.mark.parametrize("name", sorted(battery()))
def test_factorized_oracle_matches_enumeration_on_battery(name):
    for degree in range(7):
        assert_matches_enumeration(battery()[name], degree)


def _pair_count_reference(graph, order):
    """``(1-t)^(-|V|) * ((1-t)/(1-2t))^(|E|+n)`` as a product of integer series."""
    vertex = TruncSeries([1] * (order + 1))
    chain = TruncSeries([1] + [2 ** (s - 1) for s in range(1, order + 1)])
    factors = [vertex] * len(graph.vertices) + [chain] * (graph.num_edges + graph.num_legs)
    return reduce(operator.mul, factors)


_COUNT_GRAPHS = {
    **battery(),
    "chain4": parse_graph(
        {
            "vertices": [vertex(name, 1) for name in "abcd"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
        }
    ),
}


def _pair_count_binomial_sum(graph, degree):
    """The count of one degree as a sum of products of binomials:
    ``(1-t)^(K-|V|) * (1-2t)^(-K)`` with ``K = |E|+n``, since
    ``[t^j] (1-2t)^(-K) = 2^j [t^j] (1-t)^(-K)``."""
    chains = graph.num_edges + graph.num_legs
    free = chains - len(graph.vertices)
    return sum(
        one_minus_t_coefficient(free, i)
        * 2 ** (degree - i)
        * one_minus_t_coefficient(-chains, degree - i)
        for i in range(degree + 1)
    )


@pytest.mark.parametrize("name", sorted(_COUNT_GRAPHS))
def test_pair_count_matches_the_series_product(name):
    # The closed-form counts against the per-slot series product they sum
    # and the per-degree binomial sums, far past the degrees the literal
    # enumeration reaches.
    graph = _COUNT_GRAPHS[name]
    order = 60
    counts = stable_pair_count(graph, order)
    assert counts == list(_pair_count_reference(graph, order).coefficients())
    assert counts == [_pair_count_binomial_sum(graph, degree) for degree in range(order + 1)]


def test_factorized_oracle_rejects_negative_degree():
    with pytest.raises(ValueError):
        divisor_class_from_strata(marked_curve(), -1)
    with pytest.raises(ValueError):
        divisor_series_from_strata(marked_curve(), -1, free_leaves(marked_curve()))
    with pytest.raises(ValueError):
        stable_pair_count(marked_curve(), -1)


@st.composite
def small_graphs(draw):
    """Connected dual graphs with at most 3 vertices, 3 edges, and 2 legs."""
    ids = ["a", "b", "c"][: draw(st.integers(1, 3))]
    vertices = []
    for vid in ids:
        genus = draw(st.integers(0, 2))
        model = {"type": "p1"} if genus == 0 and draw(st.booleans()) else None
        vertices.append(vertex(vid, genus, model, draw(st.integers(0, 1))))
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


@given(small_graphs(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_factorized_oracle_matches_enumeration_on_random_graphs(graph, degree):
    assert_matches_enumeration(graph, degree)


# -- the oracle series in a measure's ring ---------------------------------------------


def _series_graphs():
    graphs = battery()
    graphs["punctured"] = parse_graph(
        {
            "vertices": [
                vertex("u", 0, {"type": "p1"}, punctures=2),
                vertex("w", 1, {"type": "elliptic", "trace": 2}, punctures=1),
            ],
            "edges": [["u", "w"], ["u", "w"], ["u", "w"]],
        }
    )
    graphs["legs"] = parse_graph(
        {
            "vertices": [
                vertex("a", 2, {"type": "weil", "numerator": [1, -1]}),
                vertex("b", 1),
            ],
            "edges": [["a", "b"]],
            "legs": ["a", "a", "b"],
        }
    )
    return graphs


_SERIES_GRAPHS = _series_graphs()


def test_the_oracle_imports_nothing_from_the_closed_form():
    # The oracle takes its leaves from measures, and the closed form builds
    # on the public ring API only.
    from_zeta = [name for name, value in vars(strata).items()
                 if getattr(value, "__module__", None) == "divzeta.zeta"]
    assert from_zeta == []
    private = [value for name, value in vars(ring).items()
               if name.startswith("_") and not name.startswith("__")]
    from_ring = [name for name, value in vars(zeta).items()
                 if any(value is item for item in private)]
    assert from_ring == []


def test_literal_reference_reads_no_closed_form_builder(monkeypatch):
    # The literal sum over stable pairs stays independent of the closed
    # form: with every closed-form builder broken, it still equals the
    # factorized oracle on the battery, the projective line, the punctures
    # and the legs included.
    punctured_sym_class.cache_clear()

    def broken(*args, **kwargs):
        raise AssertionError("the literal reference called a closed-form builder")

    for name in ("zeta_series", "zeta_rational", "_graph_scalar"):
        monkeypatch.setattr(zeta, name, broken)
    for name, graph in sorted(_SERIES_GRAPHS.items()):
        for degree in range(5):
            assert literal_class(graph, degree) == divisor_class_from_strata(graph, degree), name

# Weil numerators for the symbolic models, by genus, at q = 7 and at q = 4.
# The genus-2 numerator at q = 7 has degree below 2g.
_NUMERATORS = {
    7: {0: [1], 1: [1, -3, 7], 2: [1, -1]},
    4: {0: [1], 1: [1, 3, 4], 2: [1, 1, 1, 4, 16]},
}


def _oracle_measures(graph):
    """Each integer measure, with ``graph`` as that measure reads it: point
    counting with the symbolic models declared as weil models."""
    yield EulerCharacteristic(), graph
    for q, numerators in _NUMERATORS.items():
        yield PointCount(q), declare_weil(graph, numerators)


def test_oracle_refuses_an_unrealized_model_at_every_order():
    # The leaves reach t^2g, as the closed form's do, so degree 0 fails too.
    graph = marked_curve(2)
    counting = PointCount(3)
    for order in (0, 3):
        with pytest.raises(MeasureError, match=r"c\[m,1\]"):
            leaf_images(graph, counting, order)
    declared = declare_weil(graph, {2: [1, -1]})
    leaves = leaf_images(declared, counting, 0)
    series = divisor_series_from_strata(declared, 0, leaves)
    assert series.order == 0 and series[0] == 1


@pytest.mark.parametrize("name", sorted(_SERIES_GRAPHS))
def test_oracle_series_matches_oracle_classes(name):
    graph = _SERIES_GRAPHS[name]
    order = 6
    series = divisor_series_from_strata(graph, order, free_leaves(graph, order))
    assert series.order == order
    for degree in range(order + 1):
        assert series[degree] == divisor_class_from_strata(graph, degree)
    # The measure applied to each slot's classes (early) or to the symbolic
    # coefficients (late) gives the same integers.
    for measure, declared in _oracle_measures(graph):
        leaves = leaf_images(declared, measure, order)
        early = divisor_series_from_strata(declared, order, leaves).coefficients()
        assert all(type(c) is int for c in early)
        late = [measure.of_elem(c, declared.models) for c in series.coefficients()]
        assert list(early) == late, type(measure).__name__


def _punctured_vertex(v, holes):
    """``v`` alone, its holes as punctures: a graph whose oracle series is
    the vertex factor, with no chain series."""
    return DualGraph((Vertex(v.id, v.model, holes),), (), ())


@pytest.mark.parametrize("name", sorted(_SERIES_GRAPHS))
def test_vertex_factor_is_the_punctured_classes(name):
    # The oracle's one product per vertex gives, at every degree, the class
    # the literal reference computes one degree at a time; under a measure,
    # its image.
    graph = _SERIES_GRAPHS[name]
    order = 6
    for v in graph.vertices:
        holes = _holes(graph, v)
        alone = _punctured_vertex(v, holes)
        classes = [punctured_sym_class(v.model, holes, d) for d in range(order + 1)]
        factor = divisor_series_from_strata(alone, order, free_leaves(alone, order))
        assert list(factor.coefficients()) == classes, v.id
        for measure, declared in _oracle_measures(alone):
            leaves = leaf_images(declared, measure, order)
            image = divisor_series_from_strata(declared, order, leaves).coefficients()
            late = [measure.of_elem(c, declared.models) for c in classes]
            assert list(image) == late, (v.id, type(measure).__name__)


def _chain_series_reference(order, measure):
    """The chain series as the oracle built it from symbolic torus classes,
    each mapped by the measure as a finished element."""
    tori = [-measure.of_elem(torus_class(a - 1), {}) for a in range(1, order + 1)]
    return TruncSeries([measure.of_elem(one(), {})] + tori).inverse()


@given(st.integers(0, 16), st.sampled_from(["symbolic", "euler", 2, 3, 4, 5, 7, 8, 9, 25, 27]))
@settings(max_examples=80, deadline=None)
def test_chain_series_from_the_leaves_is_the_measured_torus_series(order, which):
    # The chain series reads the image of L from the leaves; it must equal
    # the measure's image of the symbolic series, coefficient by coefficient.
    graph = declare_weil(theta_graph(), {0: [1]})
    if which == "symbolic":
        measure = SymbolicIdentity()
    elif which == "euler":
        measure = EulerCharacteristic()
    else:
        measure = PointCount(which)
    leaves = leaf_images(graph, measure, order)
    assert _chain_series(order, leaves) == _chain_series_reference(order, measure)


def _factor_by_factor(graph, order, leaves):
    """The oracle series as the product of its slots in graph order: every
    vertex factor, then one chain series per edge and leg."""
    alone = [_punctured_vertex(v, _holes(graph, v)) for v in graph.vertices]
    factors = [divisor_series_from_strata(vertex, order, leaves) for vertex in alone]
    factors += [_chain_series(order, leaves)] * (graph.num_edges + graph.num_legs)
    return reduce(operator.mul, factors)


_ORDER_GRAPHS = {
    **_COUNT_GRAPHS,
    "no-chains": parse_graph({"vertices": [vertex("m", 2, punctures=1)]}),
}


@pytest.mark.parametrize("name", sorted(_ORDER_GRAPHS))
def test_oracle_product_order_is_immaterial(name):
    # The oracle multiplies its narrow factors first, (1-t) to the total
    # number of holes and the chain series to |E|+n, and then folds on each
    # vertex's classes in ascending model order; the slot-by-slot product
    # must give the same series, shared and p1 models included.
    graph = _ORDER_GRAPHS[name]
    for order, measure in [(10, SymbolicIdentity()), (40, EulerCharacteristic())]:
        leaves = leaf_images(graph, measure, order)
        series = divisor_series_from_strata(graph, order, leaves)
        assert series == _factor_by_factor(graph, order, leaves), type(measure).__name__


def _stored_in_display_order(series):
    """Whether every coefficient of ``series`` stores its terms in the
    order ``str`` prints them in."""
    for coeff in series.coefficients():
        stored = [mono for mono, _ in coeff.terms()]
        if stored != [mono for mono, _ in coeff.in_display_order().terms()]:
            return False
    return True


@pytest.mark.parametrize("name", sorted(battery()))
def test_oracle_stores_each_coefficient_in_display_order(name):
    # Each battery graph has distinct symbolic models, so each vertex's
    # classes fold on as the largest generators yet and the kernel emits
    # every term in display order: str then sorts in one pass.
    graph = battery()[name]
    series = divisor_series_from_strata(graph, 8, free_leaves(graph, 8))
    assert _stored_in_display_order(series)


@st.composite
def distinct_model_graphs(draw):
    """Connected graphs on 1-3 vertices with distinct symbolic models, whose
    names come in an order other than the vertices'."""
    names = draw(st.permutations(["z", "a", "q"]))[: draw(st.integers(1, 3))]
    ids = [f"v{index}" for index in range(len(names))]
    vertices = [
        vertex(vid, draw(st.integers(0, 2)), {"type": "symbolic", "id": name},
               draw(st.integers(0, 1)))
        for vid, name in zip(ids, names)
    ]
    edges = [[u, w] for u, w in zip(ids, ids[1:])]
    extra = st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                     max_size=3 - len(edges))
    edges += [list(pair) for pair in draw(extra)]
    legs = draw(st.lists(st.sampled_from(ids), max_size=2))
    try:
        return parse_graph({"vertices": vertices, "edges": edges, "legs": legs})
    except GraphError:
        assume(False)


@given(distinct_model_graphs(), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_oracle_display_order_on_random_graphs(graph, order):
    series = divisor_series_from_strata(graph, order, free_leaves(graph, order))
    assert _stored_in_display_order(series)
