"""Stable-pair enumeration and the strata oracle."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divzeta.graph import CurveModel, GraphError, parse_graph
from divzeta.measures import SymbolicIdentity, euler_for_graph, point_count_for_graph
from divzeta.ring import RationalFn, lefschetz, one, sum_elems, sym_pow
from divzeta.strata import (
    StablePair,
    composition_torus_sum,
    compositions,
    divisor_class_from_strata,
    divisor_series_from_strata,
    punctured_sym_class,
    stable_pair_count,
    stable_pairs,
    stratum_class,
    torus_class,
    weak_compositions,
)
from divzeta.zeta import divisorial_zeta_series, node_factor_series

from conftest import (
    battery,
    loop_vertex,
    marked_curve,
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
    assert stable_pair_count(marked_curve(), 2) == 4


def test_two_components_have_seven_strata_in_degree_two():
    assert stable_pair_count(two_components(), 2) == 7


def test_degree_zero_single_empty_pair():
    for graph in (marked_curve(), two_components(), theta_graph()):
        pairs = stable_pairs(graph, 0)
        assert len(pairs) == 1
        assert pairs[0].total_degree() == 0
        assert not any(pairs[0].edge_chains) and not any(pairs[0].leg_chains)


def test_pairs_are_sorted_and_unique():
    for degree in range(5):
        pairs = stable_pairs(theta_graph(), degree)
        keys = [p.sort_key() for p in pairs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(p.total_degree() == degree for p in pairs)


def test_pair_count_growth():
    for graph in (marked_curve(), two_components(), theta_graph()):
        counts = [stable_pair_count(graph, d) for d in range(7)]
        assert counts[0] == 1
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_dump_golden_marked_curve_degree_two():
    lines = [pair.dump(marked_curve()) for pair in stable_pairs(marked_curve(), 2)]
    assert lines == [
        "v:{} e:{} l:{leg0:[1,1]}",
        "v:{} e:{} l:{leg0:[2]}",
        "v:{m:1} e:{} l:{leg0:[1]}",
        "v:{m:2} e:{} l:{}",
    ]


def test_dump_golden_two_components_degree_two():
    lines = [
        pair.dump(two_components()) for pair in stable_pairs(two_components(), 2)
    ]
    assert lines == [
        "v:{} e:{e0:[1,1]} l:{}",
        "v:{} e:{e0:[2]} l:{}",
        "v:{w:1} e:{e0:[1]} l:{}",
        "v:{w:2} e:{} l:{}",
        "v:{u:1} e:{e0:[1]} l:{}",
        "v:{u:1,w:1} e:{} l:{}",
        "v:{u:2} e:{} l:{}",
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
    p1 = CurveModel.projective_line("p")
    for d in range(1, 6):
        assert punctured_sym_class(p1, 2, d) == torus_class(d)
    m = CurveModel.symbolic("m", 3)
    assert punctured_sym_class(m, 0, 2) == sym_pow("m", 2)
    assert punctured_sym_class(m, 2, 1) == sym_pow("m", 1) - 2


def test_stratum_classes_on_marked_curve():
    graph = marked_curve(2)
    by_dump = {p.dump(graph): p for p in stable_pairs(graph, 2)}
    expected = sym_pow("m", 2) - sym_pow("m", 1)
    assert stratum_class(graph, by_dump["v:{m:2} e:{} l:{}"]) == expected
    assert stratum_class(graph, by_dump["v:{} e:{} l:{leg0:[1,1]}"]) == one()
    assert stratum_class(graph, by_dump["v:{} e:{} l:{leg0:[2]}"]) == L - 1


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
    series = node_factor_series(8)
    for d in range(1, 9):
        assert composition_torus_sum(d) == series[d]


def test_oracle_matches_closed_form_smoke():
    graph = two_components(2)
    series = divisorial_zeta_series(graph, 4)
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
    assert stable_pair_count(graph, degree) == len(stable_pairs(graph, degree))


@pytest.mark.parametrize("name", sorted(battery()))
def test_factorized_oracle_matches_enumeration_on_battery(name):
    for degree in range(7):
        assert_matches_enumeration(battery()[name], degree)


def test_factorized_oracle_rejects_negative_degree():
    with pytest.raises(ValueError):
        divisor_class_from_strata(marked_curve(), -1)
    with pytest.raises(ValueError):
        divisor_series_from_strata(marked_curve(), -1, SymbolicIdentity())
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

# Weil numerators for the symbolic models, by genus, at q = 7 and at q = 4.
# The genus-2 numerator at q = 7 has degree below 2g.
_NUMERATORS = {
    7: {0: [1], 1: [1, -3, 7], 2: [1, -1]},
    4: {0: [1], 1: [1, 3, 4], 2: [1, 1, 1, 4, 16]},
}


def _oracle_measures(graph):
    yield euler_for_graph(graph)
    symbolic = {v.model.name: v.genus for v in graph.vertices if v.model.kind == "symbolic"}
    for q, numerators in _NUMERATORS.items():
        extra = {name: numerators[genus] for name, genus in symbolic.items()}
        yield point_count_for_graph(graph, q, extra)


@pytest.mark.parametrize("name", sorted(_SERIES_GRAPHS))
def test_oracle_series_matches_oracle_classes(name):
    graph = _SERIES_GRAPHS[name]
    order = 6
    series = divisor_series_from_strata(graph, order, SymbolicIdentity())
    assert series.order == order
    for degree in range(order + 1):
        assert series[degree] == divisor_class_from_strata(graph, degree)
    # The measure applied to each slot's classes (early) or to the symbolic
    # coefficients (late) gives the same integers.
    for measure in _oracle_measures(graph):
        early = divisor_series_from_strata(graph, order, measure).coefficients()
        assert all(type(c) is int for c in early)
        assert list(early) == measure.of_series(series), measure.name
