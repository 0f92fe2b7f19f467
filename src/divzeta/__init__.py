"""Exact computation of motivic zeta functions of stable marked curves.

The package computes divisorial, Hilbert, and Kapranov motivic zeta
functions of a nodal curve from its dual graph, and independently verifies
the divisorial closed form by brute-force enumeration of divisor strata.

Everything is exact: coefficients live in the ring of integer polynomials
in the Lefschetz class and free symmetric-power generators, realized to
plain integers by point-count or Euler-characteristic measures.  All values
are immutable and all operations are pure functions, so any object may be
shared across threads freely.
"""

from .graph import (
    CurveModel,
    DualGraph,
    GraphError,
    Vertex,
    graph_to_json,
    load_graph,
    parse_graph,
    total_genus,
)
from .measures import (
    EulerCharacteristic,
    MeasureError,
    MotivicMeasure,
    PointCount,
    SymbolicIdentity,
    apply_measure,
    euler_for_graph,
    point_count_for_graph,
    weil_series,
)
from .ring import (
    Generator,
    RationalFn,
    RingElem,
    TPoly,
    TruncSeries,
    lefschetz,
    one,
    parse_elem,
    sym_pow,
    zero,
)
from .strata import (
    StablePair,
    composition_torus_sum,
    divisor_class_from_strata,
    divisor_series_from_strata,
    punctured_sym_class,
    stable_pair_count,
    stable_pairs,
    stratum_class,
    torus_class,
)
from .zeta import (
    ZetaKind,
    divisorial_zeta_rational,
    divisorial_zeta_series,
    hilbert_zeta_rational,
    hilbert_zeta_series,
    nodal_zeta_rational,
    nodal_zeta_series,
    node_factor_rational,
    node_factor_series,
    smooth_zeta_series,
    vertex_zeta_rational,
    vertex_zeta_series,
    zeta_rational,
    zeta_series,
)

__version__ = "0.1.0"

__all__ = [
    "CurveModel",
    "DualGraph",
    "EulerCharacteristic",
    "Generator",
    "GraphError",
    "MeasureError",
    "MotivicMeasure",
    "PointCount",
    "RationalFn",
    "RingElem",
    "StablePair",
    "SymbolicIdentity",
    "TPoly",
    "TruncSeries",
    "Vertex",
    "ZetaKind",
    "apply_measure",
    "composition_torus_sum",
    "divisor_class_from_strata",
    "divisor_series_from_strata",
    "divisorial_zeta_rational",
    "divisorial_zeta_series",
    "euler_for_graph",
    "graph_to_json",
    "hilbert_zeta_rational",
    "hilbert_zeta_series",
    "lefschetz",
    "load_graph",
    "nodal_zeta_rational",
    "nodal_zeta_series",
    "node_factor_rational",
    "node_factor_series",
    "one",
    "parse_elem",
    "parse_graph",
    "point_count_for_graph",
    "punctured_sym_class",
    "smooth_zeta_series",
    "stable_pair_count",
    "stable_pairs",
    "stratum_class",
    "sym_pow",
    "torus_class",
    "total_genus",
    "vertex_zeta_rational",
    "vertex_zeta_series",
    "weil_series",
    "zero",
    "zeta_rational",
    "zeta_series",
]
