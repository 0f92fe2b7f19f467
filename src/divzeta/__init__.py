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
)
from .ring import (
    Generator,
    RationalFn,
    RingElem,
    TruncSeries,
    lefschetz,
    one,
    parse_elem,
    sym_pow,
    zero,
)
from .strata import (
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
    "SymbolicIdentity",
    "TruncSeries",
    "Vertex",
    "ZetaKind",
    "divisor_class_from_strata",
    "divisor_series_from_strata",
    "graph_to_json",
    "lefschetz",
    "load_graph",
    "one",
    "parse_elem",
    "parse_graph",
    "punctured_sym_class",
    "stable_pair_count",
    "stable_pairs",
    "stratum_class",
    "sym_pow",
    "torus_class",
    "total_genus",
    "zero",
    "zeta_rational",
    "zeta_series",
]
