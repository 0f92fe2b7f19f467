"""Command-line interface.

Three modes over a dual-graph JSON document:

* ``compute``: coefficients of a chosen zeta function up to ``--max-degree``
  plus its unreduced rational form, optionally specialized by a measure.
  Under ``euler`` or ``point-count`` the closed form runs over the integers
  from the measure's images of its leaves; the symbolic run and ``verify``
  keep the symbolic ring.
* ``verify``: compare the strata-enumeration oracle against the closed-form
  divisorial coefficients degree by degree.
* ``count-strata``: the number of stable pairs per degree.

Exit codes: 0 success/verified, 1 usage error, 2 validation error,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .graph import DualGraph, GraphError, load_graph, total_genus
from .measures import (
    PRIME_POWER_LIMIT,
    MeasureError,
    MotivicMeasure,
    SymbolicIdentity,
    euler_for_graph,
    point_count_for_graph,
)
from .ring import RingElem
from .strata import divisor_class_from_strata, stable_pair_count
from .zeta import (
    ZetaKind,
    leaf_images,
    rational_coefficients,
    zeta_rational,
    zeta_rational_image,
    zeta_series,
    zeta_series_image,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3


@dataclass
class RunConfig:
    input_path: str
    mode: str = "compute"
    zeta: ZetaKind = ZetaKind.DIVISORIAL
    max_degree: int = 10
    measure: str = "symbolic"
    q: int | None = None
    numerators: dict[str, list[int]] | None = None
    output: str = "coefficients"
    allow_unstable: bool = False


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="divzeta",
        description="Motivic zeta functions of stable marked curves from dual graphs.",
    )
    parser.add_argument("--input", required=True, help="path to the dual-graph JSON")
    parser.add_argument(
        "--mode", choices=["compute", "verify", "count-strata"], default="compute"
    )
    parser.add_argument(
        "--zeta",
        choices=["divisorial", "hilbert", "kapranov-nodal"],
        default="divisorial",
    )
    parser.add_argument("--max-degree", type=int, default=10, metavar="N")
    parser.add_argument(
        "--measure", choices=["symbolic", "euler", "point-count"], default="symbolic"
    )
    parser.add_argument("--q", type=int, help="field size for point counting")
    parser.add_argument(
        "--numerators",
        help="JSON object mapping model ids to Weil numerator coefficients",
    )
    parser.add_argument(
        "--output", choices=["coefficients", "rational", "json"], default="coefficients"
    )
    parser.add_argument("--allow-unstable", action="store_true")
    return parser


def parse_config(argv: list[str] | None = None) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_degree < 0:
        parser.error("--max-degree must be nonnegative")
    if args.mode == "verify" and args.zeta != "divisorial":
        parser.error("--mode verify only applies to the divisorial zeta")
    if args.measure == "point-count" and args.q is None:
        parser.error("--measure point-count requires --q")
    if args.measure != "point-count" and args.q is not None:
        parser.error("--q only applies to --measure point-count")
    if args.q is not None and args.q >= PRIME_POWER_LIMIT:
        parser.error(
            f"--q {args.q} is too large: the prime-power test is exact only"
            f" below {PRIME_POWER_LIMIT}"
        )
    numerators = None
    if args.numerators is not None:
        if args.measure != "point-count":
            parser.error("--numerators only applies to --measure point-count")
        try:
            numerators = json.loads(args.numerators)
        except json.JSONDecodeError as exc:
            parser.error(f"--numerators is not valid JSON: {exc}")
        if not isinstance(numerators, dict) or not all(
            isinstance(v, list)
            and all(isinstance(c, int) and not isinstance(c, bool) for c in v)
            for v in numerators.values()
        ):
            parser.error("--numerators must map model ids to integer lists")
    return RunConfig(
        input_path=args.input,
        mode=args.mode,
        zeta=ZetaKind(args.zeta),
        max_degree=args.max_degree,
        measure=args.measure,
        q=args.q,
        numerators=numerators,
        output=args.output,
        allow_unstable=args.allow_unstable,
    )


def _build_measure(config: RunConfig, graph: DualGraph) -> MotivicMeasure:
    if config.measure == "euler":
        return euler_for_graph(graph)
    if config.measure == "point-count":
        return point_count_for_graph(graph, config.q, config.numerators)
    return SymbolicIdentity()


def _render(value) -> str | int:
    return str(value) if isinstance(value, RingElem) else value


def _graph_summary(graph: DualGraph) -> dict:
    return {
        "vertices": len(graph.vertices),
        "edges": graph.num_edges,
        "legs": graph.num_legs,
        "genus": total_genus(graph),
    }


def _summary_line(graph: DualGraph) -> str:
    info = _graph_summary(graph)
    return (
        f"graph: vertices={info['vertices']} edges={info['edges']}"
        f" legs={info['legs']} genus={info['genus']}"
    )


def _run_compute(config: RunConfig, graph: DualGraph, measure: MotivicMeasure) -> int:
    kind, order = config.zeta, config.max_degree
    wants_series = config.output != "rational"
    if isinstance(measure, SymbolicIdentity):
        series = zeta_series(kind, graph, order) if wants_series else None
        fn = zeta_rational(kind, graph)
    else:
        # A measure is a ring homomorphism: map the leaves of the closed form
        # and run it over the integers.  The leaves reach max_degree even when
        # only the rational form is printed, so an unrealized model fails the
        # same way in every output mode.
        leaves = leaf_images(graph, measure, order)
        series = zeta_series_image(kind, graph, order, leaves) if wants_series else None
        fn = zeta_rational_image(kind, graph, leaves)
    numerator, denominator = rational_coefficients(kind, graph, fn)
    if config.output == "json":
        print(
            json.dumps(
                {
                    "graph": _graph_summary(graph),
                    "mode": "compute",
                    "zeta": kind.value,
                    "max_degree": order,
                    "measure": config.measure,
                    "coefficients": [_render(v) for v in series.coefficients()],
                    "rational": {
                        "numerator": [_render(c) for c in numerator],
                        "denominator": [_render(c) for c in denominator],
                    },
                },
                indent=2,
            )
        )
        return EXIT_OK
    print(_summary_line(graph))
    print(f"zeta: {kind.value}  measure: {config.measure}")
    if wants_series:
        for degree, value in enumerate(series.coefficients()):
            print(f"t^{degree}: {_render(value)}")
    print(f"rational: {fn}")
    return EXIT_OK


def _run_verify(config: RunConfig, graph: DualGraph, measure: MotivicMeasure) -> int:
    rows = []
    verified = True
    closed = zeta_series(ZetaKind.DIVISORIAL, graph, config.max_degree)
    for degree in range(config.max_degree + 1):
        oracle = divisor_class_from_strata(graph, degree)
        difference = measure.of_elem(oracle - closed[degree])
        zero_diff = (
            difference.is_zero if isinstance(difference, RingElem) else difference == 0
        )
        verified = verified and zero_diff
        rows.append(
            {
                "degree": degree,
                "oracle": _render(measure.of_elem(oracle)),
                "closed": _render(measure.of_elem(closed[degree])),
                "difference": _render(difference),
            }
        )
    if config.output == "json":
        print(
            json.dumps(
                {
                    "graph": _graph_summary(graph),
                    "mode": "verify",
                    "max_degree": config.max_degree,
                    "measure": config.measure,
                    "degrees": rows,
                    "verified": verified,
                },
                indent=2,
            )
        )
    else:
        print(_summary_line(graph))
        for row in rows:
            print(
                f"d={row['degree']}: oracle={row['oracle']}"
                f" closed={row['closed']} diff={row['difference']}"
            )
        print(f"verified: {'OK' if verified else 'MISMATCH'}")
    return EXIT_OK if verified else EXIT_MISMATCH


def _run_count(config: RunConfig, graph: DualGraph) -> int:
    pair_counts = [
        stable_pair_count(graph, degree) for degree in range(config.max_degree + 1)
    ]
    if config.output == "json":
        print(
            json.dumps(
                {
                    "graph": _graph_summary(graph),
                    "mode": "count-strata",
                    "max_degree": config.max_degree,
                    "counts": pair_counts,
                },
                indent=2,
            )
        )
    else:
        print(_summary_line(graph))
        for degree, count in enumerate(pair_counts):
            print(f"d={degree}: {count}")
    return EXIT_OK


def run(config: RunConfig) -> int:
    try:
        graph = load_graph(config.input_path, allow_unstable=config.allow_unstable)
    except OSError as exc:
        print(f"divzeta: cannot read input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GraphError as exc:
        print(f"divzeta: invalid graph: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        measure = _build_measure(config, graph)
        if config.mode == "compute":
            return _run_compute(config, graph, measure)
        if config.mode == "verify":
            return _run_verify(config, graph, measure)
        return _run_count(config, graph)
    except (MeasureError, ValueError) as exc:
        print(f"divzeta: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
