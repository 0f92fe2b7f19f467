"""Command-line interface.

Three modes over a dual-graph JSON document:

* ``compute``: coefficients of a chosen zeta function up to ``--max-degree``
  plus its unreduced rational form, optionally specialized by a measure.
  Under ``euler`` or ``point-count`` the closed form runs over the integers
  from the measure's images of its leaves.
* ``verify``: compare the strata-enumeration oracle against the closed-form
  divisorial coefficients degree by degree.  Each column is one series
  through ``--max-degree``, computed in the measure's ring.
* ``count-strata``: the number of stable pairs per degree.

Each mode builds one report of raw values (``RingElem`` or ``int``) under a
shared ``graph``/``mode`` header; it is written either as indented JSON, ring
elements in their canonical text form, or as plain text.  A verified row of
``verify`` holds the oracle's element in both columns, and both writers
render through a ``_Render``, which reuses the text of the element it
rendered last, so each verified coefficient is rendered once.

Exit codes: 0 success/verified, 1 usage error (including a
``--max-degree`` above ``MAX_DEGREE_LIMIT``), 2 validation error,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graph import DualGraph, GraphError, load_graph, total_genus
from .measures import (
    PRIME_POWER_LIMIT,
    MeasureError,
    MotivicMeasure,
    SymbolicIdentity,
    euler_for_graph,
    point_count_for_graph,
)
from .ring import RingElem, TPoly
# ``divisor_class_from_strata`` is not called here, but the benchmark's tracer
# (perfbench/tracer.py) patches ``cli.divisor_class_from_strata``, and its
# self-test fails if the name does not resolve.
from .strata import divisor_class_from_strata, divisor_series_from_strata, stable_pair_count
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

# The largest --max-degree accepted.  Series products are quadratic in the
# degree over the integers and far worse symbolically, so a larger degree is
# refused before the graph is read rather than left to run without end.
MAX_DEGREE_LIMIT = 1000


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


def parse_config(argv: list[str] | None = None) -> argparse.Namespace:
    """The validated arguments, with ``numerators`` decoded and ``zeta`` a ``ZetaKind``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_degree < 0:
        parser.error("--max-degree must be nonnegative")
    if args.max_degree > MAX_DEGREE_LIMIT:
        parser.error(f"--max-degree {args.max_degree} exceeds the limit of {MAX_DEGREE_LIMIT}")
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
    if args.numerators is not None:
        if args.measure != "point-count":
            parser.error("--numerators only applies to --measure point-count")
        try:
            args.numerators = json.loads(args.numerators)
        except json.JSONDecodeError as exc:
            parser.error(f"--numerators is not valid JSON: {exc}")
        if not isinstance(args.numerators, dict) or not all(
            isinstance(v, list)
            and all(isinstance(c, int) and not isinstance(c, bool) for c in v)
            for v in args.numerators.values()
        ):
            parser.error("--numerators must map model ids to integer lists")
    args.zeta = ZetaKind(args.zeta)
    return args


def _build_measure(args: argparse.Namespace, graph: DualGraph) -> MotivicMeasure:
    if args.measure == "euler":
        return euler_for_graph(graph)
    if args.measure == "point-count":
        return point_count_for_graph(graph, args.q, args.numerators)
    return SymbolicIdentity()


def _graph_summary(graph: DualGraph) -> dict:
    return {
        "vertices": len(graph.vertices),
        "edges": graph.num_edges,
        "legs": graph.num_legs,
        "genus": total_genus(graph),
    }


def _compute(args: argparse.Namespace, graph: DualGraph, measure: MotivicMeasure) -> dict:
    kind, order = args.zeta, args.max_degree
    wants_series = args.output != "rational"
    if args.measure == "symbolic":
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
    report = {"zeta": kind.value, "max_degree": order, "measure": args.measure}
    if wants_series:
        report["coefficients"] = series.coefficients()
    report["rational"] = {"numerator": numerator, "denominator": denominator}
    return report


def _verify(args: argparse.Namespace, graph: DualGraph, measure: MotivicMeasure) -> dict:
    order = args.max_degree
    # Both columns in the measure's ring, every degree in one pass.  Only the
    # rational form reads the classes up to t^2g, so the closed column's
    # leaves stop at max_degree.
    oracle = divisor_series_from_strata(graph, order, measure)
    leaves = leaf_images(graph, measure, order, rational=False)
    closed = zeta_series_image(ZetaKind.DIVISORIAL, graph, order, leaves)
    zero = leaves.one - leaves.one  # "0" symbolically, 0 under a measure
    rows = []
    for degree in range(order + 1):
        verified = oracle[degree] == closed[degree]  # no difference built unless it fails
        rows.append(
            {
                "degree": degree,
                "oracle": oracle[degree],
                # A verified row shows one element twice; sharing the object
                # lets the renderer write its text once.
                "closed": oracle[degree] if verified else closed[degree],
                "difference": zero if verified else oracle[degree] - closed[degree],
            }
        )
    return {
        "max_degree": order,
        "measure": args.measure,
        "degrees": rows,
        "verified": all(row["difference"] == 0 for row in rows),
    }


def _count(args: argparse.Namespace, graph: DualGraph, measure: MotivicMeasure) -> dict:
    counts = [stable_pair_count(graph, degree) for degree in range(args.max_degree + 1)]
    return {"max_degree": args.max_degree, "counts": counts}


_MODES = {"compute": _compute, "verify": _verify, "count-strata": _count}


class _Render:
    """``str`` of report values, reusing the last text when handed the same
    object again.

    A one-slot memo keyed on identity, one per written report: it hashes no
    coefficient and keeps one value alive, which is all a verified row needs.
    """

    __slots__ = ("_last", "_text")

    def __init__(self):
        self._last, self._text = None, "None"

    def __call__(self, value) -> str:
        if value is not self._last:
            self._last, self._text = value, str(value)
        return self._text

    def json_value(self, value) -> str:
        """``json.dumps`` hook: a ring element as its canonical text."""
        if isinstance(value, RingElem):
            return self(value)
        raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _text(report: dict) -> str:
    graph = " ".join(f"{key}={value}" for key, value in report["graph"].items())
    lines = [f"graph: {graph}"]
    if report["mode"] == "compute":
        lines.append(f"zeta: {report['zeta']}  measure: {report['measure']}")
        coefficients = report.get("coefficients", ())
        lines += [f"t^{degree}: {value}" for degree, value in enumerate(coefficients)]
        rational = report["rational"]
        lines.append(
            f"rational: ({TPoly(rational['numerator'])})"
            f" / ({TPoly(rational['denominator'])})"
        )
    elif report["mode"] == "verify":
        render = _Render()
        lines += [
            f"d={row['degree']}: oracle={render(row['oracle'])}"
            f" closed={render(row['closed'])} diff={row['difference']}"
            for row in report["degrees"]
        ]
        lines.append(f"verified: {'OK' if report['verified'] else 'MISMATCH'}")
    else:
        lines += [f"d={degree}: {count}" for degree, count in enumerate(report["counts"])]
    return "\n".join(lines)


def _digit_limit_message(args: argparse.Namespace) -> str:
    flags = f"--max-degree ({args.max_degree})"
    if args.q is not None:
        flags += f" or --q ({args.q})"
    return (
        f"a result has more than {sys.get_int_max_str_digits()} decimal digits,"
        f" Python's limit for printing an integer; lower {flags}"
    )


def run(args: argparse.Namespace) -> int:
    try:
        graph = load_graph(args.input, allow_unstable=args.allow_unstable)
    except OSError as exc:
        print(f"divzeta: cannot read input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GraphError as exc:
        print(f"divzeta: invalid graph: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        measure = _build_measure(args, graph)
        report = {"graph": _graph_summary(graph), "mode": args.mode}
        report.update(_MODES[args.mode](args, graph, measure))
    except (MeasureError, ValueError) as exc:
        print(f"divzeta: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # Rendered in full before anything is printed: str() of an int past
    # Python's digit limit raises ValueError, and stdout stays empty.
    try:
        if args.output == "json":
            text = json.dumps(report, indent=2, default=_Render().json_value)
        else:
            text = _text(report)
    except ValueError:
        print(f"divzeta: {_digit_limit_message(args)}", file=sys.stderr)
        return EXIT_VALIDATION
    print(text)
    return EXIT_OK if report.get("verified", True) else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_config(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
