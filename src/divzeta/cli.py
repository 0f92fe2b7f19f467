"""Command-line interface.

Three modes over a dual-graph JSON document:

* ``compute``: coefficients of a chosen zeta function up to ``--max-degree``
  plus its unreduced rational form, optionally specialized by a measure.
  Under ``euler`` or ``point-count`` the rational form is built over the
  integers from each model's classes through ``t^2g``, and the coefficients
  are its expansion.
* ``verify``: compare the strata-enumeration oracle against the closed-form
  divisorial coefficients degree by degree.  Each column is one series
  through ``--max-degree``, computed in the measure's ring; under a measure
  the closed column is the expansion of the rational form ``compute``
  prints.
* ``count-strata``: the number of stable pairs per degree.

``compute`` and ``verify`` each call ``measures.leaf_images`` once, and
every builder they use (``zeta_rational``, ``zeta_series``,
``divisor_series_from_strata``) reads those leaves.  A measure is built
from ``--measure`` and ``--q`` alone (``_build_measure``), in every mode;
the ``q`` and the models it refuses are the rules of ``measures``, and a
refusal exits 2.  ``count-strata`` applies the measure to no model.

Each mode builds one report of raw values (``RingElem`` or ``int``) under a
shared ``graph``/``mode`` header; it is written either as indented JSON, ring
elements in their canonical text form, or as plain text.  A verified row of
``verify`` holds the oracle's element in both columns, and both writers
render through a ``_Render``, which reuses the text of the element it
rendered last, so each verified coefficient is rendered once.

Arguments are long options, read with ``getopt`` against one table
(``_OPTIONS``) of defaults and value types, in the forms argparse accepted:
``--flag value``, ``--flag=value``, any unique prefix of a flag, and the last
of a repeated flag wins.  ``-h``/``--help`` prints the usage to stdout.  A
value is taken as given even when it looks like an option (``--input -x``
reads the file ``-x``), where argparse refused it.  The package imports
neither ``argparse`` nor ``dataclasses``: every call runs in a fresh
interpreter, and those two were most of the package's import time.

Exit codes: 0 success/verified (and ``--help``), 1 usage error (including
a ``--max-degree`` above ``MAX_DEGREE_LIMIT``), 2 validation error (and an
input that cannot be read or output that cannot be written: a closed pipe
or a full disk), 3 verification mismatch.
"""

from __future__ import annotations

import getopt
import json
import os
import sys
from types import SimpleNamespace

from .graph import DualGraph, GraphError, load_graph, total_genus
from .measures import (
    EulerCharacteristic,
    MotivicMeasure,
    PointCount,
    SymbolicIdentity,
    leaf_images,
)
from .ring import RationalFn, RingElem
# ``divisor_class_from_strata`` is not called here, but the benchmark's tracer
# (perfbench/tracer.py) patches ``cli.divisor_class_from_strata``, and its
# self-test fails if the name does not resolve.
from .strata import divisor_class_from_strata, divisor_series_from_strata, stable_pair_count
from .zeta import ZetaKind, zeta_rational, zeta_series

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3

# The largest --max-degree accepted.  The oracle's series products are
# quadratic in the degree over the integers, and the closed form is far worse
# symbolically, so a larger degree is refused before the graph is read rather
# than left to run without end.
MAX_DEGREE_LIMIT = 1000


# One entry per long option: its default, then its choices, ``int`` or
# ``str`` for the value it takes, or None for a flag that takes none.
_OPTIONS = {
    "input": (None, str),
    "mode": ("compute", ("compute", "verify", "count-strata")),
    "zeta": ("divisorial", ("divisorial", "hilbert", "kapranov-nodal")),
    "max-degree": (10, int),
    "measure": ("symbolic", ("symbolic", "euler", "point-count")),
    "q": (None, int),
    "output": ("coefficients", ("coefficients", "rational", "json")),
    "allow-unstable": (False, None),
}
_LONG_OPTIONS = ["help"] + [
    name if kind is None else f"{name}=" for name, (_, kind) in _OPTIONS.items()
]
# What --help says of each option that has no choices to list.
_NOTES = {
    "input": "path to the dual-graph JSON (required)",
    "q": "field size for point counting",
    "allow-unstable": "accept a smooth one-vertex graph that is not stable",
}
_HELP_HEAD = """
Motivic zeta functions of stable marked curves from dual graphs.

options (each may be shortened to a unique prefix):
  -h, --help        show this message and exit
"""


def _usage() -> str:
    words = ["[-h]"]
    for name, (default, kind) in _OPTIONS.items():
        if kind is None:
            word = f"--{name}"
        elif isinstance(kind, tuple):
            word = f"--{name} {{{','.join(kind)}}}"
        else:
            word = f"--{name} {'N' if kind is int else name.upper()}"
        words.append(word if name == "input" else f"[{word}]")
    lines, line = [], "usage: divzeta"
    for word in words:
        if len(line) + 1 + len(word) > 79:
            lines.append(line)
            line = " " * len("usage: divzeta")
        line += " " + word
    return "\n".join(lines + [line]) + "\n"


def _usage_error(message: str) -> SystemExit:
    """Print the usage and ``message`` to stderr; the exit to raise."""
    sys.stderr.write(_usage())
    print(f"divzeta: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _help() -> str:
    lines = [
        f"  --{name:<16}{_NOTES.get(name) or f'default: {default}'}\n"
        for name, (default, _) in _OPTIONS.items()
    ]
    return _usage() + _HELP_HEAD + "".join(lines)


def _option_value(name: str, text: str) -> object:
    kind = _OPTIONS[name][1]
    if kind is None:
        return True
    if kind is str:
        return text
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _usage_error(f"argument --{name}: invalid int value: {text!r}") from None
    if text not in kind:
        choices = ", ".join(map(repr, kind))
        raise _usage_error(
            f"argument --{name}: invalid choice: {text!r} (choose from {choices})"
        )
    return text


def parse_config(argv: list[str] | None = None) -> SimpleNamespace:
    """The validated arguments, with ``zeta`` a ``ZetaKind``.

    Options are read in order, and the last of a repeated option wins.
    ``-h``/``--help`` prints the usage and exits 0; a usage error prints the
    usage and the error to stderr and exits 1 (``SystemExit``).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # A lone "--" ends the options, and everything from it on is positional:
    # refused below, like any positional, since the command takes none.
    cut = argv.index("--") if "--" in argv else len(argv)
    try:
        options, stray = getopt.gnu_getopt(argv[:cut], "h", _LONG_OPTIONS)
    except getopt.GetoptError as exc:
        raise _usage_error(str(exc)) from None
    values = {name: default for name, (default, _) in _OPTIONS.items()}
    for flag, text in options:
        if flag in ("-h", "--help"):
            print(_help(), end="")
            raise SystemExit(EXIT_OK)
        values[flag[2:]] = _option_value(flag[2:], text)
    args = SimpleNamespace(**{name.replace("-", "_"): value for name, value in values.items()})
    if args.input is None:
        raise _usage_error("the following arguments are required: --input")
    if stray or cut < len(argv):
        raise _usage_error(f"unrecognized arguments: {' '.join(stray + argv[cut:])}")
    if args.max_degree < 0:
        raise _usage_error("--max-degree must be nonnegative")
    if args.max_degree > MAX_DEGREE_LIMIT:
        raise _usage_error(
            f"--max-degree {args.max_degree} exceeds the limit of {MAX_DEGREE_LIMIT}"
        )
    if args.mode == "verify" and args.zeta != "divisorial":
        raise _usage_error("--mode verify only applies to the divisorial zeta")
    if args.measure == "point-count" and args.q is None:
        raise _usage_error("--measure point-count requires --q")
    if args.measure != "point-count" and args.q is not None:
        raise _usage_error("--q only applies to --measure point-count")
    args.zeta = ZetaKind(args.zeta)
    return args


def _build_measure(args: SimpleNamespace) -> MotivicMeasure:
    if args.measure == "euler":
        return EulerCharacteristic()
    if args.measure == "point-count":
        return PointCount(args.q)
    return SymbolicIdentity()


def _graph_summary(graph: DualGraph) -> dict:
    return {
        "vertices": len(graph.vertices),
        "edges": graph.num_edges,
        "legs": graph.num_legs,
        "genus": total_genus(graph),
    }


def _compute(args: SimpleNamespace, graph: DualGraph, measure: MotivicMeasure) -> dict:
    kind, order = args.zeta, args.max_degree
    # A measure is a ring homomorphism: it is applied once, to the leaves of
    # the closed form, and both forms are built from them.  Only the
    # symbolic series reads the leaves through max_degree; the rational form
    # reads them through t^2g.
    symbolic_series = args.measure == "symbolic" and args.output != "rational"
    leaves = leaf_images(graph, measure, order if symbolic_series else 0)
    fn = zeta_rational(kind, graph, leaves)
    report = {"zeta": kind.value, "max_degree": order, "measure": args.measure}
    if args.output != "rational":
        # Under a measure every class series is the expansion of a numerator
        # of degree at most 2g over (1-t)(1-l t), so the printed rational form
        # expands to the series at every order, by one recurrence linear in
        # max_degree.  In free generators the two agree only through t^2g.
        if symbolic_series:
            series = zeta_series(kind, graph, order, leaves)
        else:
            series = fn.series(order)
        report["coefficients"] = series.coefficients()
    report["rational"] = {"numerator": fn.numerator, "denominator": fn.denominator}
    return report


def _verify(args: SimpleNamespace, graph: DualGraph, measure: MotivicMeasure) -> dict:
    order = args.max_degree
    # Both columns in the measure's ring, every degree in one pass, from one
    # set of leaves.  Under a measure the closed column expands the rational
    # form that compute prints; the leaves read the classes up to t^2g, so a
    # model the measure does not realize fails here at every degree, as in
    # compute.
    leaves = leaf_images(graph, measure, order)
    if args.measure == "symbolic":
        closed = zeta_series(ZetaKind.DIVISORIAL, graph, order, leaves)
    else:
        closed = zeta_rational(ZetaKind.DIVISORIAL, graph, leaves).series(order)
    zero = closed[0] - closed[0]  # "0" symbolically, 0 under a measure
    oracle = divisor_series_from_strata(graph, order, leaves)
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


def _count(args: SimpleNamespace, graph: DualGraph, measure: MotivicMeasure) -> dict:
    counts = stable_pair_count(graph, args.max_degree)
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
        lines.append(f"rational: {RationalFn(rational['numerator'], rational['denominator'])}")
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


def _digit_limit_message(args: SimpleNamespace) -> str:
    flags = f"--max-degree ({args.max_degree})"
    if args.q is not None:
        flags += f" or --q ({args.q})"
    return (
        f"a result has more than {sys.get_int_max_str_digits()} decimal digits,"
        f" Python's limit for printing an integer; lower {flags}"
    )


def run(args: SimpleNamespace) -> int:
    try:
        graph = load_graph(args.input, allow_unstable=args.allow_unstable)
    except OSError as exc:
        print(f"divzeta: cannot read input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GraphError as exc:
        print(f"divzeta: invalid graph: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        measure = _build_measure(args)
        report = {"graph": _graph_summary(graph), "mode": args.mode}
        report.update(_MODES[args.mode](args, graph, measure))
    except ValueError as exc:
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
    # A closed pipe or a full disk is reported like an unreadable input.
    # After a broken pipe stdout points at the null device, so the flush at
    # interpreter exit has nowhere to fail.
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"divzeta: cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK if report.get("verified", True) else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_config(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
