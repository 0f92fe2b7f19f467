"""Argument parsing: the getopt table against the argparse parser it replaced,
and the modules a command loads before any math runs."""

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divzeta.cli import MAX_DEGREE_LIMIT, main, parse_config
from divzeta.measures import PRIME_POWER_LIMIT
from divzeta.zeta import ZetaKind

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# -- the reference: the argparse parser and checks that getopt replaced --------


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _reference_parser():
    parser = _ReferenceParser(
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
        "--output", choices=["coefficients", "rational", "json"], default="coefficients"
    )
    parser.add_argument("--allow-unstable", action="store_true")
    return parser


def reference_config(argv):
    parser = _reference_parser()
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
    args.zeta = ZetaKind(args.zeta)
    return args


def _outcome(parse, argv):
    """(vars of the config, or the exit code), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# -- the argv vocabulary -------------------------------------------------------

# Values per option: ones each parser takes, then ones it refuses.  Both
# parsers take every int for --q, prime power or not, the limit included
# (``PointCount`` refuses a field size after parsing), so "x" is its only
# refusal.  A value for --input never looks like an option (see the pinned
# divergence below), and "--" is never a value after "=": argparse before
# 3.12 parses "--q=--" as an empty list.
VALUES = {
    "input": (["g.json", "", "a b", "-1", "-", "x=y"], []),
    "mode": (["compute", "verify", "count-strata"], ["fly", "", "Verify", "comp", "--zeta"]),
    "zeta": (["divisorial", "hilbert", "kapranov-nodal"], ["kapranov", "-x"]),
    "max-degree": (["0", "3", "1000", " 4", "+2", "1_0", "\u0663"],
                   ["1001", "-1", "-3", "x", "2.5", "", "-x"]),
    "measure": (["symbolic", "euler", "point-count"], ["points"]),
    "q": (["3", "4", "7", "6", "0", "-3", str(PRIME_POWER_LIMIT)], ["x"]),
    "output": (["coefficients", "rational", "json"], ["text"]),
}
NAMES = list(VALUES) + ["allow-unstable", "help"]


def _spellings(name):
    """The full flag and every unique prefix of it (as argparse and getopt see them)."""
    full = f"--{name}"
    return [full[:n] for n in range(3, len(full) + 1)
            if full[:n] == full or sum(f"--{o}".startswith(full[:n]) for o in NAMES) == 1]


def _option(name):
    spelling = st.sampled_from(_spellings(name))
    good, bad = VALUES[name]
    value = st.sampled_from(good * 4 + bad)  # mostly accepted lines
    return st.one_of(
        st.builds(lambda s, v: [s, v], spelling, value),
        st.builds(lambda s, v: [f"{s}={v}"], spelling, value),
    )


ITEMS = st.one_of(
    *[_option(name) for name in VALUES],
    # The flag bare, or refused with a value.
    st.sampled_from(_spellings("allow-unstable")).flatmap(
        lambda s: st.sampled_from([[s], [s], [f"{s}=x"], [f"{s}="]])
    ),
    st.sampled_from([
        ["--m", "verify"], ["--m=3"],  # ambiguous prefix
        ["y"], ["a b"], ["-"], [""], ["-3"],  # stray positionals
        ["--foo"], ["-x"], ["--inputs", "g.json"], ["---mode", "verify"],  # unknown flags
        ["--numerators", '{"m": [1]}'], ['--numerators={"m": [1]}'],  # no such option
        ["--"], ["--", "--input", "g.json"],
    ]),
)
# An option that needs a value, given none, only at the end of the line: in the
# middle it would take the next word as its value.
DANGLING = st.sampled_from([[]] * 6 + [["--input"], ["--max-degree"], ["--mode"], ["--q"]])


@st.composite
def argvs(draw):
    items = draw(st.lists(ITEMS, max_size=6))
    if draw(st.integers(0, 4)):  # --input, most of the time
        items.insert(0, draw(_option("input")))
    return [word for item in items for word in item] + draw(DANGLING)


@settings(max_examples=400, deadline=None)
@given(argvs())
# Both parsers accept any int for --q: PointCount judges it when the measure
# is built, the limit included.
@example(["--input", "g.json", "--measure", "point-count", "--q", str(PRIME_POWER_LIMIT)])
def test_getopt_table_decides_like_argparse(argv):
    expected, expected_out, expected_err = _outcome(reference_config, argv)
    got, out, err = _outcome(parse_config, argv)
    assert expected_out == ""
    assert got == expected
    if got == 1:
        assert out == ""
        assert err.splitlines()[-1].startswith("divzeta: error: ")
        # divzeta's own checks print the same message; argparse's differ in wording.
        if expected_err.splitlines()[-1].startswith("divzeta: error: --"):
            assert err.splitlines()[-1] == expected_err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h"],
        ["--he"],
        ["--input", "g.json", "-h"],
        ["-h", "--mode", "fly"],  # help is read before the bad choice
        ["--mode", "fly", "-h"],  # the bad choice is read first
        ["--max-degree", "x", "--help"],
        ["y", "-h"],  # positionals are refused only after every option is read
    ],
)
def test_help_exits_like_argparse(argv):
    expected, _, _ = _outcome(reference_config, argv)
    got, out, err = _outcome(parse_config, argv)
    assert got == expected
    if got == 0:
        assert err == ""
        assert out.startswith("usage: divzeta [-h] --input INPUT [--mode {")
        for name in NAMES:
            assert f"--{name}" in out
    else:
        assert out == ""


def test_main_exits_zero_on_help(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: divzeta") and captured.err == ""


def test_known_divergences_from_argparse():
    # A value that looks like an option is taken as the value; argparse
    # refused it as a missing argument.
    assert _outcome(reference_config, ["--input", "-x"])[0] == 1
    assert parse_config(["--input", "-x"]).input == "-x"
    # A malformed option is refused before any --help is read; argparse
    # reported an unknown option only after reading the whole line.
    assert _outcome(reference_config, ["--foo", "-h"])[0] == 0
    assert _outcome(parse_config, ["--foo", "-h"])[0] == 1


def test_a_double_dash_after_equals_is_a_plain_value(capsys):
    # argparse before 3.12 turned "--q=--" and "--input=--" into empty lists,
    # which crashed the checks and the file read with a TypeError.
    assert main(["--input", "g.json", "--measure", "point-count", "--q=--"]) == 1
    assert "invalid int value: '--'" in capsys.readouterr().err
    assert main(["--input=--"]) == 2
    assert "cannot read input" in capsys.readouterr().err


def test_accepted_forms():
    full = vars(parse_config(["--input", "g.json", "--max-degree", "3", "--output", "json"]))
    assert vars(parse_config(["--inp=g.json", "--max", "3", "--out=json"])) == full
    assert vars(parse_config(["--input", "x", "--output", "rational", "--input", "g.json",
                              "--max-degree=5", "--output=json", "--max-d", "3"])) == full


# -- what a command loads --------------------------------------------------------

FORBIDDEN = ("argparse", "dataclasses", "inspect", "locale", "typing")


def test_parsing_a_typical_command_loads_no_heavy_module():
    # A fresh interpreter without site (which imports typing on some installs).
    code = (
        "import sys\n"
        "from divzeta.cli import parse_config\n"
        "parse_config(['--input', 'g.json', '--mode', 'verify', '--max-degree', '8',"
        " '--measure', 'point-count', '--q', '7', '--output', 'json'])\n"
        f"print([name for name in {FORBIDDEN!r} if name in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert result.stdout.strip() == "[]"
