"""Byte-exact CLI reports: stdout and exit code replayed against golden files.

Every case runs ``main`` on one of three graphs (a twice-punctured projective
line, a weil model whose numerator has degree below 2g, and the battery's
theta graph with its rational components declared as weil models of
numerator 1), in every mode, output and measure, at degree 0 and 2.  The
expected stdout and exit code of each case are in ``cli_golden.json``; to
re-record them from the current code, run ``python tests/test_cli_golden.py``
with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from divzeta.cli import main

from conftest import vertex

GOLDEN = Path(__file__).with_name("cli_golden.json")

GRAPHS = {
    "torus": {"vertices": [vertex("g", 0, {"type": "p1"}, punctures=2)]},
    "weil": {
        "vertices": [vertex("u", 2, {"type": "weil", "numerator": [1, -1]})],
        "legs": ["u"],
    },
    "theta": {
        "vertices": [vertex(name, 0, {"type": "weil", "numerator": [1]}) for name in "uw"],
        "edges": [["u", "w"]] * 3,
    },
}
GRAPH_ARGS = {"torus": ["--allow-unstable"], "weil": [], "theta": []}
POINT_COUNT = ["--measure", "point-count", "--q", "3"]
MEASURE_ARGS = {"symbolic": [], "euler": ["--measure", "euler"], "point-count": POINT_COUNT}
# Cases run on another graph than the one their id names: the theta graph with
# symbolic models, which point counting does not realize.
OTHER_GRAPHS = {
    "theta/compute/unrealized": {
        "vertices": [vertex("u", 0), vertex("w", 0)],
        "edges": [["u", "w"]] * 3,
    },
}


def _cases() -> dict[str, list[str]]:
    """Case id -> argv after ``--input``."""
    cases = {}
    for graph in GRAPHS:
        runs = [("compute", kind, measure)
                for kind in ("divisorial", "hilbert", "kapranov-nodal")
                for measure in ("symbolic", "euler", "point-count")]
        runs += [("verify", "divisorial", measure)
                 for measure in ("symbolic", "euler", "point-count")]
        runs += [("count-strata", "divisorial", "symbolic")]
        for mode, kind, measure in runs:
            for output in ("coefficients", "rational", "json"):
                for degree in (0, 2):
                    argv = GRAPH_ARGS[graph] + ["--mode", mode, "--zeta", kind]
                    argv += MEASURE_ARGS[measure]
                    argv += ["--output", output, "--max-degree", str(degree)]
                    cases[f"{graph}/{mode}/{kind}/{measure}/{output}/d{degree}"] = argv
    # Failures print nothing on stdout.
    cases["theta/compute/unrealized"] = POINT_COUNT
    cases["weil/verify/usage"] = ["--mode", "verify", "--zeta", "hilbert"]
    return cases


CASES = _cases()


def _run(case: str, directory: Path) -> dict:
    graph = case.split("/")[0]
    path = directory / f"{graph}.json"
    path.write_text(json.dumps(OTHER_GRAPHS.get(case, GRAPHS[graph])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--input", str(path)] + CASES[case])
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_cli_report_is_byte_exact(case, golden, tmp_path):
    assert _run(case, tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = {case: _run(case, Path(scratch)) for case in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)
