"""End-to-end CLI behaviour: modes, outputs, exit codes."""

import errno
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import divzeta.ring as ring
import divzeta.strata as strata
from divzeta.cli import MAX_DEGREE_LIMIT, main, parse_config
from divzeta.graph import GraphError, graph_to_json, parse_graph
from divzeta.measures import PRIME_POWER_LIMIT
from divzeta.ring import RationalFn, RingElem, lefschetz, parse_elem
from divzeta.zeta import ZetaKind, zeta_series

from conftest import battery, declare_weil, free_leaves, vertex

L = lefschetz()

MARKED = {"vertices": [vertex("m", 2)], "legs": ["m"]}
TWO_COMPONENTS = {
    "vertices": [vertex("u", 2), vertex("w", 2)],
    "edges": [["u", "w"]],
}
LOOP_GENUS_2 = {"vertices": [vertex("m", 2)], "edges": [["m", "m"]]}
TORUS = {"vertices": [vertex("g", 0, {"type": "p1"}, punctures=2)]}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def graph_file(tmp_path):
    def write(document, name="graph.json"):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    return write


def test_verify_two_components(graph_file, capsys):
    assert main(["--input", graph_file(TWO_COMPONENTS), "--mode", "verify",
                 "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "verified: OK" in out
    assert out.count("diff=0") == 5


def test_count_strata_marked_curve(graph_file, capsys):
    assert main(["--input", graph_file(MARKED), "--mode", "count-strata",
                 "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "d=0: 1" in out and "d=1: 2" in out and "d=2: 4" in out


def test_compute_euler_loop_genus_two(graph_file, capsys):
    # |E| = 1 and 2g - 2 = 2, so the Euler image is (1-t)^3.
    assert main(["--input", graph_file(LOOP_GENUS_2), "--measure", "euler",
                 "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "t^0: 1" in out and "t^1: -3" in out and "t^2: 3" in out
    assert "t^3: -1" in out and "t^4: 0" in out


def test_compute_symbolic_coefficients(graph_file, capsys):
    assert main(["--input", graph_file(MARKED), "--max-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "graph: vertices=1 edges=0 legs=1 genus=2" in out
    assert "t^1: c[m,1]" in out
    assert "rational: " in out


def test_compute_torus_with_allow_unstable(graph_file, capsys):
    assert main(["--input", graph_file(TORUS), "--allow-unstable",
                 "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "t^1: L - 1" in out and "t^2: L^2 - L" in out


def test_compute_json_round_trips(graph_file, capsys):
    assert main(["--input", graph_file(TWO_COMPONENTS), "--output", "json",
                 "--max-degree", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["graph"] == {"vertices": 2, "edges": 1, "legs": 0, "genus": 4}
    graph = parse_graph(TWO_COMPONENTS)
    series = zeta_series(ZetaKind.DIVISORIAL, graph, 3, free_leaves(graph, 3))
    parsed = [parse_elem(text) for text in report["coefficients"]]
    assert parsed == list(series.coefficients())
    assert parse_elem(report["rational"]["denominator"][0]) == 1


def test_verify_json(graph_file, capsys):
    assert main(["--input", graph_file(MARKED), "--mode", "verify",
                 "--output", "json", "--max-degree", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verified"] is True
    assert [row["degree"] for row in report["degrees"]] == [0, 1, 2, 3]
    assert all(row["difference"] == "0" for row in report["degrees"])


def test_verify_under_point_count(graph_file, capsys):
    declared = {
        "vertices": [vertex("u", 2, {"type": "weil", "numerator": [1, 1, 1, 3, 9]}),
                     vertex("w", 2, {"type": "weil", "numerator": [1, -1, 1, -3, 9]})],
        "edges": [["u", "w"]],
    }
    assert main(["--input", graph_file(declared), "--mode", "verify",
                 "--measure", "point-count", "--q", "3", "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "verified: OK" in out


def test_verify_exits_zero_on_battery(graph_file, capsys):
    for name, graph in battery().items():
        path = graph_file(graph_to_json(graph), f"{name}.json")
        assert main(["--input", path, "--mode", "verify", "--max-degree", "4"]) == 0
    capsys.readouterr()


def _count_calls(name, graph_file, capsys, monkeypatch):
    """Calls of ``ring.<name>`` made by symbolic verify of the battery at
    degree 8."""
    calls = 0
    function = getattr(ring, name)

    def counted(a, b):
        nonlocal calls
        calls += 1
        return function(a, b)

    monkeypatch.setattr(ring, name, counted)
    for graph_name, graph in battery().items():
        path = graph_file(graph_to_json(graph), f"{graph_name}.json")
        assert main(["--input", path, "--mode", "verify", "--max-degree", "8"]) == 0
    capsys.readouterr()
    return calls


def test_symbolic_verify_merges_few_monomials(graph_file, capsys, monkeypatch):
    # The oracle multiplies its narrow factors first, the punctures' (1-t)
    # and the chain series, which hold only L, and then folds on one vertex's
    # classes at a time; the kernel merges no pair that has a constant
    # monomial.  Slot by slot, with every pair merged, this made 8,493
    # merges; with the vertex classes multiplied together and joined to the
    # narrow part in one product, 2,462.  The fold costs more products, 2,601,
    # most of them joined by concatenation, not by a merge.
    assert _count_calls("_mono_mul", graph_file, capsys, monkeypatch) == 2601


def test_symbolic_verify_sorts_each_coefficient_in_one_pass(graph_file, capsys, monkeypatch):
    # The oracle stores every coefficient in display order, so str makes
    # n-1 comparisons for n terms (1,307 for the 1,361 printed terms of 54
    # nonzero coefficients), and sorting the narrow part's coefficients
    # before the fold 198 more.  With one wide product the display sort made
    # 4,947.
    assert _count_calls("_mono_cmp", graph_file, capsys, monkeypatch) == 1505


def test_mutation_is_detected(graph_file, capsys, monkeypatch):
    healthy = strata.torus_class

    def mutant(m, *image):
        if m == 0:
            return healthy(m, *image)
        return L ** (m + 1) - L ** m

    monkeypatch.setattr(strata, "torus_class", mutant)
    code = main(["--input", graph_file(TWO_COMPONENTS), "--mode", "verify",
                 "--max-degree", "4"])
    assert code == 3
    assert "verified: MISMATCH" in capsys.readouterr().out


ELLIPTIC_PAIR = {
    "vertices": [vertex("u", 1, {"type": "elliptic", "trace": 2}),
                 vertex("w", 1, {"type": "elliptic", "trace": -1})],
    "edges": [["u", "w"]],
}


# Mutants of ``strata.torus_class(m, lef)``, at the image ``lef`` of ``L``.
def _shifted_torus(m, lef=L):
    return lef ** (m + 1) - lef**m if m else lef**0


def _plain_torus(m, lef=L):
    return lef**m


@pytest.mark.parametrize(
    "measure, mutant, detected",
    [
        (["--measure", "point-count", "--q", "7"], _shifted_torus, True),
        (["--measure", "point-count", "--q", "7"], _plain_torus, True),
        (["--measure", "euler"], _plain_torus, True),
        # L -> 1 sends both L^(m+1) - L^m and L^m - L^(m-1) to 0.
        (["--measure", "euler"], _shifted_torus, False),
    ],
)
def test_mutation_is_detected_under_a_measure(graph_file, capsys, monkeypatch,
                                              measure, mutant, detected):
    monkeypatch.setattr(strata, "torus_class", mutant)
    code = main(["--input", graph_file(ELLIPTIC_PAIR), "--mode", "verify",
                 "--max-degree", "4"] + measure)
    out = capsys.readouterr().out
    assert code == (3 if detected else 0)
    assert ("verified: MISMATCH" if detected else "verified: OK") in out


def _verify_rows(out, output):
    """``(degree, oracle, closed, difference)`` texts of a verify report."""
    if output == "json":
        return [(row["degree"], row["oracle"], row["closed"], row["difference"])
                for row in json.loads(out)["degrees"]]
    rows = []
    for line in out.splitlines():
        if line.startswith("d="):
            degree, rest = line[2:].split(": oracle=", 1)
            oracle, rest = rest.split(" closed=", 1)
            closed, difference = rest.split(" diff=", 1)
            rows.append((int(degree), oracle, closed, difference))
    return rows


@pytest.mark.parametrize("output", ["json", "coefficients"])
def test_shared_render_cannot_hide_a_mismatch(graph_file, capsys, monkeypatch, output):
    # A verified row shows the oracle's element in both columns; a
    # mismatching row must still print the closed form's own coefficient.
    monkeypatch.setattr(strata, "torus_class", _shifted_torus)
    graph = parse_graph(TWO_COMPONENTS)
    closed = zeta_series(ZetaKind.DIVISORIAL, graph, 4, free_leaves(graph, 4))
    assert main(["--input", graph_file(TWO_COMPONENTS), "--mode", "verify",
                 "--max-degree", "4", "--output", output]) == 3
    rows = _verify_rows(capsys.readouterr().out, output)
    assert [row[0] for row in rows] == [0, 1, 2, 3, 4]
    assert [row[2] for row in rows] == [str(closed[degree]) for degree in range(5)]
    mismatched = [row for row in rows if row[3] != "0"]
    assert mismatched
    assert all(row[2] != row[1] for row in mismatched)


@pytest.mark.parametrize("output", ["json", "coefficients"])
def test_verified_rows_render_each_coefficient_once(graph_file, capsys, monkeypatch, output):
    rendered = []
    plain = RingElem.__str__

    def counting(self):
        rendered.append(self)
        return plain(self)

    monkeypatch.setattr(RingElem, "__str__", counting)
    assert main(["--input", graph_file(TWO_COMPONENTS), "--mode", "verify",
                 "--max-degree", "4", "--output", output]) == 0
    rows = _verify_rows(capsys.readouterr().out, output)
    assert all(closed == oracle for _, oracle, closed, _ in rows)
    # Per row: the shared coefficient once, then the zero difference.
    graph = parse_graph(TWO_COMPONENTS)
    oracle = zeta_series(ZetaKind.DIVISORIAL, graph, 4, free_leaves(graph, 4))
    assert rendered == [value for degree in range(5) for value in (oracle[degree], 0)]


CHAIN4 = {
    "vertices": [vertex(name, 1) for name in "abcd"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
}


@pytest.mark.parametrize("document", [CHAIN4, TWO_COMPONENTS])
def test_verify_unrealized_models_at_degree_zero(graph_file, capsys, document):
    # The closed column expands the rational form, whose vertex numerators
    # read the classes through t^2g: an unrealized curve model fails at
    # every degree, degree 0 included, as it does in compute.
    argv = ["--input", graph_file(document), "--measure", "point-count", "--q", "7",
            "--max-degree"]
    for mode in ("verify", "compute"):
        for degree in ("0", "1"):
            assert main(argv + [degree, "--mode", mode]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "no realization for generator c[" in captured.err


@pytest.mark.parametrize("output", ["coefficients", "json"])
def test_integer_past_the_digit_limit(graph_file, capsys, output):
    q = 2**61 - 1
    assert main(["--input", graph_file(TORUS), "--allow-unstable", "--measure",
                 "point-count", "--q", str(q), "--max-degree", "260",
                 "--output", output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"more than {sys.get_int_max_str_digits()} decimal digits" in captured.err
    assert f"--max-degree (260) or --q ({q})" in captured.err
    assert "set_int_max_str_digits" not in captured.err


# -- exit codes ------------------------------------------------------------------


def test_usage_errors(graph_file, capsys):
    path = graph_file(MARKED)
    assert main([]) == 1  # --input is required
    assert main(["--input", path, "--mode", "verify", "--zeta", "hilbert"]) == 1
    assert main(["--input", path, "--measure", "point-count"]) == 1
    assert main(["--input", path, "--q", "3"]) == 1
    assert main(["--input", path, "--max-degree", "-1"]) == 1
    assert main(["--input", path, "--mode", "fly"]) == 1
    capsys.readouterr()


ELLIPTIC_CHAIN4 = {
    "vertices": [vertex(name, 1, {"type": "elliptic", "trace": 1}) for name in "abcd"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
}


def test_degree_above_the_limit_is_refused_up_front(graph_file, capsys, monkeypatch):
    # Refused before the graph is read: nothing past argument parsing runs.
    def unreachable(*args, **kwargs):
        raise AssertionError("the graph was loaded")

    monkeypatch.setattr("divzeta.cli.load_graph", unreachable)
    assert main(["--input", graph_file(ELLIPTIC_CHAIN4), "--measure", "euler",
                 "--max-degree", "20000", "--output", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--max-degree 20000 exceeds the limit of {MAX_DEGREE_LIMIT}" in captured.err
    path = graph_file(MARKED)
    assert parse_config(["--input", path, "--max-degree", str(MAX_DEGREE_LIMIT)])
    with pytest.raises(SystemExit) as refused:
        parse_config(["--input", path, "--max-degree", str(MAX_DEGREE_LIMIT + 1)])
    assert refused.value.code == 1
    capsys.readouterr()


def test_validation_errors(graph_file, tmp_path, capsys):
    assert main(["--input", str(tmp_path / "missing.json")]) == 2
    unstable = graph_file({"vertices": [vertex("v", 0)]}, "unstable.json")
    assert main(["--input", unstable]) == 2
    # Unrealizable symbolic model under point counting.
    assert main(["--input", graph_file(MARKED), "--measure", "point-count",
                 "--q", "3"]) == 2
    err = capsys.readouterr().err
    assert "c[m," in err
    # Non prime power q.
    assert main(["--input", graph_file(MARKED), "--measure", "point-count",
                 "--q", "6"]) == 2
    capsys.readouterr()


def test_malformed_graphs_exit_two(graph_file, capsys):
    for document in (
        {"vertices": [{"id": "m", "genus": True}], "legs": ["m"]},
        {"vertices": [vertex("u", 1), vertex("w", 1)], "edges": [[["u"], "w"]]},
        {"vertices": [vertex("m", 1)], "legs": [["m"]]},
    ):
        assert main(["--input", graph_file(document)]) == 2
        assert "invalid graph" in capsys.readouterr().err


# Input that fails to decode: a graph file that is not UTF-8, an integer
# literal past Python's digit limit, nesting past the recursion limit.
_DIGITS = "1" * (sys.get_int_max_str_digits() + 1)


def test_undecodable_graph_files_exit_two(tmp_path, capsys):
    for name, content in [
        ("not-utf-8", b'{"vertices": [{"id": "m\xff", "genus": 2}], "legs": ["m"]}'),
        ("digits", b'{"vertices": [{"id": "m", "genus": %s}]}' % _DIGITS.encode()),
        ("deep", b"[" * 100_000),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        assert main(["--input", str(path)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("divzeta: invalid graph:"), name


# Graphs whose offending value is large: each message shows a shortened repr.
_OVERSIZED = {
    "vertex-of-zeros": {"vertices": [[0] * 100_000]},
    "unknown-keys": {"vertices": [vertex("m", 2)], **{f"k{i}": 0 for i in range(20_000)}},
    "long-weil-numerator": {
        "vertices": [vertex("m", 2, {"type": "weil", "numerator": [2] + [0] * 100_000})]
    },
    "edge-of-zeros": {"vertices": [vertex("m", 2)], "edges": [[0] * 100_000]},
    "unreachable-vertices": {"vertices": [vertex(f"v{i}", 2) for i in range(2_000)]},
    "long-vertex-id": {"vertices": [vertex("v" * 100_000, 0)]},
    "long-elliptic-genus": {
        "vertices": [vertex("e", int("9" * 4_000), {"type": "elliptic", "trace": 1})]
    },
}


@pytest.mark.parametrize("name", sorted(_OVERSIZED))
def test_oversized_input_gets_a_one_line_message(graph_file, capsys, name):
    assert main(["--input", graph_file(_OVERSIZED[name])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("divzeta: invalid graph:")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert len(captured.err.encode()) < 1000


def test_long_unrealized_model_id_gets_a_one_line_message(graph_file, capsys):
    document = {"vertices": [vertex("m" * 100_000, 1)], "legs": ["m" * 100_000]}
    assert main(["--input", graph_file(document), "--measure", "point-count", "--q", "5",
                 "--max-degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no realization for generator c[mmm" in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert len(captured.err.encode()) < 1000


def test_unstable_input_names_the_flag_that_accepts_it(graph_file, capsys):
    assert main(["--input", graph_file({"vertices": [vertex("v", 0)]})]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--allow-unstable" in captured.err


def test_numerators_is_not_an_option(graph_file, capsys):
    # A curve's Weil numerator comes from its model in the graph alone.
    argv = ["--input", graph_file(MARKED), "--measure", "point-count", "--q", "3"]
    for extra in (["--numerators", '{"m": [1, 1]}'], ['--numerators={"m": [1]}'],
                  ["--num", "{oops"]):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: divzeta")
        assert "divzeta: error: option --num" in captured.err


# A genus-1 weil curve with one leg whose numerator satisfies the functional
# equation at q = 3 and fails it at q = 7.
WEIL_AT_3 = {"vertices": [vertex("e", 1, {"type": "weil", "numerator": [1, -2, 3]})],
             "legs": ["e"]}


def test_functional_equation_is_checked_where_the_measure_is_applied(graph_file, capsys):
    # Point counting checks a weil numerator against the functional equation
    # at --q when it reads the model's classes: compute and verify refuse it,
    # and count-strata, which applies no measure, prints the counts.
    path = graph_file(WEIL_AT_3)
    counted = ["--input", path, "--measure", "point-count", "--max-degree", "3"]
    for mode in ("compute", "verify"):
        assert main([*counted, "--mode", mode, "--q", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "divzeta: model 'e': numerator fails the functional equation at degree 0\n"
        )
    assert main([*counted, "--mode", "count-strata", "--q", "7"]) == 0
    counts = "graph: vertices=1 edges=0 legs=1 genus=1\nd=0: 1\nd=1: 2\nd=2: 4\nd=3: 8\n"
    assert capsys.readouterr().out == counts
    for mode in ("compute", "verify", "count-strata"):
        assert main([*counted, "--mode", mode, "--q", "3"]) == 0, mode
        captured = capsys.readouterr()
        assert captured.out and captured.err == "", mode


@pytest.mark.parametrize(
    "model, trace",
    [({"type": "elliptic", "trace": 100}, 100), ({"type": "weil", "numerator": [1, 5, 2]}, -5)],
)
def test_hasse_bound_is_checked_where_the_measure_is_applied(graph_file, capsys, model, trace):
    # Declared change: a genus-1 curve past the Hasse bound at --q printed
    # impossible counts (t^1: -97 for trace 100 at q = 2) and exited 0.
    path = graph_file({"vertices": [vertex("e", 1, model)], "legs": ["e"]})
    counted = ["--input", path, "--measure", "point-count", "--max-degree", "2"]
    for mode in ("compute", "verify"):
        assert main([*counted, "--mode", mode, "--q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"divzeta: model 'e': trace {trace} is outside the Hasse bound"
            " |a| <= 2 sqrt(q) at q = 2\n"
        )
    assert main([*counted, "--mode", "count-strata", "--q", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_field_size_bounds(graph_file, capsys):
    elliptic = {"vertices": [vertex("e", 1, {"type": "elliptic", "trace": 0})],
                "legs": ["e"]}
    argv = ["--input", graph_file(elliptic), "--measure", "point-count",
            "--max-degree", "2", "--q"]
    mersenne = 2**61 - 1
    assert main(argv + [str(mersenne)]) == 0
    assert f"t^1: {mersenne + 1}" in capsys.readouterr().out
    assert main(argv + [str(3 * mersenne)]) == 2
    assert "prime power" in capsys.readouterr().err
    # Judged by PointCount, like any other q: exit 2, one line, no usage.
    assert main(argv + [str(PRIME_POWER_LIMIT)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "too large" in captured.err


def test_hilbert_and_nodal_modes(graph_file, capsys):
    path = graph_file(LOOP_GENUS_2)
    assert main(["--input", path, "--zeta", "hilbert", "--max-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "t^1: c[m,1] - 1" in out
    assert main(["--input", path, "--zeta", "kapranov-nodal",
                 "--max-degree", "1", "--output", "rational"]) == 0
    out = capsys.readouterr().out
    assert "t^1:" not in out
    assert "rational: " in out


def test_point_count_rational_output(graph_file, capsys):
    assert main(["--input", graph_file(TORUS), "--allow-unstable",
                 "--measure", "point-count", "--q", "3",
                 "--output", "rational"]) == 0
    out = capsys.readouterr().out
    # Unreduced by design: numerator (1-t)^2, denominator (1-t)(1-qt).
    assert "rational: (1 - 2*t + t^2) / (1 - 4*t + 3*t^2)" in out


def test_point_count_rational_keeps_symbolic_length(graph_file, capsys):
    # The Weil numerator 1 - t has degree 1 < 2g = 4, so the image of the
    # degree-6 symbolic numerator ends in zeros; reports keep them.
    weil = {"vertices": [vertex("u", 2, {"type": "weil", "numerator": [1, -1]})],
            "legs": ["u"]}
    argv = ["--input", graph_file(weil), "--measure", "point-count",
            "--q", "5", "--max-degree", "2"]
    assert main(argv + ["--output", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coefficients"] == [1, 5, 29]
    assert report["rational"] == {
        "numerator": [1, -7, 11, -5, 0, 0, 0],
        "denominator": [1, -12, 42, -36, 5],
    }
    assert main(argv + ["--output", "rational"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "graph: vertices=1 edges=0 legs=1 genus=2",
        "zeta: divisorial  measure: point-count",
        "rational: (1 - 7*t + 11*t^2 - 5*t^3)"
        " / (1 - 12*t + 42*t^2 - 36*t^3 + 5*t^4)",
    ]


def test_point_count_rational_text_signs(graph_file, capsys):
    marked = graph_file({"vertices": [vertex("u", 2, {"type": "weil", "numerator": [1, 4, 0, -1]})],
                         "legs": ["u"]})
    # (1 - 3t + 2t^2) * (1 + 4t - t^3): +t, and a negative leading coefficient.
    assert main(["--input", marked, "--measure", "point-count", "--q", "2",
                 "--output", "rational"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "rational: (1 + t - 10*t^2 + 7*t^3 + 3*t^4 - 2*t^5)"
        " / (1 - 6*t + 12*t^2 - 9*t^3 + 2*t^4)"
    )
    punctured_line = graph_file({"vertices": [vertex("g", 0, {"type": "p1"}, punctures=1)]})
    assert main(["--input", punctured_line, "--allow-unstable", "--measure",
                 "point-count", "--q", "3", "--output", "rational"]) == 0
    assert "rational: (1 - t) / (1 - 4*t + 3*t^2)" in capsys.readouterr().out


def test_printed_rational_form_expands_to_printed_coefficients(graph_file, capsys):
    path = graph_file(ELLIPTIC_CHAIN4)
    for kind in ("divisorial", "hilbert", "kapranov-nodal"):
        for measure in (["--measure", "euler"], ["--measure", "point-count", "--q", "5"]):
            assert main(["--input", path, "--zeta", kind, *measure,
                         "--max-degree", "12", "--output", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            rational = RationalFn(report["rational"]["numerator"],
                                  report["rational"]["denominator"])
            assert list(rational.series(12).coefficients()) == report["coefficients"]


MIXED = {
    "vertices": [vertex("e", 1, {"type": "elliptic", "trace": 2}),
                 vertex("w", 2, {"type": "weil", "numerator": [1, -1]}),
                 vertex("p", 0, {"type": "p1"}, punctures=1)],
    "edges": [["e", "w"], ["w", "p"], ["p", "e"]],
    "legs": ["p"],
}


def test_measured_compute_multiplies_no_series(graph_file, capsys, monkeypatch):
    # Under a measure the coefficients are the rational form's expansion:
    # no series product, whose cost is quadratic in the degree.
    from divzeta.ring import TruncSeries

    def refuse(*args):
        raise AssertionError("a series product was taken")

    monkeypatch.setattr(TruncSeries, "__mul__", refuse)
    for document in (ELLIPTIC_CHAIN4, MIXED):
        path = graph_file(document)
        for kind in ("divisorial", "hilbert", "kapranov-nodal"):
            for measure in (["--measure", "euler"], ["--measure", "point-count", "--q", "5"]):
                assert main(["--input", path, "--zeta", kind, *measure,
                             "--max-degree", "30", "--output", "json"]) == 0
                assert len(json.loads(capsys.readouterr().out)["coefficients"]) == 31


@pytest.mark.parametrize("side, index", [("numerator", 0), ("numerator", 5),
                                         ("numerator", 11), ("denominator", 1),
                                         ("denominator", 6)])
def test_verify_checks_the_printed_rational_form(graph_file, capsys, monkeypatch,
                                                 side, index):
    # The divisorial rational form of TWO_COMPONENTS has sides of degree 11
    # and 6.  One coefficient off by one changes the expansion from its
    # degree on, and measured verify reports the mismatch from there.
    from divzeta import cli

    build = cli.zeta_rational

    def perturbed(*args):
        fn = build(*args)
        sides = {"numerator": list(fn.numerator), "denominator": list(fn.denominator)}
        sides[side][index] += 1
        return RationalFn(sides["numerator"], sides["denominator"])

    monkeypatch.setattr(cli, "zeta_rational", perturbed)
    assert main(["--input", graph_file(TWO_COMPONENTS), "--mode", "verify",
                 "--measure", "euler", "--max-degree", "11", "--output", "json"]) == 3
    rows = json.loads(capsys.readouterr().out)["degrees"]
    assert [row["degree"] for row in rows if row["difference"] != 0][0] == index


def test_unrealized_model_fails_in_every_output_mode(graph_file, capsys):
    # The theta graph's genus-0 models need no generator in the rational
    # form, but at a positive --max-degree the leaves still read c[m,1].
    theta = {"vertices": [vertex("u", 0), vertex("w", 0)], "edges": [["u", "w"]] * 3}
    for document in (MARKED, theta):
        path = graph_file(document)
        for output in ("coefficients", "rational", "json"):
            assert main(["--input", path, "--measure", "point-count", "--q", "3",
                         "--output", output]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "no realization for generator c[" in captured.err


def test_a_symbolic_model_is_counted_as_a_declared_weil_model(graph_file, capsys):
    # Point counting reads a curve's numerator from its model alone.  Declared
    # as a weil model, MARKED's curve is counted, and the reports that do not
    # count points are those of the symbolic model.
    weil = {"vertices": [vertex("m", 2, {"type": "weil", "numerator": [1, 1, 1, 3, 9]})],
            "legs": ["m"]}
    symbolic_path, weil_path = graph_file(MARKED, "symbolic.json"), graph_file(weil)
    for mode in ("compute", "verify"):
        for measure in ([], ["--measure", "euler"]):
            argv = ["--mode", mode, *measure, "--max-degree", "3", "--output", "json"]
            assert main(["--input", symbolic_path, *argv]) == 0
            symbolic_out = capsys.readouterr().out
            assert main(["--input", weil_path, *argv]) == 0
            assert capsys.readouterr().out == symbolic_out
        argv = ["--mode", mode, "--measure", "point-count", "--q", "3", "--max-degree", "3"]
        assert main(["--input", symbolic_path, *argv]) == 2
        assert capsys.readouterr().out == ""
        assert main(["--input", weil_path, *argv]) == 0
        out = capsys.readouterr().out
        # c[m,1] -> 1 + 1 + q, times the t^0 coefficients of the leg's factors.
        assert "t^1: 5" in out if mode == "compute" else "verified: OK" in out


def test_point_count_refusals_by_degree(graph_file, capsys):
    # One rule: a measure realizes a model or refuses it at every degree, so
    # a symbolic curve of any genus is refused from --max-degree 0 on.
    rational = graph_file({"vertices": [vertex("m", 0)], "legs": ["m"] * 3}, "rational.json")
    elliptic = graph_file({"vertices": [vertex("m", 1)], "legs": ["m"]}, "elliptic.json")
    for output in ("coefficients", "rational", "json"):
        for path, degree, code in ((rational, 0, 2), (rational, 1, 2), (rational, 2, 2),
                                   (elliptic, 0, 2)):
            assert main(["--input", path, "--measure", "point-count", "--q", "7",
                         "--max-degree", str(degree), "--output", output]) == code
            captured = capsys.readouterr()
            assert bool(captured.out) == (code == 0)
            assert ("no realization for generator c[m,1]" in captured.err) == bool(code)


def _spy_on_class_series(monkeypatch):
    """The ``(measure, genus, order)`` of every ``class_series`` call."""
    from divzeta import measures

    calls = []
    build = measures.MotivicMeasure.class_series

    def spy(self, model, order):
        calls.append((type(self).__name__, model.genus, order))
        return build(self, model, order)

    # Every measure inherits the one class_series.
    monkeypatch.setattr(measures.MotivicMeasure, "class_series", spy)
    return calls


# Curves of genus 0, 1 and 2, and an elliptic chain.
_MEASURED_DOCUMENTS = (MIXED, ELLIPTIC_CHAIN4)


@pytest.mark.parametrize("output", ["coefficients", "rational", "json"])
def test_compute_reads_classes_through_2g_unless_it_prints_a_symbolic_series(
        graph_file, capsys, monkeypatch, output):
    # The printed rational form reads each model's classes through t^2g, and
    # under a measure the printed series is its expansion: no class above
    # t^2g is built, whatever --max-degree asks.  Symbolically only the
    # rational output qualifies: a projective line's classes are not expanded.
    measures = [["--measure", "euler"], ["--measure", "point-count", "--q", "7"]]
    if output == "rational":
        measures.append([])
    calls = _spy_on_class_series(monkeypatch)
    for document in _MEASURED_DOCUMENTS:
        path = graph_file(document)
        for kind in ("divisorial", "hilbert", "kapranov-nodal"):
            for measure in measures:
                for degree in ("0", "1", "3", "40"):
                    assert main(["--input", path, "--zeta", kind, *measure, "--max-degree",
                                 degree, "--output", output]) == 0
                    capsys.readouterr()
                    assert calls
                    assert all(order <= 2 * genus for _, genus, order in calls), calls
                    calls.clear()


def test_verify_and_symbolic_compute_read_classes_through_max_degree(graph_file, capsys,
                                                                      monkeypatch):
    # The oracle and the symbolic series read every class through the
    # degree they print.
    calls = _spy_on_class_series(monkeypatch)
    path = graph_file(MIXED)
    for argv in (["--mode", "verify"], ["--mode", "verify", "--measure", "euler"],
                 ["--mode", "verify", "--measure", "point-count", "--q", "7"],
                 ["--mode", "compute"], ["--mode", "compute", "--output", "json"]):
        assert main(["--input", path, "--max-degree", "7", *argv]) == 0
        capsys.readouterr()
        assert {order for _, _, order in calls} == {7}, argv
        calls.clear()


class _Unexpandable(RationalFn):
    __slots__ = ()

    def series(self, order):
        raise AssertionError("the coefficient series was computed")


def test_rational_output_skips_the_series(graph_file, capsys, monkeypatch):
    # Symbolically the series has its own builder; under a measure it is the
    # expansion of the printed rational form, which must not be expanded.
    from divzeta import cli

    def refuse(*args):
        raise AssertionError("the coefficient series was computed")

    build = cli.zeta_rational

    def unexpandable(*args):
        fn = build(*args)
        return _Unexpandable(fn.numerator, fn.denominator)

    monkeypatch.setattr(cli, "zeta_series", refuse)
    monkeypatch.setattr(cli, "zeta_rational", unexpandable)
    path = graph_file(LOOP_GENUS_2)
    for measure in ("symbolic", "euler"):
        assert main(["--input", path, "--measure", measure, "--output", "rational"]) == 0
        assert "rational: " in capsys.readouterr().out


# -- one application of the measure ----------------------------------------------

# The battery, its curves declared as weil models so point counting at q = 7
# realizes them, and an elliptic chain of four.
_WEIL_BY_GENUS = {0: [1], 1: [1, -1, 7], 2: [1, 1, 1, 7, 49]}
_ONE_MEASURE_RUNS = [
    ["--mode", "compute", "--zeta", kind, "--output", output]
    for kind in ("divisorial", "hilbert", "kapranov-nodal")
    for output in ("coefficients", "rational", "json")
] + [["--mode", "verify"], ["--mode", "count-strata"]]
# sha256 of the stdout of every run, in order, per measure: the reports as
# printed while each verify, and each symbolic compute, read the leaves twice
# and the oracle mapped its torus classes with of_elem.
_ONE_MEASURE_DIGESTS = {
    "symbolic": "71b4d1e3f17632675e07f4f0d48d81e999366d23740dd9345fc717e29156b5a8",
    "euler": "96a5b7da77ac2fdc9bfcdffc702116f7d9a09f4a565a34865da85f4f6d995c62",
    "point-count": "0571fb84c4532caec84cf76d4d5047cbff6347d8cad7f5ae2b242ea96d1585da",
}


def _one_measure_stdout(write, measure):
    """Each run's id, exit code and stdout, for one measure."""
    documents = {
        name: graph_to_json(declare_weil(graph, _WEIL_BY_GENUS))
        for name, graph in battery().items()
    }
    documents["chain4-elliptic"] = {
        "vertices": [vertex(name, 1, {"type": "elliptic", "trace": trace})
                     for name, trace in zip("abcd", (1, -3, 0, 4))],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
    }
    extra = {"symbolic": [], "euler": ["--measure", "euler"],
             "point-count": ["--measure", "point-count", "--q", "7"]}[measure]
    for name, document in documents.items():
        path = write(document, f"{name}.json")
        for run in _ONE_MEASURE_RUNS:
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(["--input", path, *extra, "--max-degree", "6", *run])
            yield (name, *run), code, out.getvalue()


@pytest.mark.parametrize("measure", sorted(_ONE_MEASURE_DIGESTS))
def test_a_measure_is_applied_once(graph_file, monkeypatch, measure):
    # A measure is a ring homomorphism, applied once, to the leaves: no
    # finished element is mapped, and compute and verify read one set of
    # leaves, as the same reports show.
    from divzeta import cli, measures

    def refuse(self, elem, models):
        raise AssertionError("a finished element was mapped")

    monkeypatch.setattr(measures.MotivicMeasure, "of_elem", refuse)
    monkeypatch.setattr(measures.SymbolicIdentity, "of_elem", refuse)
    calls = []
    build = measures.leaf_images

    def counted(*args):
        calls.append(args)
        return build(*args)

    for module in (cli, strata):
        monkeypatch.setattr(module, "leaf_images", counted)
    digest = hashlib.sha256()
    for run, code, out in _one_measure_stdout(graph_file, measure):
        assert code == 0, run
        assert len(calls) <= 1, run
        calls.clear()
        digest.update(out.encode())
    assert digest.hexdigest() == _ONE_MEASURE_DIGESTS[measure]


# -- model ids shared between vertices ------------------------------------------

_EVERY_MODE = [
    ["--mode", mode, "--measure", measure, *extra]
    for mode in ("compute", "verify", "count-strata")
    for measure, extra in (("symbolic", []), ("euler", []), ("point-count", ["--q", "7"]))
]

_SHARED_ID_CLASHES = {
    # Symbolic compute once ended in an IndexError and verify passed.
    "genus": {
        "vertices": [vertex("u", 1, {"type": "symbolic", "id": "m"}),
                     vertex("w", 2, {"type": "symbolic", "id": "m"})],
        "edges": [["u", "w"]],
    },
    # Point counting once used the last trace for both curves.
    "trace": {
        "vertices": [vertex("u", 1, {"type": "elliptic", "id": "e", "trace": 1}),
                     vertex("w", 1, {"type": "elliptic", "id": "e", "trace": 2})],
        "edges": [["u", "w"]],
    },
    "p1-symbolic": {
        "vertices": [vertex("u", 0, {"type": "p1", "id": "m"}),
                     vertex("w", 0, {"type": "symbolic", "id": "m"})],
        "edges": [["u", "w"]] * 3,
    },
}


@pytest.mark.parametrize("name", sorted(_SHARED_ID_CLASHES))
def test_a_model_id_naming_two_curves_is_refused(graph_file, capsys, name):
    path = graph_file(_SHARED_ID_CLASHES[name])
    for argv in _EVERY_MODE:
        assert main(["--input", path, "--max-degree", "2", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("divzeta: invalid graph: ")
        assert "model id" in captured.err and "Traceback" not in captured.err


@st.composite
def _model_vertices(draw, vid):
    kind = draw(st.sampled_from(["symbolic", "p1", "elliptic", "weil"]))
    model = {"type": kind, "id": draw(st.sampled_from(["a", "b"]))}
    genus = {"p1": 0, "elliptic": 1}.get(kind)
    if genus is None:
        genus = draw(st.integers(0, 2))
    if kind == "elliptic":
        model["trace"] = draw(st.integers(-2, 2))
    elif kind == "weil":
        model["numerator"] = [1, *draw(st.lists(st.integers(-2, 2), max_size=2 * genus))]
    return vertex(vid, genus, model, draw(st.integers(0, 1)))


@st.composite
def _cli_graphs(draw):
    """1-3 vertices on a path, plus loops, multi-edges and legs at random."""
    ids = ["u", "v", "w"][: draw(st.integers(1, 3))]
    ends = st.sampled_from(ids)
    extra = draw(st.lists(st.tuples(ends, ends).map(list), max_size=3))
    return {
        "vertices": [draw(_model_vertices(vid)) for vid in ids],
        "edges": [list(pair) for pair in zip(ids, ids[1:])] + extra,
        "legs": draw(st.lists(ends, max_size=2)),
    }


@given(_cli_graphs())
@settings(max_examples=100, deadline=None)
def test_every_accepted_graph_runs_in_every_mode(document):
    # An accepted graph exits 0 in compute (both outputs) and in verify under
    # the symbolic and Euler measures; a refused one exits 2 with no output.
    try:
        parse_graph(document)
        expected = 0
    except GraphError:
        expected = 2
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        for argv in ([], ["--output", "rational"], ["--mode", "verify"],
                     ["--mode", "verify", "--measure", "euler"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = main(["--input", path, "--max-degree", "2", *argv])
            assert status == expected, (argv, err.getvalue())
            assert bool(out.getvalue()) == (expected == 0)


@given(_cli_graphs())
@example({"vertices": [vertex("u", 0)], "edges": [], "legs": ["u", "u", "u"]})
@settings(max_examples=100, deadline=None)
def test_a_point_count_refusal_does_not_depend_on_the_degree(document):
    # A measure realizes a model or refuses it as a whole: compute (both
    # outputs) and verify exit alike at --max-degree 0 and 2.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        for argv in ([], ["--output", "rational"], ["--mode", "verify"]):
            results = []
            for degree in ("0", "2"):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    status = main(["--input", path, "--measure", "point-count", "--q", "7",
                                   "--max-degree", degree, *argv])
                results.append((status, bool(out.getvalue()), err.getvalue()))
            assert results[0] == results[1], (argv, results)


@pytest.mark.parametrize("measure", sorted(_ONE_MEASURE_DIGESTS))
def test_reversing_every_edge_changes_no_report(graph_file, measure):
    # An edge is stored as written, and no result reads its direction: every
    # battery graph with each edge reversed prints what it printed before,
    # in every mode, kind and output.
    extra = {"symbolic": [], "euler": ["--measure", "euler"],
             "point-count": ["--measure", "point-count", "--q", "7"]}[measure]
    for name, graph in battery().items():
        document = graph_to_json(declare_weil(graph, _WEIL_BY_GENUS))
        flipped = {**document, "edges": [edge[::-1] for edge in document["edges"]]}
        paths = [graph_file(document, f"{name}.json"),
                 graph_file(flipped, f"{name}-reversed.json")]
        for degree, run in itertools.product(("0", "4"), _ONE_MEASURE_RUNS):
            results = []
            for path in paths:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["--input", path, *extra, "--max-degree", degree, *run])
                results.append((code, out.getvalue(), err.getvalue()))
            assert results[0] == results[1], (name, degree, run)
            assert results[0][0] == 0, (name, degree, run)


class _FailingStdout(io.StringIO):
    """A stdout whose ``write`` or ``flush`` fails as a full disk does."""

    def __init__(self, method):
        super().__init__()
        self.method = method

    def write(self, text):
        if self.method == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("method", ["write", "flush"])
def test_output_that_cannot_be_written_exits_two(graph_file, capsys, monkeypatch, method):
    path = graph_file(TWO_COMPONENTS)
    monkeypatch.setattr(sys, "stdout", _FailingStdout(method))
    assert main(["--input", path, "--max-degree", "2"]) == 2
    assert capsys.readouterr().err == (
        "divzeta: cannot write output: [Errno 28] No space left on device\n"
    )


def test_a_closed_pipe_exits_two_with_one_line(graph_file):
    # The reader takes one byte of a report far larger than a pipe's buffer
    # and closes its end; the flush at interpreter exit must stay silent.
    env = {**os.environ, "PYTHONPATH": SRC}
    process = subprocess.Popen(
        [sys.executable, "-m", "divzeta.cli", "--input", graph_file(TWO_COMPONENTS),
         "--mode", "count-strata", "--max-degree", str(MAX_DEGREE_LIMIT)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert process.stdout.read(1) == b"g"
    process.stdout.close()
    try:
        assert process.wait(timeout=60) == 2
    finally:
        process.kill()
    assert process.stderr.read() == b"divzeta: cannot write output: [Errno 32] Broken pipe\n"
    process.stderr.close()
