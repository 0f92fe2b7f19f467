"""End-to-end CLI behaviour: modes, outputs, exit codes."""

import json
import sys

import pytest

import divzeta.strata as strata
from divzeta.cli import main
from divzeta.graph import parse_graph
from divzeta.measures import PRIME_POWER_LIMIT
from divzeta.ring import lefschetz, one, parse_elem
from divzeta.zeta import divisorial_zeta_series

from conftest import vertex

L = lefschetz()

MARKED = {"vertices": [vertex("m", 2)], "legs": ["m"]}
TWO_COMPONENTS = {
    "vertices": [vertex("u", 2), vertex("w", 2)],
    "edges": [["u", "w"]],
}
LOOP_GENUS_2 = {"vertices": [vertex("m", 2)], "edges": [["m", "m"]]}
TORUS = {"vertices": [vertex("g", 0, {"type": "p1"}, punctures=2)]}


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
    series = divisorial_zeta_series(parse_graph(TWO_COMPONENTS), 3)
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
    arg = json.dumps({"u": [1, 1, 1, 3, 9], "w": [1, -1, 1, -3, 9]})
    assert main(["--input", graph_file(TWO_COMPONENTS), "--mode", "verify",
                 "--measure", "point-count", "--q", "3",
                 "--numerators", arg, "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "verified: OK" in out


def test_verify_exits_zero_on_battery(graph_file, capsys):
    from divzeta.graph import graph_to_json

    from conftest import battery

    for name, graph in battery().items():
        path = graph_file(graph_to_json(graph), f"{name}.json")
        assert main(["--input", path, "--mode", "verify", "--max-degree", "4"]) == 0
    capsys.readouterr()


def test_mutation_is_detected(graph_file, capsys, monkeypatch):
    healthy = strata.torus_class

    def mutant(m):
        if m == 0:
            return healthy(m)
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


def _shifted_torus(m):
    return L ** (m + 1) - L**m if m else one()


def _plain_torus(m):
    return L**m


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


CHAIN4 = {
    "vertices": [vertex(name, 1) for name in "abcd"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
}


@pytest.mark.parametrize("document", [CHAIN4, TWO_COMPONENTS])
def test_verify_unrealized_models_at_degree_zero(graph_file, capsys, document):
    # Degree 0 needs only c[m,0] = 1, so symbolic models pass unrealized.
    argv = ["--input", graph_file(document), "--mode", "verify", "--measure",
            "point-count", "--q", "7", "--max-degree"]
    assert main(argv + ["0"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "d=0: oracle=1 closed=1 diff=0",
        "verified: OK",
    ]
    assert main(argv + ["1"]) == 2
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
    assert main(["--input", path, "--numerators", "{oops"]) == 1
    assert main(["--input", path, "--mode", "fly"]) == 1
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


def test_boolean_numerators_are_a_usage_error(graph_file, capsys):
    path = graph_file(MARKED)
    argv = ["--input", path, "--measure", "point-count", "--q", "3"]
    assert main(argv + ["--numerators", '{"m": [1, true]}']) == 1
    assert "integer lists" in capsys.readouterr().err
    assert main(argv + ["--numerators", '{"m": [1, 1]}', "--max-degree", "1"]) == 0
    capsys.readouterr()


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
    assert main(argv + [str(PRIME_POWER_LIMIT)]) == 1
    assert "too large" in capsys.readouterr().err


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
    symbolic = {"vertices": [vertex("u", 2)], "legs": ["u"]}
    weil = {"vertices": [vertex("u", 2, {"type": "weil", "numerator": [1, -1]})],
            "legs": ["u"]}
    for document, extra in ((symbolic, ["--numerators", '{"u": [1, -1]}']), (weil, [])):
        argv = ["--input", graph_file(document), "--measure", "point-count",
                "--q", "5", "--max-degree", "2"] + extra
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
    marked = graph_file({"vertices": [vertex("u", 2)], "legs": ["u"]})
    # (1 - 3t + 2t^2) * (1 + 4t - t^3): +t, and a negative leading coefficient.
    assert main(["--input", marked, "--measure", "point-count", "--q", "2",
                 "--numerators", '{"u": [1, 4, 0, -1]}', "--output", "rational"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "rational: (1 + t - 10*t^2 + 7*t^3 + 3*t^4 - 2*t^5)"
        " / (1 - 6*t + 12*t^2 - 9*t^3 + 2*t^4)"
    )
    punctured_line = graph_file({"vertices": [vertex("g", 0, {"type": "p1"}, punctures=1)]})
    assert main(["--input", punctured_line, "--allow-unstable", "--measure",
                 "point-count", "--q", "3", "--output", "rational"]) == 0
    assert "rational: (1 - t) / (1 - 4*t + 3*t^2)" in capsys.readouterr().out


def test_unrealized_model_fails_in_every_output_mode(graph_file, capsys):
    # The theta graph's genus-0 models need no generator in the rational
    # form, but the coefficients through t^10 do, even when not printed.
    theta = {"vertices": [vertex("u", 0), vertex("w", 0)], "edges": [["u", "w"]] * 3}
    for document in (MARKED, theta):
        path = graph_file(document)
        for output in ("coefficients", "rational", "json"):
            assert main(["--input", path, "--measure", "point-count", "--q", "3",
                         "--output", output]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "no realization for generator c[" in captured.err


def test_rational_output_skips_the_series(graph_file, capsys, monkeypatch):
    from divzeta import cli

    def refuse(*args):
        raise AssertionError("the coefficient series was computed")

    monkeypatch.setattr(cli, "zeta_series", refuse)
    monkeypatch.setattr(cli, "zeta_series_image", refuse)
    path = graph_file(LOOP_GENUS_2)
    for measure in ("symbolic", "euler"):
        assert main(["--input", path, "--measure", measure, "--output", "rational"]) == 0
        assert "rational: " in capsys.readouterr().out
