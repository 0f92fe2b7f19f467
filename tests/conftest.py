"""Shared graph factories for the test suite, and hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects the CI profile: derandomized, so every run
draws the same examples, and without a deadline, since shared runners are
slow.  Example counts stay as each test sets them.
"""

import os

from hypothesis import settings

from divzeta.graph import parse_graph

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def vertex(vid, genus, model=None, punctures=0):
    out = {"id": vid, "genus": genus, "punctures": punctures}
    if model is not None:
        out["model"] = model
    return out


def marked_curve(genus=2):
    """One smooth component with one marked point (four strata in degree 2)."""
    return parse_graph({"vertices": [vertex("m", genus)], "legs": ["m"]})


def two_components(genus=2):
    """Two smooth components meeting in one node (seven strata in degree 2)."""
    return parse_graph(
        {"vertices": [vertex("u", genus), vertex("w", genus)], "edges": [["u", "w"]]}
    )


def loop_vertex(genus=1):
    """One component with a self-node."""
    return parse_graph({"vertices": [vertex("m", genus)], "edges": [["m", "m"]]})


def parallel_edges(genus=1):
    """Two components joined by two nodes."""
    return parse_graph(
        {
            "vertices": [vertex("u", genus), vertex("w", genus)],
            "edges": [["u", "w"], ["u", "w"]],
        }
    )


def theta_graph():
    """Two rational components joined by three nodes."""
    return parse_graph(
        {
            "vertices": [vertex("u", 0), vertex("w", 0)],
            "edges": [["u", "w"], ["u", "w"], ["u", "w"]],
        }
    )


def two_marks(genus=2):
    """One smooth component with two marked points."""
    return parse_graph({"vertices": [vertex("m", genus)], "legs": ["m", "m"]})


def battery():
    """The six-graph verification battery."""
    return {
        "loop-on-genus-1": loop_vertex(1),
        "marked-genus-2": marked_curve(2),
        "two-components-genus-2": two_components(2),
        "parallel-edges-genus-1": parallel_edges(1),
        "theta": theta_graph(),
        "genus-2-two-marks": two_marks(2),
    }
