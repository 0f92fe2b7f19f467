"""Workload definitions and seeded input generation.

Each workload is a fixed list of CLI jobs, run one after another (closed
loop, one client).  The seed picks the model-id names of the ``chain4``
graphs and the traces of the elliptic models; the six battery graphs are
fixed files in ``graphs/``.  The CLI only ever sees the generated files.
"""

from __future__ import annotations

import json
import math
import random
import string
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
Q = 7
KINDS = ("divisorial", "hilbert", "kapranov-nodal")
BATTERY = (
    "loop-on-genus-1",
    "marked-genus-2",
    "two-components-genus-2",
    "parallel-edges-genus-1",
    "theta",
    "genus-2-two-marks",
)
GRAPH_DIR = Path(__file__).resolve().parent / "graphs"


@dataclass(frozen=True)
class Job:
    """One ``divzeta`` invocation; every job asks for the JSON report."""

    name: str
    graph: str
    mode: str
    max_degree: int
    zeta: str = "divisorial"
    measure: str = "symbolic"

    def argv(self, graph_path: str) -> list[str]:
        args = ["--input", graph_path, "--mode", self.mode]
        if self.mode == "compute":
            args += ["--zeta", self.zeta]
        args += ["--max-degree", str(self.max_degree)]
        if self.measure != "symbolic":
            args += ["--measure", self.measure]
        if self.measure == "point-count":
            args += ["--q", str(Q)]
        return args + ["--output", "json"]


WORKLOADS: dict[str, list[Job]] = {
    # Wide symbolic products and rendering; the oracle and measures are idle.
    "closed-symbolic": [Job("chain4.divisorial", "chain4", "compute", 16)],
    # Same ring and zeta work, but the measure replaces symbolic rendering,
    # and every closed-form kind runs.
    "closed-measured": [
        Job(f"chain4-elliptic.{kind}", "chain4-elliptic", "compute", 16, kind, "point-count")
        for kind in KINDS
    ],
    # Stable-pair enumeration and many tiny ring products; the closed form is
    # negligible.
    "oracle": [Job(f"{name}.verify", name, "verify", 8) for name in BATTERY]
    + [
        Job("chain4.verify-euler", "chain4", "verify", 7, measure="euler"),
        Job("chain4.count-strata", "chain4", "count-strata", 11),
    ],
}


def _names(rng: random.Random, count: int) -> list[str]:
    """Distinct four-letter ids; their order fixes the generator sort order."""
    names: list[str] = []
    while len(names) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        if name not in names:
            names.append(name)
    return names


def _chain(names: list[str], models: list[dict] | None = None) -> dict:
    vertices = []
    for index, name in enumerate(names):
        vertex = {"id": name, "genus": 1}
        if models:
            vertex["model"] = models[index]
        vertices.append(vertex)
    edges = [[a, b] for a, b in zip(names, names[1:])]
    return {"vertices": vertices, "edges": edges}


def make_graphs(seed: int) -> dict[str, dict]:
    """Every graph document any workload uses, for this seed."""
    rng = random.Random(seed)
    hasse = math.isqrt(4 * Q)  # |a| <= 2*sqrt(q)
    traces = [rng.randint(-hasse, hasse) for _ in range(4)]
    graphs = {
        "chain4": _chain(_names(rng, 4)),
        "chain4-elliptic": _chain(
            _names(rng, 4), [{"type": "elliptic", "trace": a} for a in traces]
        ),
    }
    for name in BATTERY:
        graphs[name] = json.loads((GRAPH_DIR / f"{name}.json").read_text())
    return graphs


def write_graphs(graphs: dict[str, dict], directory: Path) -> dict[str, str]:
    """Write each document as ``<name>.json``; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in graphs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths
