"""The benchmark's tracer still finds every name it patches.

``perfbench/tracer.py`` wraps layer entry points of ``divzeta`` by name, so a
change that drops or renames one breaks every traced benchmark run.  One
traced job, run the way the benchmark runs it, shows that here.
"""

import json
import os
import subprocess
import sys

from divzeta.graph import graph_to_json

from conftest import theta_graph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_a_traced_benchmark_job_runs_and_roots_its_trace_at_cli_main(tmp_path):
    graph, trace = tmp_path / "theta.json", tmp_path / "trace.json"
    graph.write_text(json.dumps(graph_to_json(theta_graph())), encoding="utf-8")
    command = [
        sys.executable, os.path.join(ROOT, "perfbench", "job.py"), ROOT, "theta.verify",
        str(trace), "--input", str(graph), "--mode", "verify", "--max-degree", "2",
    ]
    # No bytecode: the run leaves nothing under perfbench/.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(command, capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
    roots = [name for name, _, _, parent, _ in spans if parent is None]
    assert roots == ["cli.main"]
