"""Self-tests of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced pass at the default
seed and checks that:

* every job passes its output check, and traced and untraced stdout are
  byte-identical;
* in every traced job, the self times of the spans plus the hot-leaf time
  add up to the root span's duration, and every span lies inside its parent;
* ``SymbolicIdentity`` keeps ``measures.of_elem.calls`` at 0 on
  ``closed-symbolic``.

It also checks that a corrupted expected digest raises ``failed_ratio``, and
that ``run.py`` exits non-zero without a result in a directory that holds
only ``BENCHMARK.json`` and this directory.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from reference import Checker
from run import DIGESTS, HERE, ROOT, Runner, measure
from tracer import layer_metrics, self_times
from workloads import DEFAULT_SEED, WORKLOADS, make_graphs, write_graphs

TOLERANCE_S = 1e-6


def span_errors(doc: dict) -> list[str]:
    spans = doc["spans"]
    subtree = [own + hot for own, (*_, hot) in zip(self_times(spans), spans)]
    errors = []
    for index in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[index]
        if parent is None:
            if abs(subtree[index] - (end - start)) > TOLERANCE_S:
                errors.append(f"{doc['job']}: self times under {name} sum to {subtree[index]}, not {end - start}")
            continue
        _, parent_start, parent_end, _, _ = spans[parent]
        if not parent_start <= start <= end <= parent_end:
            errors.append(f"{doc['job']}: span {index} ({name}) lies outside its parent")
        subtree[parent] += subtree[index]
    roots = [span[0] for span in spans if span[3] is None]
    if roots != ["cli.main"]:
        errors.append(f"{doc['job']}: root spans are {roots}, expected one cli.main")
    return errors


def no_program_errors(workdir) -> list[str]:
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    command = [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=bare, capture_output=True, timeout=120)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/, run.py exited {proc.returncode} and printed {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    errors: list[str] = []
    workdir = ROOT / ".perfbench_work" / "selftest"
    try:
        graphs = make_graphs(DEFAULT_SEED)
        runner = Runner(workdir, write_graphs(graphs, workdir))
        if runner.warm_up() is not None:
            print("selftest: cannot import divzeta from src/", file=sys.stderr)
            return 1
        digests = json.loads(DIGESTS.read_text())
        checker = Checker(DEFAULT_SEED, graphs, digests)
        for name, jobs in WORKLOADS.items():
            (_, plain), (_, traced) = measure(runner, name, jobs, 0, True, checker)
            for a, b in zip(plain, traced):
                if a.error or b.error:
                    errors.append(f"{name}/{a.job.name}: {a.error or b.error}")
                if a.stdout != b.stdout:
                    errors.append(f"{name}/{a.job.name}: traced stdout differs from untraced")
                errors += span_errors(b.trace)
            metrics = layer_metrics([r.trace for r in traced])
            if name == "closed-symbolic" and metrics["measures.of_elem.calls"] != 0:
                errors.append("closed-symbolic: measures.of_elem was called")
            if name == "closed-measured":
                corrupted = dict(digests)
                corrupted[jobs[0].name] = "0" * 64
                bad = Checker(DEFAULT_SEED, graphs, corrupted)
                failed = sum(bad.check(r.job, r.returncode, r.stdout) is not None for r in plain)
                if failed == 0:
                    errors.append("a corrupted digest did not raise failed_ratio")
        errors += no_program_errors(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
