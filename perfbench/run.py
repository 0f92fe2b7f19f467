"""divzeta benchmark: CLI jobs end to end, and a traced run per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload closed-symbolic --seed 0 --seconds 40 --trace 0

Each job is one ``divzeta.cli.main`` call in a fresh interpreter, started by
this single process only after the previous job has exited (closed loop, one
client, no threads).  A pass runs the workload's job list once; passes repeat
while the next one still fits in ``--seconds``.  Every job's output is
checked (``reference.py``); a job that fails its check or exits non-zero
counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, each the median over passes:
``solve_s`` (time inside ``cli.main``, summed over a pass), ``setup_s``
(interpreter start plus ``import divzeta``, summed over a pass) and
``peak_rss_mb`` (the largest peak RSS of a pass's jobs).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced passes (``tracer.py``), plus ``trace.overhead_ratio``, the traced
over the untraced ``solve_s``.

The last line of stdout is the JSON result; the lines before it print every
metric with its unit, and ``.perfbench_results/`` gets a results file with the
run record (Python, nproc, CPU model, load average, commit, seed), every
job's timings and the spans of the first traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from job import MARKER
from reference import Checker, digest
from tracer import UNITS, layer_metrics, self_times
from workloads import DEFAULT_SEED, WORKLOADS, Job, make_graphs, write_graphs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
JOB_TIMEOUT_S = 60
# No pass starts unless it can end by then, so a run ends well within 180 s.
PASS_DEADLINE_S = 140
END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = UNITS | {"trace.overhead_ratio": "ratio"}


@dataclass
class JobResult:
    job: Job
    traced: bool
    returncode: int | None  # None: killed at the timeout
    stdout: bytes
    setup_s: float = 0.0
    solve_s: float = 0.0
    maxrss_kb: int = 0
    trace: dict | None = None
    error: str | None = None


class Runner:
    """Starts job processes one at a time and collects what they report."""

    def __init__(self, workdir: Path, graph_paths: dict[str, str]):
        self.workdir = workdir
        self.graph_paths = graph_paths
        # Jobs load the bytecode the warm-up caches, as an installed CLI does,
        # whatever the caller's setting.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

    def warm_up(self) -> str | None:
        """Import the package once (compiling its bytecode); error text or None."""
        command = [sys.executable, str(HERE / "job.py"), str(ROOT)]
        try:
            proc = subprocess.run(command, capture_output=True, timeout=JOB_TIMEOUT_S, env=self.env)
        except subprocess.TimeoutExpired:
            return "importing divzeta timed out"
        if proc.returncode != 0:
            return proc.stderr.decode(errors="replace").strip() or f"exit code {proc.returncode}"
        return None

    def run(self, job: Job, traced: bool, job_id: str) -> JobResult:
        trace_path = self.workdir / "trace.json"
        command = [
            sys.executable,
            str(HERE / "job.py"),
            str(ROOT),
            job_id,
            str(trace_path) if traced else "-",
            *job.argv(self.graph_paths[job.graph]),
        ]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(command, capture_output=True, timeout=JOB_TIMEOUT_S, env=self.env)
        except subprocess.TimeoutExpired:
            return JobResult(job, traced, None, b"", error=f"timed out after {JOB_TIMEOUT_S} s")
        result = JobResult(job, traced, proc.returncode, proc.stdout)
        lines = proc.stderr.decode(errors="replace").splitlines()
        if not lines or not lines[-1].startswith(MARKER):
            result.error = "no job stats: " + " | ".join(lines[-3:])
            return result
        stats = json.loads(lines[-1][len(MARKER) :])
        result.setup_s = stats["entered"] - spawned
        result.solve_s = stats["left"] - stats["entered"]
        result.maxrss_kb = stats["maxrss_kb"]
        if traced:
            result.trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        return result


def measure(runner, name, jobs, seconds, trace, checker) -> list[tuple[bool, list[JobResult]]]:
    """Run passes until the next would overrun ``seconds``; check every job."""
    passes: list[tuple[bool, list[JobResult]]] = []
    durations: list[float] = []
    outputs: dict[str, str] = {}
    started = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        begun = time.monotonic()
        results = []
        for job in jobs:
            result = runner.run(job, traced, f"{name}/{job.name}/pass{len(passes)}")
            if result.error is None:
                result.error = checker.check(job, result.returncode, result.stdout)
            stdout = digest(result.stdout)
            if result.error is None and outputs.setdefault(job.name, stdout) != stdout:
                result.error = "stdout differs from the job's earlier passes"
            results.append(result)
        passes.append((traced, results))
        durations.append(time.monotonic() - begun)
        elapsed = time.monotonic() - started
        next_pass = max(durations[-2:])
        if any(r.returncode is None for r in results):
            break
        if (not trace or len(passes) >= 2) and elapsed + next_pass > min(seconds, PASS_DEADLINE_S):
            break
    return passes


def end_to_end(passes) -> dict[str, list[float]]:
    untraced = [results for traced, results in passes if not traced]
    return {
        "solve_s": [sum(r.solve_s for r in results) for results in untraced],
        "setup_s": [sum(r.setup_s for r in results) for results in untraced],
        "peak_rss_mb": [max(r.maxrss_kb for r in results) / 1024 for results in untraced],
    }


def per_layer(passes, solve_untraced: list[float]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    traced_solve = []
    for traced, results in passes:
        if not traced:
            continue
        traced_solve.append(sum(r.solve_s for r in results))
        for key, value in layer_metrics([r.trace for r in results if r.trace]).items():
            samples.setdefault(key, []).append(value)
    samples["trace.overhead_ratio"] = [
        statistics.median(traced_solve) / statistics.median(solve_untraced)
    ]
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def first_traced_spans(passes) -> list[list]:
    for traced, results in passes:
        if traced:
            out = []
            for r in results:
                if r.trace:
                    spans = r.trace["spans"]
                    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
                        out.append([r.trace["job"], name, start, end, parent, own])
            return out
    return []


def write_results(record, passes, metrics, failed, attempted) -> Path:
    directory = ROOT / ".perfbench_results"
    directory.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    path = directory / f"{name}-{stamp}-{os.getpid()}.json"
    document = {
        "record": record,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": [
            [
                {
                    "job": r.job.name,
                    "traced": traced,
                    "returncode": r.returncode,
                    "setup_s": r.setup_s,
                    "solve_s": r.solve_s,
                    "maxrss_kb": r.maxrss_kb,
                    "stdout_sha256": digest(r.stdout),
                    "error": r.error,
                }
                for r in results
            ]
            for traced, results in passes
        ],
        "spans": first_traced_spans(passes),
    }
    path.write_text(json.dumps(document))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_record(args)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        graphs = make_graphs(args.seed)
        runner = Runner(workdir, write_graphs(graphs, workdir))
        error = runner.warm_up()
        if error is not None:
            print(f"perfbench: cannot run divzeta from {ROOT / 'src'}: {error}", file=sys.stderr)
            return 2
        record["src_sha256"] = source_digest()
        digests = json.loads(DIGESTS.read_text()) if args.seed == DEFAULT_SEED else None
        checker = Checker(args.seed, graphs, digests)
        jobs = WORKLOADS[args.workload]
        passes = measure(runner, args.workload, jobs, args.seconds, args.trace == 1, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for _, rs in passes for r in rs]
    attempted, failed = len(results), sum(r.error is not None for r in results)
    samples = end_to_end(passes)
    units = END_TO_END_UNITS | PER_LAYER_UNITS
    if args.trace:
        samples |= per_layer(passes, samples["solve_s"])
    metrics = {
        key: {"value": statistics.median(values), "unit": units[key]}
        for key, values in samples.items()
    }

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}"
        f" python={record['python']} nproc={record['nproc']} cpu={record['cpu_model']!r}"
        f" load={record['loadavg_start'][0]:.2f} commit={record['git_commit']}"
    )
    for key, metric in metrics.items():
        print(f"{key} = {metric['value']!r} {metric['unit']}  (median of {len(samples[key])})")
    print(f"failed_ratio = {failed / attempted!r}  ({failed} of {attempted} jobs)")
    for r in results:
        if r.error is not None:
            print(f"FAILED {r.job.name} traced={r.traced}: {r.error}")
    path = write_results(record, passes, metrics, failed, attempted)
    print(f"results: {path.relative_to(ROOT)}")
    reported = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {key: metrics[key] for key in reported}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
