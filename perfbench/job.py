"""Run one ``divzeta.cli.main`` call in this fresh interpreter.

Usage: ``job.py ROOT JOB_ID TRACE_PATH [CLI ARGS...]``, or ``job.py ROOT``
to import the package only.  ``TRACE_PATH`` is ``-`` for an untraced job.
The CLI's stdout passes through untouched; the last line of stderr is
``perfbench-job {json}`` with the monotonic times at which ``cli.main`` was
entered and left, and the process's peak RSS.  The exit
code is the CLI's.
"""

import json
import os
import resource
import sys
import time

MARKER = "perfbench-job "


def main() -> int:
    root = sys.argv[1]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from divzeta import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"divzeta imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 99
    if len(sys.argv) == 2:
        return 0
    job_id, trace_path, cli_args = sys.argv[2], sys.argv[3], sys.argv[4:]
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer(job_id)
        tracer.install()
    entered = time.monotonic()
    code = cli.main(cli_args)
    left = time.monotonic()
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    stats = {
        "entered": entered,
        "left": left,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(MARKER + json.dumps(stats), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
