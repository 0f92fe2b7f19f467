"""Record the default seed's stdout digests of every job into ``digests.json``.

Run from the root of a checkout: ``python3 perfbench/record_digests.py``.
Each output must first pass the integer-reference checks.  Re-record only
when a change deliberately alters the CLI's output contract, and say so.
"""

import json
import shutil
import sys

from reference import Checker, digest
from run import DIGESTS, ROOT, Runner, measure
from workloads import DEFAULT_SEED, WORKLOADS, make_graphs, write_graphs


def main() -> int:
    workdir = ROOT / ".perfbench_work" / "record"
    try:
        graphs = make_graphs(DEFAULT_SEED)
        runner = Runner(workdir, write_graphs(graphs, workdir))
        checker = Checker(DEFAULT_SEED, graphs, None)
        digests = {}
        for name, jobs in WORKLOADS.items():
            [(_, results)] = measure(runner, name, jobs, 0, False, checker)
            for result in results:
                if result.error is not None:
                    print(f"{result.job.name}: {result.error}", file=sys.stderr)
                    return 1
                digests[result.job.name] = digest(result.stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
