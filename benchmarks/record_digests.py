"""Record the CSV digest of every op the benchmark runs at its default seed.

    python3 benchmarks/record_digests.py

Run it from the root of a source checkout, only at a commit whose outputs
are the reference; it rewrites benchmarks/digests.json.  Benchmark runs at
the default seed then count any op whose CSVs differ as failed.
"""

import json
import os
import sys

import run
from workloads import WORKLOADS, Sizes, make_ops


def main() -> int:
    cli = run.import_flowmark()
    digests = {}
    for workload in WORKLOADS:
        configs, ops = make_ops(workload, run.DEFAULT_SEED, Sizes())
        runner = run.Runner(cli=cli, recorded={})
        with run.work_dir(f"record-{workload}-{os.getpid()}", configs):
            for op in ops:
                runner.run_op(op)
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        digests |= runner.first
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
