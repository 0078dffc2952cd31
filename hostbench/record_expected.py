"""Record the expected outcome of every workload for every checked seed.

    PYTHONPATH=src python3 hostbench/record_expected.py

Rewrites ``hostbench/expected.json``: per workload and seed
``0 .. EXPECTED_SEEDS - 1`` (the seeds ``run.py`` makes inputs from),
the ``sim_*`` metrics, the sha256 fingerprint of every simulated
output and the operation count that ``run.py`` checks each run
against.  Seeds run in one process, one after another; outcomes do
not depend on cache state (``run.py`` checks every warm rerun against
the committed entry too), so later seeds may reuse what earlier ones
cached.  Run it only when a change is meant to alter simulated
outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import EXPECTED_PATH, EXPECTED_SEEDS  # noqa: E402
from workloads import SEED_INDEPENDENT, WORKLOADS  # noqa: E402


def main() -> int:
    expected = {}
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        seeds = (["*"] if name in SEED_INDEPENDENT
                 else [str(seed) for seed in range(EXPECTED_SEEDS)])
        table = {}
        for seed in seeds:
            inputs = workload.prepare(0 if seed == "*" else int(seed))
            outcome = workload.check(inputs, workload.run(inputs))
            table[seed] = {"fingerprint": outcome.fingerprint,
                           "sim": outcome.sim,
                           "attempted": outcome.attempted}
            print(f"{name} seed {seed}: {outcome.fingerprint[:16]}",
                  flush=True)
        expected[name] = table
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
