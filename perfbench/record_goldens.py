"""Record goldens.json: the seed-independent values the workload checks
compare against (class counts, d1 term counts, SHA-256 of CLI, CSV and JSON
bytes).  Run it only on a commit whose outputs are trusted:

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from harness import Checker, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    goldens: dict = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.setup(random.Random(0))
        out = workload.run(inputs, Tracer(name, enabled=False))
        checker = Checker(goldens, record=True)
        workload.check(inputs, out, checker)
        if checker.failures:
            print(f"{name}: checks failed, nothing recorded:",
                  *checker.failures[:5], sep="\n  ", file=sys.stderr)
            return 1
    with open(os.path.join(HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
