"""One benchmark process: build a workload's inputs from the seed, run its
job list once, check every output.

Started by run.py in a fresh interpreter, so every library cache starts
empty, as it does for a CLI call or a test session.  It reports on stdout as
JSON lines: ``{"ready": ...}`` once the inputs are built, then the result.
Anything else the library prints goes to stderr.  Untraced, it probes the
machine's speed right after set-up and throughout the job list (see
harness.SpeedGauge) and reports times in reference seconds as well.

    python3 perfbench/child.py --workload differential-row --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _cache_entries(module, name: str) -> int:
    """Current size of an lru_cache in the library, 0 if there is none."""
    info = getattr(getattr(module, name, None), "cache_info", None)
    return info().currsize if info else 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()

    report = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(msg: dict) -> None:
        report.write(json.dumps(msg) + "\n")
        report.flush()

    sys.path.insert(0, SRC)
    import hyperstrata
    if os.path.dirname(os.path.abspath(hyperstrata.__file__)) != \
            os.path.join(SRC, "hyperstrata"):
        raise SystemExit(f"hyperstrata imported from {hyperstrata.__file__}, "
                         f"not from {SRC}")
    from harness import Checker, SpeedGauge, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(random.Random(args.seed))
    fingerprint = hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]
    send({"ready": True, "fingerprint": fingerprint})
    gauge = None if args.trace else SpeedGauge()
    if gauge:
        gauge.start()
    if args.setup_only:
        send({"setup_scale": gauge.setup_scale()})
        return 0

    tracer = Tracer(args.run_id, enabled=bool(args.trace), gauge=gauge)
    start = perf_counter()
    out = workload.run(inputs, tracer)
    wall_s = perf_counter() - start
    timing = {"wall_s": wall_s}
    if gauge:
        gauge.stop()
        timing = {"wall_s": gauge.measured_s(),
                  "reference_wall_s": gauge.reference_s(),
                  "setup_scale": gauge.setup_scale()}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {}
    if args.trace:
        from hyperstrata import lie
        metrics = tracer.metrics()
        metrics["lie.bracket_cache_entries"] = _cache_entries(
            lie, "_bracket_words")
        metrics["lie.std_split_cache_entries"] = _cache_entries(
            lie, "_std_split")
        if args.spans:
            tracer.dump(args.spans)

    with open(os.path.join(HERE, "goldens.json")) as fh:
        checker = Checker(json.load(fh))
    workload.check(inputs, out, checker)
    if checker.ops != tracer.calls:
        raise SystemExit(f"{tracer.calls} library calls but {checker.ops} "
                         "checked: every call needs exactly one check")
    send({**timing, "rss_mb": rss_mb, "ops": checker.ops,
          "failed": checker.failed, "failures": checker.failures[:5],
          "metrics": metrics})
    return 0


if __name__ == "__main__":
    code = main()
    sys.stderr.flush()
    # Skip freeing the heap object by object (about a second after the
    # numbered sweep); the report is already flushed.
    os._exit(code)
