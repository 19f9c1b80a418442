"""Benchmark runner for hyperstrata.

Runs one workload (or ``all``) as a closed loop with one client: each
repetition is a fresh interpreter (child.py) that imports the library from
``src/``, builds the seeded inputs, runs the job list once and checks every
output.  Fresh processes are deliberate: the library's lru_caches start
empty in every CLI call and test session, so users pay to fill them, and so
does the benchmark.

    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json
(medians over the repetitions, and over extra set-up-only processes for
``setup_s``).  Their times are in reference seconds: each process times a
fixed probe job right after set-up and every 0.1 s between library calls,
and scales what it measured by the probe's reference time over its
measured time nearby (harness.SpeedGauge), which takes out the drift of a
shared machine's speed.  The measured seconds are printed too.

With ``--trace 1`` it alternates untraced and traced processes and reports
the per-layer metrics, in measured seconds: the traced process records a
span around every call the benchmark makes into a hyperstrata module, and
``trace.overhead_s`` is traced minus untraced measured ``wall_s`` on the
same seed.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 5        # set-up-only processes per untraced run
GRACE_S = 130            # a workload's processes end by seconds + GRACE_S
LAYERS = ("graphs", "trees", "covers", "lie", "spectral", "serialize",
          "checks", "cli", "bench")


class ChildFailed(Exception):
    pass


def _lines(proc: subprocess.Popen, deadline: float):
    """Yield the child's stdout lines as they arrive, and ``""`` at its
    end; raise ChildFailed if none arrives before ``deadline``."""
    fd, buf = proc.stdout.fileno(), b""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode()
        left = deadline - perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise ChildFailed("benchmark process did not finish in time")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            yield ""
            return
        buf += chunk


def _message(line: str) -> dict:
    if not line:
        raise ChildFailed("benchmark process ended without a report "
                          "(see its stderr above)")
    return json.loads(line)


def spawn(workload: str, seed: int, deadline: float, trace: int = 0,
          setup_only: bool = False, spans: str | None = None,
          run_id: str = "") -> dict:
    """Run one child, killing it at ``deadline``; returns its report plus
    ``setup_s``, the time from process start until its inputs were built."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--run-id", run_id]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          bufsize=0) as proc:
        try:
            lines = _lines(proc, deadline)
            ready = _message(next(lines))
            setup_s = perf_counter() - start
            report = _message(next(lines))
            code = proc.wait(timeout=max(deadline - perf_counter(), 0.1))
        except BaseException:
            proc.kill()
            raise
    if code:
        raise ChildFailed(f"{workload} process exited with code {code}")
    return {**report, "fingerprint": ready["fingerprint"],
            "setup_s": setup_s}


def measure(workload: str, seed: int, seconds: int, trace: int,
            spec: dict) -> dict:
    deadline = perf_counter() + seconds + GRACE_S
    setups = []
    if not trace:
        setups = [spawn(workload, seed, deadline, setup_only=True)
                  for _ in range(SETUP_SAMPLES)]
    untraced, traced = [], []
    start = perf_counter()
    # Repeat while one more repetition is expected to end within `seconds`.
    while not untraced or (perf_counter() - start) * (1 + 1 / len(untraced)) \
            <= seconds:
        untraced.append(spawn(workload, seed, deadline))
        if trace:
            rep = len(traced)
            os.makedirs(OUT_DIR, exist_ok=True)
            spans = os.path.join(OUT_DIR,
                                 f"spans-{workload}-seed{seed}-rep{rep}.json")
            traced.append(spawn(workload, seed, deadline, trace=1, spans=spans,
                                run_id=f"{workload}:{seed}:{rep}"))
    runs = untraced + traced
    fingerprints = {r["fingerprint"] for r in runs}
    if len(fingerprints) != 1:
        raise ChildFailed(f"seed {seed} gave different inputs: {fingerprints}")

    wall_s = median(r["wall_s"] for r in untraced)
    if trace:
        names = set().union(*(r["metrics"] for r in traced))
        values = {k: median(r["metrics"].get(k, 0) for r in traced)
                  for k in names}
        values["trace.overhead_s"] = median(r["wall_s"] for r in traced) - wall_s
        wanted = spec["per_layer"]
    else:
        setups += untraced
        values = {
            "wall_s": median(r["reference_wall_s"] for r in untraced),
            "setup_s": median(r["setup_s"] * r["setup_scale"]
                              for r in setups),
            "peak_rss_mb": median(r["rss_mb"] for r in untraced),
            "measured wall_s": wall_s,
            "measured setup_s": median(r["setup_s"] for r in setups),
        }
        wanted = spec["end_to_end"]
    return {
        "workload": workload, "seed": seed, "reps": len(untraced),
        "fingerprint": fingerprints.pop(),
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:5],
        "all_values": values,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in wanted},
    }


def print_report(res: dict, trace: int) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  reps {res['reps']}  "
          f"inputs {res['fingerprint']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'failed_ratio':<44} {ratio:.6g} ratio "
          f"({res['failed']} of ops_total {res['attempted']})")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    if not trace:
        v = res["all_values"]
        print(f"  (in measured seconds: wall_s {v['measured wall_s']:.6g}, "
              f"setup_s {v['measured setup_s']:.6g})")
    if trace:
        v = res["all_values"]
        print(f"  {'layer':<10} {'inclusive_s':>12} {'self_s':>10} "
              f"{'spans':>8}")
        for layer in LAYERS:
            print(f"  {layer:<10} {v.get(layer + '.inclusive_s', 0):12.4f} "
                  f"{v.get(layer + '.self_s', 0):10.4f} "
                  f"{v.get(layer + '.spans', 0):8.0f}")


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    results = []
    try:
        for name in names if args.workload == "all" else [args.workload]:
            res = measure(name, args.seed, args.seconds, args.trace, spec)
            print_report(res, args.trace)
            results.append(res)
    except (ChildFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results
                   for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
