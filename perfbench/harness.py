"""Spans, work counters and output checks for one benchmark child process.

The benchmark sees each hyperstrata module from outside: every call the
workloads make into the library goes through ``Tracer.call``, which counts
it and, when tracing is on, records a span around it.  ``Checker`` tallies
the correctness checks; every call must be covered by exactly one check.
``SpeedGauge`` times a fixed probe job between library calls, to take the
machine's changing speed out of the timings.
"""

from __future__ import annotations

import gc
import json
import random
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from statistics import median
from time import perf_counter

PROBE_EVERY_S = 0.1      # workload seconds between two probes
PROBE_WINDOW = 5         # least probes on each side that gauge a segment
REFERENCE_PROBE_S = 0.01  # the probe's time at reference speed
SETUP_PROBES = 5         # probes right after set-up that gauge its speed


class _Node:
    __slots__ = ("label", "kids")

    def __init__(self, label: int):
        self.label = label
        self.kids: list[_Node] = []

    def key(self) -> tuple:
        return (self.label,) + tuple(sorted(k.key() for k in self.kids))


def probe() -> None:
    """A fixed pure-Python job, about 10 ms, shaped like the library's hot
    paths: objects and method calls, sorted tuple keys of random trees, dict
    counts and Fraction sums.  It never touches the library, so its time
    measures only how fast the machine runs at that moment."""
    rng = random.Random(5)
    seen: dict = {}
    for _ in range(100):
        nodes = [_Node(rng.randrange(3)) for _ in range(40)]
        for i in range(1, 40):
            nodes[rng.randrange(i)].kids.append(nodes[i])
        key = nodes[0].key()
        seen[key] = seen.get(key, 0) + 1
    total = Fraction(0)
    for i in range(1, 800):
        total += Fraction(i % 7 - 3, i % 11 + 1)


class SpeedGauge:
    """Splits a timed job list into segments of about PROBE_EVERY_S with a
    probe between each two, and converts the job list's time to reference
    seconds: each segment is scaled by REFERENCE_PROBE_S over the median of
    the probes on either side of it, PROBE_WINDOW on each side or, for a
    long segment, as many as it would hold at one per PROBE_EVERY_S.  The
    machine's speed drifts by a third from one minute to the next and by
    more within a second; the probes, run in the same process around the
    segment, drift with it.  Around short calls the window spans about a
    second, where one 10 ms probe alone is too noisy; a long call (a single
    library call takes up to 8 s) is gauged over as long a stretch as its
    own.  Probe time is not counted, and the garbage collector is paused
    during probes so that the library's heap does not slow them."""

    def __init__(self):
        self.segments: list[float] = []
        self.probes: list[float] = []
        self._mark = 0.0

    def _probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        probe()
        self.probes.append(perf_counter() - start)
        if enabled:
            gc.enable()
        self._mark = perf_counter()

    def start(self) -> None:
        for _ in range(SETUP_PROBES):
            self._probe()

    def tick(self) -> None:
        now = perf_counter()
        if now - self._mark >= PROBE_EVERY_S:
            self.segments.append(now - self._mark)
            self._probe()

    def stop(self) -> None:
        self.segments.append(perf_counter() - self._mark)
        self._probe()

    def measured_s(self) -> float:
        return sum(self.segments)

    def reference_s(self) -> float:
        first = len(self.probes) - len(self.segments)  # probe after segment 0
        total = 0.0
        for j, seconds in enumerate(self.segments):
            after = first + j
            side = max(PROBE_WINDOW, round(seconds / PROBE_EVERY_S))
            window = self.probes[max(after - side, 0):after + side]
            total += seconds * REFERENCE_PROBE_S / median(window)
        return total

    def setup_scale(self) -> float:
        """Reference seconds per measured second just after set-up."""
        return REFERENCE_PROBE_S / median(self.probes[:SETUP_PROBES])


class Tracer:
    """Counts calls into the library; with ``enabled``, also keeps spans
    (name, start, end, parent index) and work counters in memory.  With a
    ``gauge``, gives it a chance to probe before each call."""

    def __init__(self, run_id: str, enabled: bool,
                 gauge: SpeedGauge | None = None):
        self.run_id = run_id
        self.enabled = enabled
        self.gauge = gauge
        self.calls = 0
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.work: dict[str, float] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        self.calls += 1
        if self.gauge:
            self.gauge.tick()
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else None
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((name, start, perf_counter(), parent))
        return result

    def span(self, name: str):
        """A parent span around a group of calls (a job of the workload)."""
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index] = (name, self.spans[index][1], perf_counter(),
                                 parent)

    def add(self, name: str, amount: float) -> None:
        if self.enabled:
            self.work[name] += amount

    def see(self, name: str, value) -> None:
        """Record one output, for a count of distinct outputs."""
        if self.enabled:
            self.distinct[name].add(value)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": [[n, s, e, p, self.run_id]
                                 for n, s, e, p in self.spans]}, fh)

    def metrics(self) -> dict[str, float]:
        """Per-function inclusive seconds and calls, per-layer self
        seconds, work counts and distinct-output counts."""
        return {**span_metrics(self.spans), **self.work,
                **{f"{k}_distinct": len(v) for k, v in self.distinct.items()},
                "trace.spans": len(self.spans)}


def span_metrics(spans) -> dict[str, float]:
    """``<name>_s`` (inclusive seconds) and ``<name>_calls`` per span name;
    per layer (the name's first component), ``.inclusive_s``, ``.self_s``
    (span time not covered by child spans) and ``.spans``.  Spans of one
    layer never nest: library calls are traced from outside and job spans
    are not nested, so a layer's inclusive seconds are the sum of its spans."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(int)
    for (name, start, end, _), covered in zip(spans, child_time):
        layer = name.split(".", 1)[0]
        out[f"{name}_s"] += end - start
        out[f"{name}_calls"] += 1
        out[f"{layer}.inclusive_s"] += end - start
        out[f"{layer}.self_s"] += end - start - covered
        out[f"{layer}.spans"] += 1
    return dict(out)


class Checker:
    """Tallies checks; each covers ``ops`` library calls.

    Golden values come from ``goldens``; with ``record`` the values seen are
    stored there instead of compared."""

    def __init__(self, goldens: dict, record: bool = False):
        self.goldens = goldens
        self.record = record
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, ops: int, what: str) -> None:
        self.ops += ops
        if not ok:
            self.failed += ops
            self.failures.append(what)

    def golden(self, key: str, value, ops: int) -> None:
        value = json.loads(json.dumps(value))
        if self.record:
            self.goldens[key] = value
            self.ops += ops
            return
        expected = self.goldens.get(key)
        self.expect(value == expected, ops,
                    f"golden {key}: got {value!r:.200}, "
                    f"expected {expected!r:.200}")
