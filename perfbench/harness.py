"""Shared plumbing of the benchmark: spans, statistics, checks, provenance.

Nothing here imports ``repro``, so the span arithmetic can be tested
without the package on the path (see ``tests/test_spans.py``).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval around a call into a layer.

    ``parent`` is the id of the span that caused this one (``None`` for
    a root); spans of one request share ``request``.
    """

    sid: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(
    intervals: list[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals count once; parts outside ``[lo, hi]`` do not
    count at all.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


class SpanRecorder:
    """In-memory span store, written out once when the benchmark ends.

    ``span()`` always times its body and yields the :class:`Span`, so a
    caller reads every interval's duration from its span and nowhere
    else. A disabled recorder stores nothing, so the untraced runs that
    give the end-to-end metrics pay only for the two clock reads every
    timing needs. Nesting follows the ``span()`` call stack of the
    calling thread; asynchronous code passes ``parent`` and ``request``
    explicitly to :meth:`record`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request: int | None = None,
    ) -> int | None:
        """Store a finished span; returns its id (``None`` if disabled)."""
        if not self.enabled:
            return None
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end, parent, request))
        return sid

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[Span]:
        """Time the body as a child of the innermost open span."""
        stored = self.enabled
        if stored:
            parent = self._stack[-1] if self._stack else None
            current = Span(len(self.spans), name, 0.0, 0.0, parent, request)
            self.spans.append(current)
            self._stack.append(current.sid)
        else:
            current = Span(-1, name, 0.0, 0.0, None, request)
        current.start = time.perf_counter()
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            if stored:
                self._stack.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        return [
            span.duration
            - covered(children.get(span.sid, []), span.start, span.end)
            for span in self.spans
        ]

    def by_name(self) -> dict[str, list[tuple[float, float]]]:
        """``name -> [(duration, self time), ...]`` in recording order."""
        grouped: dict[str, list[tuple[float, float]]] = {}
        for span, own in zip(self.spans, self.self_times()):
            grouped.setdefault(span.name, []).append((span.duration, own))
        return grouped

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span, own in zip(self.spans, self.self_times()):
                handle.write(json.dumps({
                    "id": span.sid, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "request": span.request,
                    "self": own,
                }) + "\n")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def window_p99(values: list[float], size: int = 1000) -> float:
    """Median, over consecutive windows of ``size`` samples, of each
    window's 99th percentile (ten samples lie beyond it).

    ``values`` must be in the order they were taken. One stall of a
    shared host then moves one window's figure, not the run's.
    """
    windows = [values[start:start + size]
               for start in range(0, len(values) - size + 1, size)]
    if not windows:
        return percentile(values, 0.99)
    return median([percentile(window, 0.99) for window in windows])


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# ----------------------------------------------------------------------
# Results: metrics, operation counts and oracle checks
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict[str, list[int]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def put(
        self, name: str, value: float, unit: str, samples: int, note: str = ""
    ) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), note)

    def ops(self, attempted: int, failed: int = 0) -> None:
        """Count operations the system was asked to do, and failures."""
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one oracle comparison; a failed one counts as failed."""
        passed_total = self.checks.setdefault(name, [0, 0])
        passed_total[1] += 1
        self.attempted += 1
        if ok:
            passed_total[0] += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")

    @property
    def correct(self) -> bool:
        """No operation failed and every oracle check passed."""
        return self.failed == 0


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of a process, in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        packed = (git / "packed-refs").read_text(encoding="ascii")
        for line in packed.splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Not a metric of the system: it shows how fast the host ran during a
    run, so a set of runs whose spread comes from the host drifting can
    be told apart from one whose spread comes from the program.
    """
    times = []
    for __ in range(3):
        began = time.perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value
        times.append(time.perf_counter() - began)
    return statistics.median(times) * 1e3


def provenance() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "machine": platform.machine(),
    }
