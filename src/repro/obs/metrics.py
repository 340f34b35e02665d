"""Metric primitives: counters, gauges, histograms, labeled families.

A deliberately tiny, dependency-free metrics substrate modeled on the
Prometheus data model:

- :class:`Counter` — a monotonically increasing total;
- :class:`Gauge` — a value that can move both ways;
- :class:`Histogram` — fixed upper-bound buckets with cumulative
  counts, a running sum, and interpolated quantiles (p50/p90/p99);
- :class:`MetricFamily` — one named metric with a fixed label schema
  and one child instrument per label-value combination;
- :class:`MetricsRegistry` — the process-wide collection of families,
  snapshot-able as plain data for the renderers in
  :mod:`repro.obs.render`.

**Zero-cost-when-disabled policy.** The module-level default registry is
a :class:`NullRegistry` whose instruments are shared no-op singletons:
every ``inc``/``set``/``observe`` on them is a single empty method call,
and instrumented code paths are expected to hold an ``is None`` /
``registry.enabled`` guard so that the *disabled* configuration performs
no metric work at all. Enabled instruments may only be touched per
chunk, batch or operation — never per stream item; the
``purity.metric-in-loop`` rule of :mod:`repro.analysis` enforces this
statically for the hot plane paths.

All instruments are thread-safe (the ingest pipeline's producers and
apply thread observe histograms concurrently). Nothing in this module
reads any clock: durations are measured at the instrumentation site with
``time.perf_counter()`` and fed into histograms only (the
``determinism.clock-into-metric`` rule keeps clock readings out of
counters and gauges, so JSON snapshots of counting metrics stay
deterministic for seeded runs).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterator, Mapping, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
]

#: Default histogram bucket upper bounds, in seconds — spanning the
#: microsecond-scale batch applies up to multi-second checkpoint saves.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing total (e.g. records ingested)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        # analysis: allow(guards.unguarded-access) -- lock-free read of
        # a single float reference; the GIL makes it untearable, and a
        # scrape observing a value one inc stale is correct behaviour.
        return self._value


class Gauge:
    """An instantaneous value that can move both ways (e.g. queue depth)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the current value."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the current value."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current value."""
        # analysis: allow(guards.unguarded-access) -- same single-read
        # waiver as Counter.value: GIL-atomic, staleness is fine.
        return self._value


class Histogram:
    """Fixed-bucket distribution with interpolated quantiles.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    Quantiles are estimated exactly like Prometheus'
    ``histogram_quantile``: rank the target observation among the
    cumulative bucket counts and interpolate linearly inside the bucket
    it falls in (observations landing in the ``+Inf`` bucket report the
    last finite bound).
    """

    __slots__ = ("_lock", "bounds", "_counts", "_count", "_sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self._lock = threading.Lock()
        self.bounds = bounds
        # +1 for the +Inf bucket  # guarded-by: _lock
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = self._bucket_index(float(value))
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect on the bounds)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @property
    def count(self) -> int:
        """Total number of observations."""
        # analysis: allow(guards.unguarded-access) -- single GIL-atomic
        # int read; a scrape one observation stale is fine.
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        # analysis: allow(guards.unguarded-access) -- single GIL-atomic
        # float read; same staleness waiver as count.
        return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        with self._lock:
            counts = list(self._counts)
        for bound, count in zip(self.bounds, counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Interpolated ``q``-quantile (0 <= q <= 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        buckets = self.cumulative_buckets()
        total = buckets[-1][1]
        if total == 0:
            return 0.0
        rank = q * total
        previous_bound, previous_cum = 0.0, 0
        for bound, cumulative in buckets:
            if cumulative >= rank:
                if not math.isfinite(bound):
                    return self.bounds[-1]
                if cumulative == previous_cum:
                    return bound
                fraction = (rank - previous_cum) / (cumulative - previous_cum)
                return previous_bound + fraction * (bound - previous_bound)
            previous_bound, previous_cum = bound, cumulative
        return self.bounds[-1]  # pragma: no cover - rank <= total always hits

    def percentiles(self) -> dict[str, float]:
        """The conventional p50/p90/p99 summary."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricFamily:
    """One named metric and its children, keyed by label values.

    A family with no label names holds exactly one child (the family's
    registry accessor returns that child directly for convenience); a
    labeled family materializes one child per distinct label-value
    combination on first use.
    """

    __slots__ = ("name", "kind", "help", "label_names", "_buckets",
                 "_lock", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}  # guarded-by: _lock

    def labels(self, **labels: str) -> object:
        """The child instrument for one label-value combination."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        # analysis: allow(guards.unguarded-access) -- double-checked
        # fast path: a lock-free .get() on a dict the GIL keeps
        # internally consistent; the authoritative insert below is a
        # setdefault under the lock, so a miss here only costs the
        # slow path, never correctness.
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _make_child(self) -> object:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self._buckets)

    def samples(self) -> Iterator[tuple[tuple[str, ...], object]]:
        """``(label_values, instrument)`` pairs, sorted by label values."""
        with self._lock:
            items = sorted(self._children.items())
        return iter(items)


class MetricsRegistry:
    """A process-wide, thread-safe collection of metric families.

    Accessors are get-or-create: asking twice for the same name returns
    the same family (and validates that kind and label schema did not
    change). ``collect()`` freezes everything into plain data for the
    renderers.
    """

    #: Instrumented code paths may check this before doing any metric
    #: work (timing, ratio computation); the null registry sets False.
    enabled: bool = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Family accessors
    # ------------------------------------------------------------------
    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> object:
        """Get or create a counter; returns the bare :class:`Counter`
        when ``labels`` is empty, the :class:`MetricFamily` otherwise."""
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> object:
        """Get or create a gauge (see :meth:`counter` for the return)."""
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> object:
        """Get or create a histogram (see :meth:`counter` for the return)."""
        return self._family(name, "histogram", help, labels, buckets)

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> object:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, labels, buckets)
                self._families[name] = family
            elif family.kind != kind or family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name} already registered as {family.kind}"
                    f"{family.label_names}, cannot re-register as "
                    f"{kind}{tuple(labels)}"
                )
        if not family.label_names:
            return family.labels()
        return family

    def families(self) -> list[MetricFamily]:
        """Every registered family, sorted by metric name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------
    def collect(self) -> list[dict[str, object]]:
        """Freeze all families into JSON-serializable plain data.

        Histogram bucket bounds are rendered as strings (``"0.005"``,
        ``"+Inf"``) because JSON has no infinity; empty histograms
        report 0.0 for every percentile.
        """
        out: list[dict[str, object]] = []
        for family in self.families():
            samples: list[dict[str, object]] = []
            for values, instrument in family.samples():
                labels = dict(zip(family.label_names, values))
                if isinstance(instrument, Histogram):
                    samples.append({
                        "labels": labels,
                        "count": instrument.count,
                        "sum": instrument.sum,
                        "buckets": [
                            [_format_bound(bound), count]
                            for bound, count in
                            instrument.cumulative_buckets()
                        ],
                        **instrument.percentiles(),
                    })
                else:
                    assert isinstance(instrument, (Counter, Gauge))
                    samples.append({
                        "labels": labels, "value": instrument.value,
                    })
            out.append({
                "name": family.name,
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": samples,
            })
        return out


def _format_bound(bound: float) -> str:
    """Render a bucket bound the way Prometheus exposition does."""
    if math.isinf(bound):
        return "+Inf"
    return repr(bound)


# ----------------------------------------------------------------------
# The no-op substrate (default when observability is disabled)
# ----------------------------------------------------------------------
class _NullInstrument:
    """Shared no-op counter/gauge/histogram/family stand-in."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """No-op."""

    def dec(self, amount: float = 1.0) -> None:
        """No-op."""

    def set(self, value: float) -> None:
        """No-op."""

    def observe(self, value: float) -> None:
        """No-op."""

    def labels(self, **labels: str) -> "_NullInstrument":
        """Return the shared no-op instrument."""
        return self

    @property
    def value(self) -> float:
        """Always 0.0."""
        return 0.0


_NULL = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every accessor returns a shared no-op.

    Instrumented call sites check :attr:`MetricsRegistry.enabled` (or
    compare against ``None`` after resolving their instruments) and skip
    all metric work — including clock reads — when this registry is
    installed, so disabled observability costs nothing per item.
    """

    enabled = False

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> object:
        return _NULL

    def families(self) -> list[MetricFamily]:
        """Always empty."""
        return []

    def collect(self) -> list[dict[str, object]]:
        """Always empty."""
        return []


_DEFAULT_REGISTRY: MetricsRegistry = NullRegistry()
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (a no-op :class:`NullRegistry` unless
    observability was enabled with :func:`set_registry`)."""
    return _DEFAULT_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the previous one.

    Pass a fresh :class:`MetricsRegistry` to enable observability, or a
    :class:`NullRegistry` to disable it again::

        previous = set_registry(MetricsRegistry())
        try:
            ...  # instrumented run
        finally:
            set_registry(previous)
    """
    global _DEFAULT_REGISTRY
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(
            f"expected a MetricsRegistry, got {type(registry).__name__}"
        )
    with _DEFAULT_LOCK:
        previous = _DEFAULT_REGISTRY
        _DEFAULT_REGISTRY = registry
    return previous
