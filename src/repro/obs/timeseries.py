"""Bounded metrics time-series: ring-buffer retention + rate derivation.

A one-shot ``/v1/metrics`` scrape answers "what has happened since the
process started"; it cannot answer "is p99 view latency inside the
paper's interactivity budget *right now*".  This module adds the
retention layer: a :class:`TimeSeriesRecorder` daemon thread snapshots
the registry a source returns — the front door's, which in sharded mode
merges every worker's — at a fixed cadence into a bounded ring buffer,
and the derivation helpers turn any pair of snapshots into the
quantities operators actually read —

* counters   → rates per second over the window (:func:`counter_delta`);
* histograms → *windowed* quantiles, i.e. the p99 of the last N seconds
  rather than of the whole process lifetime (:func:`histogram_delta` +
  :func:`~repro.obs.metrics.histogram_quantile`);
* gauges     → last observed value.

``GET /v1/metrics/history`` serves raw windows plus a server-side
:func:`derive` summary; the SLO engine (:mod:`repro.obs.slo`) and the
``repro top`` dashboard both read through here.  Everything is stdlib:
one daemon thread, one ``deque``, no background persistence.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Callable, Mapping

from .metrics import MetricsRegistry, histogram_quantile

#: Default recorder cadence (seconds) and retention (samples).  600
#: samples at 1 Hz keeps ten minutes of history in a few MB — enough to
#: see a loadgen warmup and evaluate multi-window SLO burn rates.
DEFAULT_INTERVAL = 1.0
DEFAULT_CAPACITY = 600

#: Derived-quantile levels served by ``/v1/metrics/history``.
QUANTILES = (0.5, 0.95, 0.99)


def sample_key(name: str, labels: Mapping[str, str]) -> str:
    """Stable prom-style series key: ``name{k="v",...}`` sorted by label."""
    if not labels:
        return name
    pairs = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{pairs}}}"


def _match(labels: Mapping[str, str], where: Mapping[str, str] | None) -> bool:
    if not where:
        return True
    return all(labels.get(k) == v for k, v in where.items())


class TimeSeriesRecorder:
    """Ring buffer of registry snapshots, filled by a daemon thread.

    ``source`` is called once per sample and returns the registry to
    record.  Each sample is ``{"ts": wall_clock, "mono": monotonic_clock,
    "families": source().render_json()}``; the monotonic stamp is what
    rate/derivation math uses, the wall stamp is for display.  The
    buffer is bounded (``capacity`` samples), so a week-long soak holds
    the same memory as a ten-minute one.
    """

    def __init__(
        self,
        source: Callable[[], MetricsRegistry],
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.source = source
        self.interval = float(interval)
        self.capacity = int(capacity)
        self._samples: deque[dict] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- sampling ------------------------------------------------------

    def sample(self) -> dict:
        """Take one snapshot now (also what the daemon thread calls).

        Exposed so tests and the in-process dashboard can drive the
        recorder deterministically without waiting out the cadence.
        """
        entry = {
            "ts": time.time(),
            "mono": time.perf_counter(),
            "families": self.source().render_json(),
        }
        with self._lock:
            self._samples.append(entry)
        return entry

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> None:
        """Start the recorder thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self.sample()  # an immediate first point anchors the window
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-recorder", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the recorder thread; retained samples stay readable."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.interval + 1.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- reading -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def window(self, seconds: float | None = None) -> list[dict]:
        """Retained samples, oldest first, optionally only the last N s."""
        with self._lock:
            samples = list(self._samples)
        if seconds is None or not samples:
            return samples
        cutoff = samples[-1]["mono"] - float(seconds)
        return [s for s in samples if s["mono"] >= cutoff]


# ----------------------------------------------------------------------
# Window derivation: snapshot pair -> rates / windowed quantiles
# ----------------------------------------------------------------------


def counter_delta(
    first: Mapping,
    last: Mapping,
    family: str,
    where: Mapping[str, str] | None = None,
) -> float:
    """Counter increase over a window, summed across matching children.

    Children absent from ``first`` (born mid-window) count from zero;
    a negative delta (counter reset, e.g. a restarted shard) clamps to
    the end value, mirroring PromQL ``increase()``.
    """
    spec_last = last["families"].get(family)
    if spec_last is None:
        return 0.0
    spec_first = first["families"].get(family, {"samples": []})
    start = {
        sample_key(family, s["labels"]): float(s["value"])
        for s in spec_first["samples"]
        if _match(s["labels"], where)
    }
    total = 0.0
    for s in spec_last["samples"]:
        if not _match(s["labels"], where):
            continue
        end = float(s["value"])
        begin = start.get(sample_key(family, s["labels"]), 0.0)
        total += end - begin if end >= begin else end
    return total


def histogram_delta(
    first: Mapping,
    last: Mapping,
    family: str,
    where: Mapping[str, str] | None = None,
) -> dict:
    """Windowed histogram: per-bucket increase summed over children.

    Returns ``{"buckets": [[le, cumulative], ...], "sum": s, "count": n}``
    in the same shape as ``Histogram.snapshot()``, but covering only the
    observations between the two samples — feeding it to
    :func:`~repro.obs.metrics.histogram_quantile` yields the windowed
    percentile.  Counter-reset children clamp to their end state.
    """
    spec_last = last["families"].get(family)
    if spec_last is None:
        return {"buckets": [], "sum": 0.0, "count": 0}
    spec_first = first["families"].get(family, {"samples": []})
    start = {
        sample_key(family, s["labels"]): s
        for s in spec_first["samples"]
        if _match(s["labels"], where)
    }
    edges: tuple[float, ...] | None = None
    bins: list[float] = []
    total_sum = 0.0
    total_count = 0
    for s in spec_last["samples"]:
        if not _match(s["labels"], where):
            continue
        end_edges = tuple(float(row[0]) for row in s["buckets"])
        if edges is None:
            edges = end_edges
            bins = [0.0] * len(edges)
        elif end_edges != edges:
            raise ValueError(
                f"family {family!r} has children with mismatched buckets"
            )
        prior = start.get(sample_key(family, s["labels"]))
        if prior is not None and int(prior["count"]) > int(s["count"]):
            prior = None  # reset mid-window: count the end state whole
        prior_rows = prior["buckets"] if prior is not None else []
        prior_cum = {float(row[0]): float(row[1]) for row in prior_rows}
        for i, (edge, cumulative) in enumerate(s["buckets"]):
            bins[i] += float(cumulative) - prior_cum.get(float(edge), 0.0)
        total_sum += float(s["sum"]) - (
            float(prior["sum"]) if prior is not None else 0.0
        )
        total_count += int(s["count"]) - (
            int(prior["count"]) if prior is not None else 0
        )
    if edges is None:
        return {"buckets": [], "sum": 0.0, "count": 0}
    rows = [[edge, bins[i]] for i, edge in enumerate(edges)]
    return {"buckets": rows, "sum": total_sum, "count": total_count}


def gauge_value(
    last: Mapping,
    family: str,
    where: Mapping[str, str] | None = None,
    combine: Callable[[list[float]], float] = sum,
) -> float:
    """Latest gauge reading, combined across matching children."""
    spec = last["families"].get(family)
    if spec is None:
        return math.nan
    values = [
        float(s["value"])
        for s in spec["samples"]
        if _match(s["labels"], where)
    ]
    return combine(values) if values else math.nan


def derive(first: Mapping, last: Mapping) -> dict:
    """Server-side summary of a window: rates + windowed quantiles.

    ``{"window_seconds": w, "counters": {key: {"increase", "rate"}},
    "histograms": {key: {"count", "rate", "mean", "p50", "p95",
    "p99"}}, "gauges": {key: value}}`` — keys are prom-style series
    keys (:func:`sample_key`).  This is what ``/v1/metrics/history``
    returns alongside the raw samples, so dashboards and ``repro slo
    check`` never re-implement the bucket math client-side.
    """
    window = max(float(last["mono"]) - float(first["mono"]), 0.0)
    out: dict = {
        "window_seconds": window,
        "counters": {},
        "histograms": {},
        "gauges": {},
    }
    for name, spec in last["families"].items():
        kind = spec["type"]
        if kind == "counter":
            for s in spec["samples"]:
                increase = counter_delta(first, last, name, s["labels"])
                out["counters"][sample_key(name, s["labels"])] = {
                    "increase": increase,
                    "rate": increase / window if window > 0 else 0.0,
                }
        elif kind == "gauge":
            for s in spec["samples"]:
                out["gauges"][sample_key(name, s["labels"])] = float(
                    s["value"]
                )
        elif kind == "histogram":
            for s in spec["samples"]:
                delta = histogram_delta(first, last, name, s["labels"])
                count = delta["count"]
                entry = {
                    "count": count,
                    "rate": count / window if window > 0 else 0.0,
                    "mean": delta["sum"] / count if count else math.nan,
                }
                rows = [(row[0], row[1]) for row in delta["buckets"]]
                for q in QUANTILES:
                    entry[f"p{int(q * 100)}"] = histogram_quantile(
                        rows, count, q
                    )
                out["histograms"][sample_key(name, s["labels"])] = entry
    return out
