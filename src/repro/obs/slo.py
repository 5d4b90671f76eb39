"""Declarative service-level objectives evaluated over retained metrics.

The paper's premise is interactivity: a projection update must come back
inside a human-scale budget or the exploration loop breaks.  This module
turns that budget — plus the operational invariants around it — into
*objectives* checked continuously against the time-series the
:class:`~repro.obs.timeseries.TimeSeriesRecorder` retains:

* ``view-latency-p99`` — windowed p99 of the view route ≤
  :data:`INTERACTIVITY_BUDGET_SECONDS` (the solver's own hard cutoff is
  10 s per the paper; the *served view* must stay well inside it because
  most views are cache hits or incremental updates);
* ``error-rate`` — 5xx responses ≤ 1% of requests;
* ``cache-hit-floor`` — solve-cache hit ratio over the window ≥ 10%
  (the cache is what makes repeated views interactive at all).

Each objective is evaluated over a *short* and a *long* window as a burn
rate (measured/threshold for ceilings, threshold/measured for floors;
≥ 1 means the objective is burning).  A breach of the short window only
reads as **degraded** (a blip); a breach of the long window reads as
**violating** (sustained).  ``GET /v1/health`` surfaces the overall
status and `repro slo check` exits nonzero on it, so CI can gate on the
paper's latency promise the same way it gates kernel baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .timeseries import (
    TimeSeriesRecorder,
    counter_delta,
    histogram_delta,
    sample_key,
)
from .metrics import histogram_quantile

#: The human-scale budget a served view must meet (seconds).  The paper
#: caps a single solve at 10 s (`SolverOptions.time_cutoff`); the served
#: p99 must sit far inside that because cached and incremental views
#: dominate any real exploration loop.
INTERACTIVITY_BUDGET_SECONDS = 2.0

#: Route key of the projection-view endpoint (matches
#: :func:`repro.obs.route_template` output and loadgen's client table).
VIEW_ROUTE = "GET /v1/sessions/{id}/view"

#: Default evaluation windows (seconds).
SHORT_WINDOW = 60.0
LONG_WINDOW = 300.0


def match_labels(labels: Mapping[str, str], where: Mapping[str, str]) -> bool:
    """Label predicate: exact match, ``"*"`` wildcard, or ``"5xx"``-style
    status classes (``"5xx"`` matches ``"500"``–``"599"``)."""
    for key, want in where.items():
        got = labels.get(key)
        if want == "*":
            continue
        if (
            len(want) == 3
            and want.endswith("xx")
            and want[0].isdigit()
        ):
            if got is None or not got.startswith(want[0]) or len(got) != 3:
                return False
            continue
        if got != want:
            return False
    return True


@dataclass(frozen=True)
class SLO:
    """One declarative objective.

    ``kind`` selects the evaluation:

    * ``"quantile_ceiling"`` — quantile ``q`` of histogram ``family``
      (children matching ``where``) must stay ≤ ``threshold``;
    * ``"ratio_ceiling"`` / ``"ratio_floor"`` — the windowed increase of
      counter ``family`` matching ``where``, divided by the increase
      matching ``denominator_where`` (same ``denominator_family`` or
      ``family``), must stay ≤ / ≥ ``threshold``.

    ``min_count`` observations (histogram count, or denominator events)
    are required before the objective speaks at all — below it the
    window reports ``no_data`` instead of a spurious verdict.
    """

    name: str
    description: str
    kind: str
    family: str
    threshold: float
    where: Mapping[str, str] = field(default_factory=dict)
    q: float = 0.99
    denominator_family: str | None = None
    denominator_where: Mapping[str, str] = field(default_factory=dict)
    min_count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (
            "quantile_ceiling", "ratio_ceiling", "ratio_floor"
        ):
            raise ValueError(f"unknown SLO kind {self.kind!r}")


@dataclass(frozen=True)
class WindowResult:
    """One objective evaluated over one window."""

    status: str  # "ok" | "breach" | "no_data"
    measured: float
    threshold: float
    burn: float  # >= 1.0 means the objective is burning
    count: int
    window_seconds: float

    def to_dict(self) -> dict:
        def _num(x: float) -> float | None:
            return None if isinstance(x, float) and math.isnan(x) else x

        return {
            "status": self.status,
            "measured": _num(self.measured),
            "threshold": self.threshold,
            "burn": _num(self.burn),
            "count": self.count,
            "window_seconds": self.window_seconds,
        }


_NO_DATA = WindowResult("no_data", math.nan, 0.0, math.nan, 0, 0.0)


def _matching_delta(
    first: Mapping, last: Mapping, family: str, where: Mapping[str, str]
) -> float:
    """Counter increase summed over children whose labels *match*
    (class/wildcard-aware, unlike the exact filter in timeseries)."""
    spec = last["families"].get(family)
    if spec is None:
        return 0.0
    total = 0.0
    for s in spec["samples"]:
        if match_labels(s["labels"], where):
            total += counter_delta(first, last, family, s["labels"])
    return total


def evaluate_window(slo: SLO, first: Mapping, last: Mapping) -> WindowResult:
    """Evaluate one objective over the window between two samples."""
    window = max(float(last["mono"]) - float(first["mono"]), 0.0)
    no_data = replace(_NO_DATA, threshold=slo.threshold,
                      window_seconds=window)
    if slo.kind == "quantile_ceiling":
        spec = last["families"].get(slo.family)
        if spec is None:
            return no_data
        merged_rows: list[list[float]] | None = None
        count = 0
        for s in spec["samples"]:
            if not match_labels(s["labels"], slo.where):
                continue
            child = histogram_delta(first, last, slo.family, s["labels"])
            if merged_rows is None:
                merged_rows = [[edge, 0.0] for edge, _ in child["buckets"]]
            for i, (_, cum) in enumerate(child["buckets"]):
                merged_rows[i][1] += cum
            count += child["count"]
        if merged_rows is None or count < slo.min_count:
            return no_data
        measured = histogram_quantile(
            [(row[0], row[1]) for row in merged_rows], count, slo.q
        )
        burn = measured / slo.threshold if slo.threshold > 0 else math.inf
        return WindowResult(
            "breach" if measured > slo.threshold else "ok",
            measured, slo.threshold, burn, count, window,
        )
    # ratio objectives
    den_family = slo.denominator_family or slo.family
    den = _matching_delta(first, last, den_family, slo.denominator_where)
    if den < slo.min_count:
        return no_data
    num = _matching_delta(first, last, slo.family, slo.where)
    measured = num / den
    if slo.kind == "ratio_ceiling":
        breached = measured > slo.threshold
        burn = measured / slo.threshold if slo.threshold > 0 else math.inf
    else:  # ratio_floor
        breached = measured < slo.threshold
        burn = (
            slo.threshold / measured if measured > 0
            else (math.inf if slo.threshold > 0 else 0.0)
        )
    return WindowResult(
        "breach" if breached else "ok",
        measured, slo.threshold, burn, int(den), window,
    )


def default_slos(
    view_p99_budget: float = INTERACTIVITY_BUDGET_SECONDS,
    error_rate_ceiling: float = 0.01,
    cache_hit_floor: float = 0.10,
    shed_rate_ceiling: float = 0.25,
) -> tuple[SLO, ...]:
    """The stock objectives the service evaluates when obs v2 is on."""
    return (
        SLO(
            name="view-latency-p99",
            description=(
                "p99 latency of the projection-view route must stay "
                "inside the paper's interactivity budget"
            ),
            kind="quantile_ceiling",
            family="repro_request_duration_seconds",
            where={"route": VIEW_ROUTE},
            q=0.99,
            threshold=view_p99_budget,
        ),
        SLO(
            name="error-rate",
            description="server errors (5xx) per request",
            kind="ratio_ceiling",
            family="repro_requests_total",
            where={"status": "5xx"},
            denominator_where={},
            threshold=error_rate_ceiling,
        ),
        SLO(
            name="cache-hit-floor",
            description=(
                "solve-cache hit ratio over the window (repeat views "
                "must be cache-fast to stay interactive)"
            ),
            kind="ratio_floor",
            family="repro_solve_cache_lookups_total",
            where={"result": "hit"},
            denominator_where={"result": "*"},
            threshold=cache_hit_floor,
            min_count=5,
        ),
        SLO(
            name="shed-rate",
            description=(
                "requests shed by admission control per request; "
                "shedding is the designed response to overload, but a "
                "sustained high rate means the deployment is undersized"
            ),
            kind="ratio_ceiling",
            family="repro_shed_total",
            where={"reason": "*"},
            denominator_family="repro_requests_total",
            denominator_where={},
            threshold=shed_rate_ceiling,
            min_count=5,
        ),
    )


class SLOEngine:
    """Evaluates a set of objectives against retained samples.

    Per objective: the *long* window (:data:`LONG_WINDOW`) breached →
    ``violating``; only the *short* window (:data:`SHORT_WINDOW`)
    breached → ``degraded``; neither (or no data) → ``ok`` /
    ``no_data``.  The overall status is the worst per-objective status,
    mapped onto the health vocabulary ``ready`` / ``degraded`` /
    ``violating``.
    """

    def __init__(
        self,
        recorder: TimeSeriesRecorder,
        slos: Sequence[SLO] | None = None,
    ) -> None:
        self.recorder = recorder
        self.slos = tuple(slos if slos is not None else default_slos())

    def report(self) -> dict:
        return evaluate_samples(self.recorder.window(), self.slos)


def _window_pair(
    samples: Sequence[Mapping], seconds: float
) -> tuple[Mapping, Mapping] | None:
    """(oldest-in-window, newest) pair, or ``None`` with < 2 samples."""
    if len(samples) < 2:
        return None
    last = samples[-1]
    cutoff = float(last["mono"]) - seconds
    first = None
    for s in samples:
        if float(s["mono"]) >= cutoff:
            first = s
            break
    if first is None or first is last:
        first = samples[-2]
    return first, last


def evaluate_samples(
    samples: Sequence[Mapping],
    slos: Sequence[SLO],
    short_window: float = SHORT_WINDOW,
    long_window: float = LONG_WINDOW,
) -> dict:
    """Full SLO report over a sample list (live recorder or loaded file).

    The shape ``/v1/health`` extends with and ``repro slo check``
    consumes::

        {"status": "ready"|"degraded"|"violating",
         "slos": [{"name", "description", "status",
                   "short": {...}, "long": {...}}, ...],
         "samples": n}
    """
    short_pair = _window_pair(samples, short_window)
    long_pair = _window_pair(samples, long_window)
    rows = []
    overall = "ready"
    rank = {"ready": 0, "degraded": 1, "violating": 2}
    for slo in slos:
        short = (
            evaluate_window(slo, *short_pair) if short_pair else _NO_DATA
        )
        long = (
            evaluate_window(slo, *long_pair) if long_pair else _NO_DATA
        )
        if long.status == "breach":
            status = "violating"
        elif short.status == "breach":
            status = "degraded"
        elif short.status == long.status == "no_data":
            status = "no_data"
        else:
            status = "ok"
        rows.append({
            "name": slo.name,
            "description": slo.description,
            "status": status,
            "short": short.to_dict(),
            "long": long.to_dict(),
        })
        if status in rank and rank[status] > rank[overall]:
            overall = status
    return {"status": overall, "slos": rows, "samples": len(samples)}
