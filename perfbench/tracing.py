"""Per-layer spans: recorded around each layer's public calls, from outside.

:func:`install` wraps the public entry points of each layer of a server
process (``trace_launcher.py`` calls it before ``repro serve`` starts); a
:class:`SpanRecorder` keeps one span per call in memory — name, start,
end, parent span and request id — and writes them out when the server
exits.  :func:`layer_metrics` turns those spans, the client's own timings
and (sharded) the workers' ``REPRO_PERF`` timers into the per-layer
metrics.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types

TRACE_HEADER = "X-Repro-Trace-Id"

# Span tuple fields.
SID, NAME, START, END, PARENT, RID, EXTRA = range(7)


class SpanRecorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, rid_of=None, extra_of=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``rid_of(args, kwargs)`` names the request a root span belongs
        to; nested spans inherit their parent's.  ``extra_of(result)``
        (or ``extra_of(None, exc)`` on an exception) attaches one value.
        """
        perf = time.perf_counter
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent, rid = stack[-1] if stack else (None, None)
            if rid_of is not None:
                rid = rid_of(args, kwargs) or rid
            sid = next(ids)
            stack.append((sid, rid))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf()
                stack.pop()
                extra = extra_of(None, exc) if extra_of else None
                spans.append((sid, name, start, end, parent, rid, extra))
                raise
            end = perf()
            stack.pop()
            extra = extra_of(result, None) if extra_of else None
            spans.append((sid, name, start, end, parent, rid, extra))
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro.*`` module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's public calls in the current process."""
    import repro.cli  # noqa: F401 — the registry the server serves
    import repro.core.background as background
    import repro.core.builders as builders
    import repro.core.equivalence as equivalence
    import repro.core.session  # noqa: F401
    import repro.core.solver  # noqa: F401
    import repro.core.whitening as whitening
    import repro.eval.information  # noqa: F401
    import repro.projection.fastica as fastica
    import repro.projection.registry  # noqa: F401
    import repro.projection.view as view
    import repro.service.api as api
    import repro.service.cache as cache
    import repro.service.manager as manager
    import repro.service.router as router
    import repro.service.server as server
    import repro.store.sqlite as sqlite

    wrap = recorder.wrap

    def method(cls, attr, name, **kw):
        setattr(cls, attr, wrap(name, getattr(cls, attr), **kw))

    def function(module, attr, name, **kw):
        original = getattr(module, attr)
        _replace_everywhere(original, wrap(name, original, **kw))

    def header_rid(args, kwargs):
        return args[0].headers.get(TRACE_HEADER)

    handler = server._RequestHandler
    for verb in ("do_GET", "do_POST", "do_DELETE"):
        method(handler, verb, "server.request", rid_of=header_rid)
    # json.dumps inside the handler is the response encode.
    server.json = types.SimpleNamespace(
        dumps=wrap("server.encode", json.dumps, extra_of=_length),
        loads=json.loads,
        JSONDecodeError=json.JSONDecodeError,
    )

    method(api.ServiceAPI, "dispatch", "api.dispatch")
    function(api, "view_to_dict", "api.view_to_dict")

    method(manager.SessionManager, "view", "manager.view")
    method(manager.SessionManager, "apply_feedback", "manager.feedback")
    method(manager.SessionManager, "undo", "manager.undo")

    method(cache.SolveCache, "fit", "cache.fit")
    method(cache.SolveCache, "fetch", "cache.fetch", extra_of=_result)
    method(cache.SolveCache, "store", "cache.store")

    method(background.BackgroundModel, "fit", "core.fit", extra_of=_report)
    function(equivalence, "build_equivalence_classes", "core.equivalence")
    function(builders, "cluster_constraint", "core.cluster_constraint")
    function(whitening, "whiten", "core.whiten")

    function(view, "most_informative_view", "projection.view")
    function(fastica, "fit_fastica", "projection.fastica")

    method(background.BackgroundModel, "row_surprise", "eval.row_surprise")
    method(background.BackgroundModel, "knowledge_nats", "eval.knowledge")

    method(sqlite.SQLiteStore, "append_feedback", "store.append")
    method(sqlite.SQLiteStore, "checkpoint_and_prune", "store.checkpoint")

    method(router.Router, "dispatch", "router.dispatch")
    method(router._BaseWorker, "call", "rpc.call", extra_of=_failed)


def _length(result, exc=None):
    return len(result) if result is not None else 0


def _result(result, exc=None):
    return bool(result)


def _report(result, exc=None):
    if result is None:
        return None
    return [int(result.sweeps), bool(result.converged)]


def _failed(result, exc=None):
    return exc is not None


# ----------------------------------------------------------------------
# Analysis (benchmark process)
# ----------------------------------------------------------------------

#: Per-layer metrics, in report order, with their units.  Times are ms
#: per round, counts are per round; ``*_ratio``/``*_share`` are shares.
LAYER_METRICS = (
    ("client.ms", "ms"),
    ("client.json_ms", "ms"),
    ("server.request_ms", "ms"),
    ("server.encode_ms", "ms"),
    ("server.bytes_out", "bytes"),
    ("api.self_ms", "ms"),
    ("api.view_to_dict_ms", "ms"),
    ("manager.view_ms", "ms"),
    ("manager.feedback_ms", "ms"),
    ("manager.self_ms", "ms"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "share"),
    ("cache.self_ms", "ms"),
    ("core.fit_ms", "ms"),
    ("core.solver_sweeps", "count"),
    ("core.solver_converged_share", "share"),
    ("core.equivalence_ms", "ms"),
    ("core.cluster_constraint_ms", "ms"),
    ("core.whiten_ms", "ms"),
    ("projection.view_ms", "ms"),
    ("projection.fastica_ms", "ms"),
    ("projection.fastica_calls", "count"),
    ("eval.row_surprise_ms", "ms"),
    ("eval.knowledge_ms", "ms"),
    ("store.appends", "count"),
    ("store.append_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.checkpoint_ms", "ms"),
    ("router.self_ms", "ms"),
    ("rpc.call_ms", "ms"),
    ("rpc.calls", "count"),
    ("rpc.failures", "count"),
    ("server.cpu_ms_per_round", "ms"),
    ("unattributed_ms", "ms"),
)

#: Worker ``REPRO_PERF`` timer paths (last component) per layer metric.
_PERF_TIMERS = {
    "manager.view_ms": ("service_view",),
    "manager.feedback_ms": ("service_feedback",),
    "core.fit_ms": ("solver_init", "solver_optim"),
    "core.whiten_ms": ("whiten",),
    "projection.view_ms": ("projection",),
    "projection.fastica_ms": ("fastica",),
}


def perf_seconds(snapshot: dict, leaf: str) -> float:
    """Seconds under timer paths ending in ``leaf``, not nested in another
    path ending in ``leaf`` (so recursion is not counted twice)."""
    total = 0.0
    for path, entry in snapshot.get("timings", {}).items():
        parts = path.split("/")
        if parts[-1] == leaf and leaf not in parts[:-1]:
            total += entry["seconds"]
    return total


def perf_delta(before: list[dict], after: list[dict]) -> dict:
    """Per-layer seconds and counts the workers recorded between snapshots."""
    out = {key: 0.0 for key in _PERF_TIMERS}
    out["solver_sweeps"] = 0.0
    out["fastica_runs"] = 0.0
    for b, a in zip(before, after):
        for key, leaves in _PERF_TIMERS.items():
            for leaf in leaves:
                out[key] += perf_seconds(a, leaf) - perf_seconds(b, leaf)
        for name, counter in (("solver_sweeps", "solver.sweeps"),
                              ("fastica_runs", "projection.fastica_runs")):
            out[name] += a.get("counters", {}).get(counter, 0) - b.get(
                "counters", {}
            ).get(counter, 0)
    return out


def layer_metrics(spans: list, rounds: list, cpu_ms_per_round: float,
                  worker_perf: dict | None = None) -> tuple[dict, dict]:
    """Per-layer metrics of the rounds, plus each layer's self time.

    ``spans`` come from the server process (the router when sharded);
    only spans of the rounds' requests count, the undo that resets a mark
    round included.  ``worker_perf`` is the sharded workers'
    :func:`perf_delta`.  Returns ``(metrics, self_ms)`` where ``self_ms``
    maps layer -> ms per round of time spent in that layer and in no
    deeper one; with ``client`` and ``unattributed`` it sums to the mean
    client time per round.
    """
    ok = [r for r in rounds if r.ok]
    n = len(ok)
    rids = {rid for r in ok for rid in r.request_ids}
    mine = [s for s in spans if s[RID] in rids]
    child_time: dict = {}
    for s in mine:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + (
                s[END] - s[START]
            )
    dur: dict = {}
    self_t: dict = {}
    count: dict = {}
    extras: dict = {}
    for s in mine:
        d = s[END] - s[START]
        name = s[NAME]
        dur[name] = dur.get(name, 0.0) + d
        self_t[name] = self_t.get(name, 0.0) + d - child_time.get(s[SID], 0.0)
        count[name] = count.get(name, 0) + 1
        extras.setdefault(name, []).append(s[EXTRA])

    def per_round_ms(value: float) -> float:
        return 1000.0 * value / n if n else 0.0

    def per_round(value: float) -> float:
        return value / n if n else 0.0

    fetches = extras.get("cache.fetch", [])
    fits = [e for e in extras.get("core.fit", []) if e is not None]
    client_total = sum(sum(r.client_s.values()) for r in ok)
    server_total = dur.get("server.request", 0.0)
    m = {
        "client.ms": per_round_ms(client_total - server_total),
        "client.json_ms": per_round_ms(sum(r.client_json_s for r in ok)),
        "server.request_ms": per_round_ms(server_total),
        "server.encode_ms": per_round_ms(dur.get("server.encode", 0.0)),
        "server.bytes_out": per_round(
            sum(e or 0 for e in extras.get("server.encode", []))
        ),
        "api.self_ms": per_round_ms(self_t.get("api.dispatch", 0.0)),
        "api.view_to_dict_ms": per_round_ms(dur.get("api.view_to_dict", 0.0)),
        "manager.view_ms": per_round_ms(dur.get("manager.view", 0.0)),
        "manager.feedback_ms": per_round_ms(dur.get("manager.feedback", 0.0)),
        "manager.self_ms": per_round_ms(
            sum(v for k, v in self_t.items() if k.startswith("manager."))
        ),
        "cache.lookups": per_round(len(fetches)),
        "cache.hit_ratio": (
            sum(1 for e in fetches if e) / len(fetches) if fetches else 0.0
        ),
        "cache.self_ms": per_round_ms(
            sum(v for k, v in self_t.items() if k.startswith("cache."))
        ),
        "core.fit_ms": per_round_ms(dur.get("core.fit", 0.0)),
        "core.solver_sweeps": per_round(sum(e[0] for e in fits)),
        "core.solver_converged_share": (
            sum(1 for e in fits if e[1]) / len(fits) if fits else 0.0
        ),
        "core.equivalence_ms": per_round_ms(dur.get("core.equivalence", 0.0)),
        "core.cluster_constraint_ms": per_round_ms(
            dur.get("core.cluster_constraint", 0.0)
        ),
        "core.whiten_ms": per_round_ms(dur.get("core.whiten", 0.0)),
        "projection.view_ms": per_round_ms(dur.get("projection.view", 0.0)),
        "projection.fastica_ms": per_round_ms(
            dur.get("projection.fastica", 0.0)
        ),
        "projection.fastica_calls": per_round(
            count.get("projection.fastica", 0)
        ),
        "eval.row_surprise_ms": per_round_ms(
            dur.get("eval.row_surprise", 0.0)
        ),
        "eval.knowledge_ms": per_round_ms(dur.get("eval.knowledge", 0.0)),
        "store.appends": per_round(count.get("store.append", 0)),
        "store.append_ms": per_round_ms(dur.get("store.append", 0.0)),
        "store.checkpoints": per_round(count.get("store.checkpoint", 0)),
        "store.checkpoint_ms": per_round_ms(dur.get("store.checkpoint", 0.0)),
        "router.self_ms": per_round_ms(self_t.get("router.dispatch", 0.0)),
        "rpc.call_ms": per_round_ms(dur.get("rpc.call", 0.0)),
        "rpc.calls": per_round(count.get("rpc.call", 0)),
        "rpc.failures": per_round(
            sum(1 for e in extras.get("rpc.call", []) if e)
        ),
        "server.cpu_ms_per_round": cpu_ms_per_round,
    }

    layers: dict = {}
    for name, value in self_t.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + per_round_ms(value)
    if worker_perf is not None:
        # Worker-side time sits inside the router's rpc.call spans; move
        # what the workers' timers name out of the rpc layer's self time.
        for key in _PERF_TIMERS:
            m[key] = per_round_ms(worker_perf[key])
        m["core.solver_sweeps"] = per_round(worker_perf["solver_sweeps"])
        m["projection.fastica_calls"] = per_round(worker_perf["fastica_runs"])
        worker_ms = m["manager.view_ms"] + m["manager.feedback_ms"]
        inner = {
            "core": m["core.fit_ms"] + m["core.whiten_ms"],
            "projection": m["projection.view_ms"],
        }
        m["manager.self_ms"] = max(0.0, worker_ms - sum(inner.values()))
        layers["rpc"] = layers.get("rpc", 0.0) - worker_ms
        layers["manager"] = m["manager.self_ms"]
        for layer, value in inner.items():
            layers[layer] = layers.get(layer, 0.0) + value
    # Of the client's time outside the handler only its JSON codec is
    # named; the rest (connection, socket transfer, HTTP framing on both
    # sides) is the remainder.
    layers["client"] = m["client.json_ms"]
    m["unattributed_ms"] = per_round_ms(client_total) - sum(layers.values())
    layers["unattributed"] = m["unattributed_ms"]
    return m, layers
