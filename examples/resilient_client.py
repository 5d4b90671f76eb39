"""Walkthrough: the resilience layer, client side and server side.

Starts an in-process server with a tight admission bound, then shows
the five behaviours a production client leans on:

1. overload shedding (``503 overloaded`` + ``Retry-After``) and the
   client retrying through it;
2. request deadlines aborting solver work (``503 deadline_exceeded``);
3. exactly-once feedback via ``Idempotency-Key`` — a replayed batch is
   deduplicated, not double-applied;
4. the circuit breaker failing fast while the server is down, then
   probing its way closed again;
5. graceful drain via ``POST /v1/admin/drain`` and a successor resuming
   the checkpointed session.

Run with::

    PYTHONPATH=src python examples/resilient_client.py
"""

import os
import tempfile

from repro.datasets import three_d_clusters
from repro.resilience import AdmissionController, CircuitBreaker
from repro.service import (
    ServiceAPI,
    ServiceClient,
    SessionManager,
    start_background,
)
from repro.service.client import ServiceClientError
from repro.store import SQLiteStore


def main() -> None:
    bundle = three_d_clusters(seed=0)
    db_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-resilient-"), "sessions.db"
    )

    manager = SessionManager(
        {"three-d": bundle.data}, store=SQLiteStore(db_path)
    )
    api = ServiceAPI(
        manager,
        admission=AdmissionController(max_inflight=2, retry_after=0.05),
    )
    server = start_background(api)
    api.shutdown_hook = server.shutdown
    print(f"server up on {server.base_url} (max-inflight=2)")

    # --- 1. overload: hold both slots, watch a request get shed --------
    client = ServiceClient(server.base_url, retry_delay=0.05, max_retries=3)
    with api.admission.admit(), api.admission.admit():
        try:
            client.datasets()
        except ServiceClientError as exc:
            print(f"\nunder full load: {exc.status} kind="
                  f"{exc.payload.get('kind')} retry_after={exc.retry_after}")
    # Slots free again: the retrying client just succeeds.
    client.datasets()
    print(f"after load drops: served (attempts={client.last_attempts}, "
          f"counters={client.counters})")

    # --- 2. deadlines: a budget too small for a solve ------------------
    sid = client.create_session("three-d", session_id="walk", seed=0)
    client.mark_cluster(sid, rows=range(12), label="cluster-0")
    tight = ServiceClient(server.base_url, deadline_ms=0.001)
    try:
        tight.view(sid, objective="ica")
    except ServiceClientError as exc:
        print(f"\n0.001 ms budget: {exc.status} kind="
              f"{exc.payload.get('kind')} (not retried: "
              f"attempts={tight.last_attempts})")
    view = client.view(sid)  # no deadline: the solve completes
    print(f"roomy budget: view served, top |score| {view['top_score']:.3f}")

    # --- 3. exactly-once feedback --------------------------------------
    stats = client.apply_feedback(
        sid, [{"kind": "cluster", "rows": list(range(20, 30)),
               "label": "cluster-1"}],
        idempotency_key="demo-key",
    )
    replay = client.apply_feedback(
        sid, [{"kind": "cluster", "rows": list(range(20, 30)),
               "label": "cluster-1"}],
        idempotency_key="demo-key",
    )
    print(f"\nfeedback applied: {stats['applied']}; replayed with the same "
          f"key: duplicate={replay.get('duplicate')} "
          f"(total batches: {len(replay['feedback_log'])})")

    # --- 4. circuit breaker against a dead server ----------------------
    breaker = CircuitBreaker("demo", failure_threshold=2, cooldown=0.2)
    flaky = ServiceClient(
        "http://127.0.0.1:9",  # nothing listens here
        connect_retries=0, retry_delay=0.0, breaker=breaker,
    )
    for attempt in range(4):
        try:
            flaky.health()
        except ServiceClientError as exc:
            label = "breaker open, failed fast" if exc.breaker_open \
                else "connection refused"
            print(f"dead host attempt {attempt + 1}: {label}")
    print(f"breaker stats: {breaker.stats()}")

    # --- 5. graceful drain + successor ---------------------------------
    status = client._request("POST", "/admin/drain")
    print(f"\ndrain requested: {status}")
    import time
    while api.last_drain is None:
        time.sleep(0.01)
    print(f"drain report: checkpointed={api.last_drain['checkpointed']} "
          f"idle={api.last_drain['idle']}")

    successor = start_background(
        ServiceAPI(SessionManager(
            {"three-d": bundle.data}, store=SQLiteStore(db_path)
        ))
    )
    client2 = ServiceClient(successor.base_url)
    resumed = client2.session("walk")
    print(f"successor resumed session 'walk' with "
          f"{len(resumed['feedback_log'])} feedback batches intact")
    successor.stop()


if __name__ == "__main__":
    main()
