"""Walkthrough: the multi-tenant session service, end to end.

Starts an in-process server on an ephemeral port, then drives the full
interactive loop through the HTTP client twice — the second session
replays the first one's feedback and is served from the solve cache.
Finally the session is checkpointed and resumed by a *fresh* manager,
simulating a server restart.

Run with::

    PYTHONPATH=src python examples/service_walkthrough.py
"""

import os
import tempfile

import numpy as np

from repro.datasets import x5
from repro.service import (
    ServiceAPI,
    ServiceClient,
    SessionManager,
    start_background,
)
from repro.store import SQLiteStore


def main() -> None:
    bundle = x5(seed=0)
    cluster_a = [int(r) for r in np.flatnonzero(bundle.labels == "A")]
    db_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-sessions-"), "sessions.db"
    )

    manager = SessionManager({"x5": bundle.data}, store=SQLiteStore(db_path))
    server = start_background(ServiceAPI(manager))
    client = ServiceClient(server.base_url)
    print(f"server up on {server.base_url}, datasets: {client.datasets()}")

    # --- the interactive loop over HTTP --------------------------------
    sid = client.create_session("x5", standardize=True)
    view = client.view(sid)
    print(f"\nsession {sid}: first view (top |score| {view['top_score']:.3f})")
    print("  " + view["axis_labels"][0])

    client.mark_cluster(sid, cluster_a, label="cluster-A")
    view = client.view(sid)
    print(f"after marking cluster A: top |score| {view['top_score']:.3f} "
          f"(cache_hit={view['cache_hit']})")

    # --- a second analyst replays the same feedback: cache hit ---------
    sid2 = client.create_session("x5", standardize=True)
    client.mark_cluster(sid2, cluster_a, label="cluster-A")
    view2 = client.view(sid2)
    print(f"\nforked session {sid2}: cache_hit={view2['cache_hit']} "
          f"(no re-solve)")
    print("cache stats:", client.server_stats()["cache"])

    # --- checkpoint, restart, resume -----------------------------------
    client.checkpoint(sid)
    server.stop()
    print(f"\nserver stopped; checkpoints in {db_path}")

    fresh = SessionManager({"x5": bundle.data}, store=SQLiteStore(db_path))
    server = start_background(ServiceAPI(fresh))
    client = ServiceClient(server.base_url)
    resumed = client.view(sid)
    print(f"resumed {sid} in a fresh manager: top |score| "
          f"{resumed['top_score']:.3f}")
    print(f"undo after resume -> {client.undo(sid)!r}")
    server.stop()


if __name__ == "__main__":
    main()
