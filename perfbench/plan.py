"""Workload definitions and the seeded request plan.

Every request a run sends is generated here from the workload seed, before
the timed phase, and never from a server reply.  Marks are drawn from the
ground-truth ``labels`` of the dataset bundles registered in
``repro.cli.DATASETS``.  Each plan carries a SHA-256 digest of everything
it can send; with the number of rounds a run sent, it shows that two runs
sent identical inputs.  Why each workload exists, and which layers it
should move, is recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

#: Rounds generated per plan.  Far above what a run uses at today's
#: speeds, so a run is bounded by its time, not by its plan.
PLAN_ROUNDS = 1500


@dataclass(frozen=True)
class Workload:
    """One traffic mix: what the server runs and what each round sends.

    Every round POSTs one cluster mark to a session, GETs its detail view,
    then POSTs undo, so every round starts from the same belief state.
    """

    name: str
    dataset: str
    objective: str
    sessions: int
    mark_rows: int
    #: Ground-truth classes marks are drawn from (default: every class
    #: with at least ``mark_rows`` members).
    mark_classes: tuple = ()
    store: bool = False
    workers: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mark-20k", "cytometry", "pca", sessions=1, mark_rows=2000,
                 store=True),
        # Classes B and C only: after an A mark FastICA converges ~4x
        # faster, and D rounds split between ~70 and ~140 ms.  Mixing them
        # in makes every percentile depend on the mix a seed drew.  One
        # session per worker, so both workers serve rounds.
        Workload("ica-1k-sharded", "x5", "ica", sessions=2, mark_rows=200,
                 mark_classes=("B", "C"), store=True, workers=2),
    )
}


@dataclass
class Plan:
    """Everything one run sends, generated from (workload, seed)."""

    workload: Workload
    seed: int
    session_ids: list[str]
    session_seeds: list[int]
    #: Per round, the session it addresses.
    round_sessions: np.ndarray
    #: Per round, the marked rows.
    round_marks: list[np.ndarray]
    #: SHA-256 of everything the plan can send.
    digest: str

    def feedback_item(self, index: int) -> dict:
        """The JSON feedback item of round ``index`` (a cluster mark)."""
        return {
            "kind": "cluster",
            "rows": self.round_marks[index].tolist(),
            "label": f"r{index}",
        }

    def idempotency_key(self, index: int) -> str:
        return f"pb-{self.seed}-{index}"


def _eligible_classes(workload: Workload, labels: np.ndarray) -> list:
    """Classes marks are drawn from, sorted."""
    if workload.mark_classes:
        return sorted(workload.mark_classes)
    names, counts = np.unique(labels, return_counts=True)
    return [n for n, c in zip(names, counts) if c >= workload.mark_rows]


def _marks(rng, labels, classes, size: int, count: int) -> list[np.ndarray]:
    """``count`` seeded subsamples of ``size`` rows, one class each.

    Classes come in shuffled blocks holding each class once, so every
    class is marked equally often whatever the seed.
    """
    order: list = []
    while len(order) < count:
        order.extend(classes[i] for i in rng.permutation(len(classes)))
    members = {name: np.flatnonzero(labels == name) for name in classes}
    return [
        np.sort(rng.choice(members[name], size=size, replace=False)).astype(
            np.int32
        )
        for name in order[:count]
    ]


def _sharded_session_ids(seed: int, count: int, workers: int) -> list[str]:
    """Ids spread evenly over the workers by the router's own hash ring."""
    from repro.service.router import HashRing

    ring = HashRing(range(workers))
    per_worker = {w: [] for w in range(workers)}
    want = count // workers
    j = 0
    while any(len(ids) < want for ids in per_worker.values()):
        sid = f"pb{seed}s{j}"
        owner = ring.lookup(sid)
        if len(per_worker[owner]) < want:
            per_worker[owner].append(sid)
        j += 1
    return [sid for w in range(workers) for sid in per_worker[w]]


def make_plan(
    workload: Workload, seed: int, labels: np.ndarray, rounds: int = PLAN_ROUNDS
) -> Plan:
    """Generate the full request plan of one run; pure in (workload, seed)."""
    name_key = int.from_bytes(
        hashlib.sha256(workload.name.encode()).digest()[:4], "little"
    )
    rng = np.random.default_rng([seed, name_key])
    classes = _eligible_classes(workload, labels)
    if workload.workers > 1:
        session_ids = _sharded_session_ids(
            seed, workload.sessions, workload.workers
        )
    else:
        session_ids = [f"pb{seed}s{i}" for i in range(workload.sessions)]
    session_seeds = [int(s) for s in rng.integers(0, 2**31, workload.sessions)]
    round_marks = _marks(rng, labels, classes, workload.mark_rows, rounds)
    round_sessions = rng.integers(0, workload.sessions, rounds)

    h = hashlib.sha256()
    h.update(
        json.dumps(
            {
                "workload": workload.name,
                "dataset": workload.dataset,
                "objective": workload.objective,
                "sessions": session_ids,
                "session_seeds": session_seeds,
            },
            sort_keys=True,
        ).encode()
    )
    for rows in round_marks:
        h.update(rows.tobytes())
    h.update(round_sessions.astype("<i8").tobytes())
    return Plan(
        workload=workload,
        seed=seed,
        session_ids=session_ids,
        session_seeds=session_seeds,
        round_sessions=round_sessions,
        round_marks=round_marks,
        digest=h.hexdigest(),
    )
