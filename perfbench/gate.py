"""The correctness gate: replies checked against an in-process replay.

Cluster constraints do not depend on the view axes, so the belief state a
round leaves behind is fixed by its marks alone.  An in-process
:class:`~repro.core.session.ExplorationSession` given the same marks must
therefore report the same ``knowledge_nats``, and with the ``pca``
objective the same axes, bit for bit.
"""

from __future__ import annotations

import numpy as np


class ViewChecker:
    """Validates each detail-view reply during the timed phase.

    Keeps what the gate needs afterwards: per round, the reply's knowledge
    and axes.
    """

    def __init__(self, plan, n_rows: int) -> None:
        self.plan = plan
        self.n_rows = n_rows
        #: round index -> (knowledge_nats, axes)
        self.observed: dict = {}

    def warmup(self, session: int, payload: dict) -> str | None:
        return self._shape(payload)

    def __call__(self, session: int, index: int, payload: dict):
        problem = self._shape(payload)
        if problem is None:
            self.observed[index] = (payload["knowledge_nats"],
                                    payload["axes"])
        return problem

    def _shape(self, payload) -> str | None:
        try:
            surprise = payload["row_surprise"]
            projected = payload["projected"]
            axes = payload["axes"]
            knowledge = payload["knowledge_nats"]
        except (KeyError, TypeError):
            return "view reply lacks the detail fields"
        if len(surprise) != self.n_rows or len(projected) != self.n_rows:
            return "detail arrays do not cover every row"
        if len(axes) != 2 or not isinstance(knowledge, float):
            return "malformed axes or knowledge_nats"
        return None


def replay(plan, data: np.ndarray, checker: ViewChecker,
           samples: int = 4) -> list[str]:
    """Replay marks in process and compare; returns the mismatches.

    Each belief state checked is a session's base plus one mark: the
    first and last round plus seeded others.
    """
    from repro.core.session import ExplorationSession
    from repro.feedback import ClusterFeedback

    workload = plan.workload
    exact_axes = workload.objective == "pca"
    cases = []  # (label, session index, marked rows, observed)
    done = sorted(checker.observed)
    if done:
        rng = np.random.default_rng([plan.seed, 7])
        picks = {done[0], done[-1]}
        picks.update(int(i) for i in rng.choice(
            done, size=min(samples - 2, len(done)), replace=False
        ))
        for i in sorted(picks):
            s = int(plan.round_sessions[i])
            cases.append((f"round {i}", s, plan.round_marks[i],
                          checker.observed[i]))
    problems = []
    for label, s, rows, (knowledge, axes) in cases:
        session = ExplorationSession(
            data,
            objective=workload.objective,
            standardize=True,
            seed=plan.session_seeds[s],
        )
        session.apply(ClusterFeedback(rows=rows))
        if exact_axes:
            want_axes = session.current_view().axes
            if not np.array_equal(np.asarray(axes), want_axes):
                problems.append(f"{label}: pca axes differ from the replay")
        else:
            session.model.fit()
        want = float(session.model.knowledge_nats())
        if knowledge != want:
            problems.append(
                f"{label}: knowledge_nats {knowledge!r} != replay {want!r}"
            )
    return problems
