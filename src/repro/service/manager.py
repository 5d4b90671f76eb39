"""`SessionManager`: many concurrent exploration sessions, safely.

The manager owns a registry of named datasets and a table of live
:class:`~repro.core.session.ExplorationSession` objects.  Around the
library's single-session loop it adds exactly what a server needs:

* **per-session locks** — two requests for the same session serialise,
  requests for different sessions run in parallel (fits release no GIL
  magic, but I/O and independent sessions overlap);
* **LRU eviction + TTL expiry** — bounded memory under many tenants;
  evicted/expired sessions are checkpointed to the
  :class:`~repro.service.store.SessionStore` first (when one is attached)
  and transparently resumed on the next request;
* **solve caching** — view requests route fits through a
  :class:`~repro.service.cache.SolveCache`, so identical belief states
  across sessions (same data, constraints, options) reuse one solve;
* **durability** (optional) — with a write-ahead-logged store from
  :mod:`repro.store` (``sqlite:``), every feedback batch is
  durable before its apply commits and crash recovery replays the log
  tail bit-for-bit; see the constructor's "Durable stores" notes.

Everything here is transport-agnostic; the HTTP layer in
:mod:`repro.service.api` is a thin JSON veneer over these methods.

Known limits (follow-up PRs):

* Checkpoints persist the *knowledge* state (constraints + undo stack),
  not RNG state or the current view.  Refits are deterministic, so a
  resumed ``pca`` session reproduces its next view exactly; ``ica``
  views draw from the session RNG, so a transparently resumed ICA
  session may present different (equally valid) axes than the ones a
  client saw before eviction — view-relative feedback should be posted
  against a freshly fetched view.
* Iteration records are checkpointed as an audit trail (labels and top
  scores in the JSON payload) but are not replayed on resume — views
  cannot be reconstructed without refitting each belief state — so a
  resumed session's ``iteration`` counter restarts at 0.  Clients that
  key on it should treat it as per-process, not per-session-lifetime.
* Checkpoint/resume I/O currently runs under the manager's global lock;
  with an on-disk store and many expiring sessions this serialises
  unrelated requests.  Moving the I/O outside the lock needs a
  per-entry eviction state and is deferred.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro import obs, perf
from repro.core.session import ExplorationSession
from repro.errors import ReproError
from repro.feedback import Feedback, ViewSelectionFeedback
from repro.io import data_fingerprint, session_from_payload, session_to_payload
from repro.projection.view import Projection2D
from repro.service.cache import SolveCache
from repro.service.store import (
    NoStoreError,
    SessionNotFoundError,
    SessionStore,
    StoreError,
    validate_session_id,
)
from repro.store.compaction import CompactionPolicy, should_compact
from repro.resilience import chaos
from repro.store.recovery import (
    load_session_state,
    replay_records,
    validate_recovery_policy,
)
from repro.store.wal import FeedbackLogStore

#: Idempotency keys remembered per session (LRU).  A retry storm only
#: ever replays recent keys, so a small window is plenty; the bound
#: keeps checkpoints and memory flat under adversarial key churn.
IDEMPOTENCY_WINDOW = 256


class UnknownDatasetError(ReproError):
    """The requested dataset name is not registered with the manager."""


class SessionExistsError(ReproError):
    """A session with the requested id already exists."""


class _Entry:
    """One live session plus its concurrency/eviction bookkeeping."""

    __slots__ = (
        "session_id",
        "session",
        "dataset",
        "standardize",
        "seed",
        "feature_names",
        "data_fp",
        "lock",
        "pins",
        "created_at",
        "last_access",
        "wal_seq",
        "tail_records",
        "idem",
    )

    def __init__(
        self,
        session_id: str,
        session: ExplorationSession,
        dataset: str,
        standardize: bool,
        seed: int | None,
        now: float,
        feature_names: list[str] | None = None,
    ) -> None:
        self.session_id = session_id
        self.session = session
        self.dataset = dataset
        self.standardize = standardize
        self.seed = seed
        self.feature_names = feature_names
        self.data_fp = data_fingerprint(session.model.data)
        self.lock = threading.RLock()
        # Pinned entries (currently checked out by a request) are never
        # evicted or expired; the pin count is managed under the manager's
        # global lock.
        self.pins = 0
        self.created_at = now
        self.last_access = now
        # Durable-store bookkeeping: the highest WAL sequence number this
        # in-memory session has applied (what the next checkpoint folds),
        # and how many log records have accumulated since the last fold
        # (what the compaction policy watches).
        self.wal_seq = 0
        self.tail_records = 0
        # Recently applied idempotency keys (key -> applied labels), LRU
        # bounded; persisted in checkpoints and rebuilt from the WAL tail
        # on resume, so dedup survives eviction and crash recovery.
        self.idem: OrderedDict[str, list[str]] = OrderedDict()

    def remember_key(self, key: str, applied: list[str]) -> None:
        self.idem[key] = list(applied)
        self.idem.move_to_end(key)
        while len(self.idem) > IDEMPOTENCY_WINDOW:
            self.idem.popitem(last=False)


class SessionManager:
    """Thread-safe registry of exploration sessions over named datasets.

    Parameters
    ----------
    datasets:
        Mapping of dataset name to one of: an ``(n, d)`` array, an object
        with a ``.data`` attribute (a dataset bundle), or a zero-argument
        callable returning either.  Callables are resolved lazily, once.
    store:
        Optional checkpoint store.  With a store, evicted and expired
        sessions survive (they are checkpointed first and lazily resumed
        on the next request), and explicit checkpoints enable cross-process
        resume.  Without one, eviction discards state.
    cache:
        ``True`` (default) to create a private :class:`SolveCache`, an
        existing cache to share one across managers, or ``None``/``False``
        to disable solve caching.
    max_sessions:
        Maximum number of sessions held in memory before LRU eviction.
    ttl_seconds:
        Idle time after which a session is expired out of memory
        (checkpointing it first when a store is attached).  ``None``
        disables expiry.
    recovery_policy:
        How resume treats a damaged feedback log on a durable store:
        ``"truncate"`` (default) recovers the valid prefix and warns,
        ``"fail"`` raises :class:`StoreError`.  Ignored for plain stores.
    compaction:
        When to fold a durable store's feedback log into a fresh
        checkpoint; defaults to :class:`CompactionPolicy` (64 tail
        records).  Pass ``CompactionPolicy(0)`` to disable automatic
        folding.  Ignored for plain stores.
    clock:
        Monotonic time source; injectable for tests.

    Durable stores
    --------------
    When ``store`` is also a :class:`~repro.store.wal.FeedbackLogStore`
    (``sqlite:``), every feedback batch and undo is appended
    to the write-ahead log *before* the in-memory apply commits, a
    genesis checkpoint is written at :meth:`create`, and resume replays
    the log tail through the normal ``apply_many`` codepath — so every
    acknowledged batch survives a crash bit-for-bit.
    """

    def __init__(
        self,
        datasets: Mapping[str, object],
        *,
        store: SessionStore | None = None,
        cache: SolveCache | bool | None = True,
        max_sessions: int = 64,
        ttl_seconds: float | None = None,
        recovery_policy: str = "truncate",
        compaction: CompactionPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions <= 0:
            raise ValueError(f"max_sessions must be positive, got {max_sessions}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds}")
        self._datasets = dict(datasets)
        self._resolved: dict[str, np.ndarray] = {}
        self._feature_names: dict[str, list[str] | None] = {}
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.RLock()
        self.store = store
        if cache is True:
            self.cache: SolveCache | None = SolveCache()
        elif cache is None or cache is False:
            self.cache = None
        else:
            # NB: identity checks above — an *empty* SolveCache is falsy
            # (it has __len__), but it is still a cache to use.
            self.cache = cache  # type: ignore[assignment]
        self.max_sessions = int(max_sessions)
        self.ttl_seconds = ttl_seconds
        self.durable = isinstance(store, FeedbackLogStore)
        self.recovery_policy = validate_recovery_policy(recovery_policy)
        self.compaction = (
            compaction if compaction is not None else CompactionPolicy()
        )
        self._clock = clock
        self._created = 0
        self._resumed = 0
        self._evicted = 0
        self._expired = 0
        self._checkpoints = 0
        self._wal_appends = 0
        self._wal_rollbacks = 0
        self._compactions = 0
        self._replayed_batches = 0
        self._deduplicated = 0
        self._released = 0

    # ------------------------------------------------------------------
    # Dataset registry
    # ------------------------------------------------------------------

    def dataset_names(self) -> list[str]:
        """Registered dataset names, sorted."""
        return sorted(self._datasets)

    def _data(self, name: str) -> np.ndarray:
        if name not in self._datasets:
            raise UnknownDatasetError(
                f"unknown dataset {name!r}; registered: {self.dataset_names()}"
            )
        with self._lock:
            if name not in self._resolved:
                obj = self._datasets[name]
                if callable(obj):
                    obj = obj()
                data = getattr(obj, "data", obj)
                names = getattr(obj, "feature_names", None)
                self._feature_names[name] = (
                    [str(n) for n in names] if names else None
                )
                self._resolved[name] = np.asarray(data, dtype=np.float64)
            return self._resolved[name]

    def feature_names(self, name: str) -> list[str] | None:
        """Attribute names of a registered dataset (None when unnamed).

        Resolved from the dataset bundle's ``feature_names`` the first time
        the dataset is loaded; plain arrays have no names.
        """
        self._data(name)
        with self._lock:
            names = self._feature_names.get(name)
        return list(names) if names else None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def create(
        self,
        dataset: str,
        objective: str = "pca",
        standardize: bool = False,
        seed: int | None = 0,
        session_id: str | None = None,
    ) -> str:
        """Create a fresh session on a registered dataset; returns its id."""
        data = self._data(dataset)
        session = ExplorationSession(
            data, objective=objective, standardize=standardize, seed=seed
        )
        sid = (
            validate_session_id(session_id)
            if session_id is not None
            else uuid.uuid4().hex[:16]
        )
        with self._lock:
            if sid in self._entries or (
                self.store is not None and sid in self.store
            ):
                raise SessionExistsError(f"session {sid!r} already exists")
            entry = _Entry(
                sid,
                session,
                dataset,
                standardize,
                seed,
                self._clock(),
                feature_names=self.feature_names(dataset),
            )
            self._entries[sid] = entry
            if self.durable:
                # Genesis checkpoint: recovery is always "checkpoint +
                # tail", so a session must be checkpointable from birth —
                # WAL records alone carry no dataset/seed information.
                try:
                    self._checkpoint_entry(entry)
                except StoreError:
                    del self._entries[sid]
                    raise
            self._created += 1
            self._expire_stale_locked()
            self._evict_locked()
        return sid

    def has(self, session_id: str) -> bool:
        """True when the session is live or resumable from the store."""
        with self._lock:
            if session_id in self._entries:
                return True
        return self.store is not None and session_id in self.store

    def list_sessions(self) -> list[dict]:
        """Summaries of all known sessions (in memory and checkpointed)."""
        with self._lock:
            self._expire_stale_locked()
            summaries = {
                sid: {
                    "session_id": sid,
                    "dataset": entry.dataset,
                    "objective": entry.session.objective,
                    "n_constraints": entry.session.model.n_constraints,
                    "in_memory": True,
                }
                for sid, entry in self._entries.items()
            }
        if self.store is not None:
            for sid in self.store.list_ids():
                if sid not in summaries:
                    summaries[sid] = {"session_id": sid, "in_memory": False}
        return [summaries[sid] for sid in sorted(summaries)]

    def delete(self, session_id: str, *, drop_checkpoint: bool = True) -> bool:
        """Forget a session; True if anything was removed."""
        with self._lock:
            entry = self._entries.pop(session_id, None)
        removed = entry is not None
        if entry is not None:
            # Drain any in-flight request on this session before returning,
            # so a concurrent mutation cannot interleave with id reuse.
            # (Taken outside the global lock: the in-flight request's pin
            # release needs the global lock to finish.)
            with entry.lock:
                pass
        if self.store is not None and drop_checkpoint:
            if session_id in self.store:
                removed = True
            self.store.delete(session_id)
        return removed

    def release(
        self,
        session_id: str,
        *,
        checkpoint: bool | None = None,
        wait_seconds: float = 2.0,
    ) -> bool:
        """Drop one session from memory so another process can own it.

        The ownership-handoff primitive of the sharded service: when the
        front-end reroutes a session to a different worker (rebalance
        after a crash, a worker rejoining the ring), it first tells the
        previous owner to ``release`` — otherwise a stale in-memory copy
        could later be evicted and checkpoint *old* state over the new
        owner's progress.

        ``checkpoint=None`` (default) persists the session first only on
        a plain (non-durable) store; on a durable store every committed
        mutation is already in the write-ahead log, so the successor's
        checkpoint+tail recovery reproduces the state without a fold
        here.  Returns False — and keeps the session — when the session
        is still pinned by in-flight requests after ``wait_seconds`` or
        when a required checkpoint fails; the caller may retry.
        """
        with self._lock:
            entry = self._entries.get(session_id)
        if entry is None:
            return True  # nothing in memory: already safe to re-own
        deadline = self._clock() + max(wait_seconds, 0.0)
        with entry.lock:  # serialise with any request mid-flight on it
            do_checkpoint = (
                checkpoint
                if checkpoint is not None
                else (self.store is not None and not self.durable)
            )
            if do_checkpoint and self.store is not None:
                try:
                    self._checkpoint_entry(entry)
                except StoreError:
                    return False  # dropping now would lose state
            while True:
                with self._lock:
                    if self._entries.get(session_id) is not entry:
                        return True  # deleted/re-owned underneath us
                    if entry.pins == 0:
                        del self._entries[session_id]
                        self._released += 1
                        return True
                if self._clock() >= deadline:
                    return False  # a request is still queued on it
                time.sleep(0.01)

    @contextmanager
    def _checkout(self, session_id: str) -> Iterator[_Entry]:
        """Pin + lock one session for the duration of a request."""
        with self._lock:
            self._expire_stale_locked()
            entry = self._entries.get(session_id)
            if entry is None:
                entry = self._resume_locked(session_id)
            entry.pins += 1
            entry.last_access = self._clock()
            try:
                self._evict_locked()
            except BaseException:
                entry.pins -= 1  # a failed eviction must not leak the pin
                raise
        try:
            with entry.lock:
                yield entry
                entry.last_access = self._clock()
        finally:
            with self._lock:
                entry.pins -= 1

    def _resume_locked(self, session_id: str) -> _Entry:
        """Lazily rebuild a checkpointed session (global lock held).

        On a durable store this is full crash recovery: checkpoint +
        validated feedback-log tail replayed through ``apply_many``; on a
        plain store it is exactly the checkpoint.
        """
        if self.store is None:
            raise SessionNotFoundError(f"no session {session_id!r}")
        # raises SessionNotFoundError for unknown ids; StoreError (mapped
        # to the `corrupt_store` error kind by the API) for damage the
        # recovery policy refuses to truncate away
        state = load_session_state(
            self.store, session_id, policy=self.recovery_policy
        )
        payload = state.payload
        dataset = payload.get("dataset")
        if not isinstance(dataset, str):
            raise SessionNotFoundError(
                f"checkpoint for {session_id!r} names no dataset"
            )
        data = self._data(dataset)
        session = session_from_payload(
            data,
            payload.get("session", {}),
            standardize=bool(payload.get("standardize", False)),
            seed=payload.get("seed", 0),
        )
        replay_records(session, state.records)
        entry = _Entry(
            session_id,
            session,
            dataset,
            bool(payload.get("standardize", False)),
            payload.get("seed", 0),
            self._clock(),
            feature_names=self.feature_names(dataset),
        )
        entry.wal_seq = state.wal_seq
        entry.tail_records = len(state.records)
        # Rebuild the exactly-once dedup map: checkpointed keys first,
        # then any keys carried by the replayed WAL tail (batches that
        # committed after the last checkpoint — exactly the ones an
        # ambiguous-failure retry will resend).
        idem = payload.get("idempotency")
        if isinstance(idem, dict):
            for key, labels in idem.items():
                entry.remember_key(str(key), [str(l) for l in labels or []])
        for record in state.records:
            if record.kind == "feedback" and record.key is not None:
                entry.remember_key(
                    record.key,
                    [str(item.get("label", "")) for item in record.items],
                )
        self._entries[session_id] = entry
        self._resumed += 1
        self._replayed_batches += len(state.records)
        if state.records or state.warnings:
            perf.add("store.recoveries")
            perf.add("store.recovered_batches", len(state.records))
        observer = obs.active()
        if state.warnings and observer is not None and observer.events is not None:
            observer.events.emit({
                "event": "recovery_warning",
                "warnings": len(state.warnings),
                "replayed_batches": len(state.records),
            })
        return entry

    # ------------------------------------------------------------------
    # Eviction / expiry / checkpointing
    # ------------------------------------------------------------------

    def _checkpoint_entry(self, entry: _Entry) -> None:
        """Persist the entry's knowledge state; folds the log when durable.

        The in-memory session already contains every logged record up to
        ``entry.wal_seq``, so the checkpoint covers them and the durable
        path prunes them in the same (transactional, on SQLite) step.
        """
        payload = {
            "session_id": entry.session_id,
            "dataset": entry.dataset,
            "standardize": entry.standardize,
            "seed": entry.seed,
            "wal_seq": entry.wal_seq,
            "session": session_to_payload(entry.session),
        }
        if entry.idem:
            # Applied idempotency keys ride in the checkpoint so dedup
            # survives eviction and a successor worker resuming the
            # session — retries across a handoff stay exactly-once.
            payload["idempotency"] = {
                key: list(labels) for key, labels in entry.idem.items()
            }
        if self.durable:
            pruned = self.store.checkpoint_and_prune(
                entry.session_id, payload, entry.wal_seq
            )
            entry.tail_records = 0
            if pruned:
                self._compactions += 1
                perf.add("store.compactions")
                perf.add("store.compacted_records", pruned)
        else:
            self.store.put(entry.session_id, payload)
        self._checkpoints += 1

    def _evict_locked(self) -> None:
        while len(self._entries) > self.max_sessions:
            victims = sorted(
                (e for e in self._entries.values() if e.pins == 0),
                key=lambda e: e.last_access,
            )
            if not victims:
                return  # everything over the limit is mid-request
            victim = victims[0]
            if self.store is not None:
                try:
                    self._checkpoint_entry(victim)
                except StoreError:
                    # Evicting without a checkpoint would lose state; keep
                    # the session in memory (over the limit) and let the
                    # request that triggered eviction proceed.  Retried on
                    # the next eviction pass.
                    return
            del self._entries[victim.session_id]
            self._evicted += 1

    def _expire_stale_locked(self) -> None:
        if self.ttl_seconds is None:
            return
        deadline = self._clock() - self.ttl_seconds
        for entry in list(self._entries.values()):
            if entry.pins == 0 and entry.last_access < deadline:
                if self.store is not None:
                    try:
                        self._checkpoint_entry(entry)
                    except StoreError:
                        continue  # keep it live; a failing disk must not
                        # turn one idle session into 500s for everyone
                del self._entries[entry.session_id]
                self._expired += 1

    def checkpoint(self, session_id: str) -> None:
        """Persist one session's knowledge state to the store now."""
        if self.store is None:
            raise NoStoreError("no session store attached to this manager")
        with self._checkout(session_id) as entry:
            self._checkpoint_entry(entry)

    def checkpoint_all(self) -> int:
        """Checkpoint every in-memory session (e.g. on shutdown).

        Best-effort: a session whose write fails is skipped so one bad
        checkpoint cannot lose the state of every session after it.
        Returns the number successfully persisted: 0 without a store,
        where there is nothing to persist to.
        """
        if self.store is None:
            return 0
        count = 0
        with self._lock:
            ids = list(self._entries)
        for sid in ids:
            try:
                self.checkpoint(sid)
                count += 1
            except SessionNotFoundError:
                continue  # raced with a delete
            except StoreError:
                continue  # keep persisting the remaining sessions
        return count

    # ------------------------------------------------------------------
    # The interactive loop, multi-tenant
    # ------------------------------------------------------------------

    def _fit_with_cache(self, entry: _Entry) -> bool:
        """Bring the entry's model to a fitted state; True on a cache hit.

        On a miss the fresh solve is recorded so any session reaching the
        same belief state later (a fork, a replay, a resumed twin) skips it.
        """
        model = entry.session.model
        if model.is_fitted or self.cache is None:
            return False
        hit = False
        try:
            with perf.timer("service_fit"):
                _, hit = self.cache.fit(model, data_fp=entry.data_fp)
        finally:
            # A solve that raised (an expired deadline) still missed.
            perf.add("service.solve_cache_hits" if hit else "service.solves")
        return hit

    def view(
        self,
        session_id: str,
        objective: str | None = None,
        detail: bool = False,
    ) -> tuple[Projection2D, dict]:
        """Current most-informative view of one session.

        Fits route through the solve cache: if any session has already
        solved this exact belief state, the fitted parameters are installed
        instead of re-solving.  Returns ``(view, meta)`` where ``meta``
        carries ``cache_hit``, the iteration index, accumulated
        ``knowledge_nats``, and solver diagnostics.  With ``detail=True``
        the meta additionally carries the per-row ``row_surprise`` vector
        and the data ``projected`` onto the view axes — the observation an
        autonomous exploration policy needs to act like a user.
        """
        with self._checkout(session_id) as entry, perf.timer("service_view"):
            session = entry.session
            model = session.model
            cache_hit = self._fit_with_cache(entry)
            view = session.current_view(objective)
            report = model.last_report
            meta = {
                "cache_hit": cache_hit,
                "iteration": len(session.history) - 1,
                "feature_names": entry.feature_names,
                "knowledge_nats": float(model.knowledge_nats()),
                "solver": {
                    "converged": bool(report.converged),
                    "sweeps": int(report.sweeps),
                    "elapsed": float(report.elapsed),
                }
                if report is not None
                else None,
            }
            if detail:
                meta["row_surprise"] = model.row_surprise().tolist()
                meta["projected"] = view.project(model.data).tolist()
            return view, meta

    def apply_feedback(
        self,
        session_id: str,
        batch: Sequence[Feedback],
        idempotency_key: str | None = None,
    ) -> dict:
        """Apply a batch of typed feedback objects to one session.

        The single feedback codepath of the service: view-relative items
        are resolved against the view current at the start of the batch,
        any fit that needs routes through the solve cache, and the whole
        batch costs at most one background-model fit
        (:meth:`ExplorationSession.apply_many`).  Returns the session
        stats with the applied labels under ``"applied"``.

        With an ``idempotency_key``, a batch whose key was already
        applied is *not* re-applied: the stats carry the original labels
        and ``"duplicate": True``.  The key rides in the write-ahead
        record and in checkpoints, so dedup holds across eviction, crash
        recovery, and worker handoff — the exactly-once contract a
        client retry after an ambiguous failure depends on.
        """
        items = list(batch)
        perf.add("service.feedback_items", len(items))
        with self._checkout(session_id) as entry, perf.timer("service_feedback"):
            if idempotency_key is not None and idempotency_key in entry.idem:
                entry.idem.move_to_end(idempotency_key)
                self._deduplicated += 1
                perf.add("service.feedback_deduplicated")
                stats = self._stats_locked(entry)
                stats["applied"] = list(entry.idem[idempotency_key])
                stats["duplicate"] = True
                return stats
            if any(isinstance(item, ViewSelectionFeedback) for item in items):
                # apply_many will need the current view's axes, which may
                # require a fit — route it through the cache first, exactly
                # like a view request.
                self._fit_with_cache(entry)
            record = self._wal_append(
                entry,
                [item.to_dict() for item in items],
                key=idempotency_key,
            )
            try:
                applied = entry.session.apply_many(items)
            except BaseException:
                # The write-ahead record is durable but the apply never
                # committed — annul it so recovery does not replay a batch
                # the client saw rejected.
                self._wal_rollback(entry, record)
                raise
            self._wal_commit(entry, record)
            if idempotency_key is not None:
                entry.remember_key(idempotency_key, applied)
            # Chaos point: the batch is durable and applied but no
            # response exists yet — the window where a worker death turns
            # a success into an ambiguous failure the client must retry.
            chaos.hit("manager.feedback.post_commit")
            stats = self._stats_locked(entry)
            stats["applied"] = applied
            return stats

    def _wal_append(
        self, entry: _Entry, items: list[dict], kind="feedback", key=None
    ):
        """Durably log one batch before its in-memory apply (durable only)."""
        if not self.durable:
            return None
        chaos.hit("store.append")
        with perf.timer("wal_append"):
            record = self.store.append_feedback(
                entry.session_id, items, kind=kind, key=key
            )
        self._wal_appends += 1
        return record

    def _wal_rollback(self, entry: _Entry, record) -> None:
        if record is None:
            return
        try:
            self.store.rollback_feedback(entry.session_id, record.seq)
            self._wal_rollbacks += 1
        except StoreError:
            # Best effort: the store just failed an append-shaped write,
            # so this likely fails too.  Surfacing the *original* apply
            # error matters more than the unlogged abort.
            pass

    def _wal_commit(self, entry: _Entry, record) -> None:
        """Bookkeeping after a logged apply committed; maybe compact."""
        if record is None:
            return
        entry.wal_seq = record.seq
        entry.tail_records += 1
        if should_compact(self.compaction, entry.tail_records):
            try:
                self._checkpoint_entry(entry)
            except StoreError:
                pass  # the batch is durable in the log; fold on a later pass

    def undo(self, session_id: str) -> str | None:
        """Retract the session's most recent feedback action.

        On a durable store the undo is write-ahead logged like any other
        mutation (kind ``undo``), so recovery replays it and a recovered
        session does not resurrect retracted knowledge.
        """
        with self._checkout(session_id) as entry:
            record = self._wal_append(entry, [], kind="undo")
            try:
                label = entry.session.undo_last_feedback()
            except BaseException:
                self._wal_rollback(entry, record)
                raise
            if label is None:
                # Nothing to undo — no state change, nothing to replay.
                self._wal_rollback(entry, record)
            else:
                self._wal_commit(entry, record)
            return label

    def session_stats(self, session_id: str) -> dict:
        """Full status of one session (resuming it if checkpointed)."""
        with self._checkout(session_id) as entry:
            return self._stats_locked(entry)

    def _stats_locked(self, entry: _Entry) -> dict:
        session = entry.session
        return {
            "session_id": entry.session_id,
            "dataset": entry.dataset,
            "objective": session.objective,
            "standardize": entry.standardize,
            "seed": entry.seed,
            "shape": list(session.model.data.shape),
            "feature_names": entry.feature_names,
            "n_constraints": session.model.n_constraints,
            "n_iterations": len(session.history),
            "feedback": [label for label, _ in session.feedback_groups],
            "feedback_log": [fb.to_dict() for fb in session.feedback_log],
            "is_fitted": session.model.is_fitted,
        }

    def live_session_count(self) -> int:
        """Sessions currently held in memory (cheap; used by metrics)."""
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Manager-level counters plus cache statistics.

        The ``"perf"`` field is always present: a :mod:`repro.perf`
        snapshot extended with an ``"enabled"`` marker, so clients can
        tell "profiling off" (``enabled: false``, empty timings) from
        "profiling on but idle" without sniffing for missing keys.
        (Before v1.6 the field was ``null`` unless ``REPRO_PERF=1``;
        consumers that only read ``timings``/``counters`` when the field
        is truthy keep working unchanged.)
        """
        perf_snapshot = perf.snapshot()
        perf_snapshot["enabled"] = perf.is_enabled()
        with self._lock:
            in_memory = len(self._entries)
        return {
            "sessions_in_memory": in_memory,
            "max_sessions": self.max_sessions,
            "ttl_seconds": self.ttl_seconds,
            "created": self._created,
            "resumed": self._resumed,
            "evicted": self._evicted,
            "expired": self._expired,
            "checkpoints": self._checkpoints,
            "durable": self.durable,
            "wal_appends": self._wal_appends,
            "wal_rollbacks": self._wal_rollbacks,
            "compactions": self._compactions,
            "replayed_batches": self._replayed_batches,
            "deduplicated": self._deduplicated,
            "released": self._released,
            "datasets": self.dataset_names(),
            "store": type(self.store).__name__ if self.store is not None else None,
            "cache": self.cache.stats() if self.cache is not None else None,
            "perf": perf_snapshot,
        }
