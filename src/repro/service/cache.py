"""Solve cache: reuse fitted background models across sessions and processes.

Fitting the MaxEnt background is the hot path of every view request, and
many requests repeat the exact same solve — users exploring the same
dataset mark the same clusters, forked sessions replay a shared prefix,
and a resumed session refits what the original already fitted.  The cache
keys a finished solve on a canonical hash of

    (data fingerprint, constraint-set fingerprint, solver options)

and installs the stored parameters into a :class:`BackgroundModel` instead
of re-solving.

Two tiers:

* **L1** — the in-process :class:`SolveCache` LRU (always present);
* **L2** (optional) — :class:`L2SolveCache`, an SQLite-backed table of
  the same entries keyed on the same content fingerprint, so hits are
  shareable *between worker processes* and *across restarts*.  The
  sharded service (``repro serve --workers N``) points every worker at
  one L2 file; a solve performed by worker A is a cache hit on worker B.

Isolation contract: **no cached state is mutable by a session.**  Array
parameters are copied both into and out of the cache.  The
:class:`~repro.core.equivalence.EquivalenceClasses` partition is *frozen*
on store — every array copied and marked read-only, so a session that
tried to write through it gets a loud ``ValueError`` instead of silently
corrupting other sessions' views — and every fetch hands out a fresh
``EquivalenceClasses`` instance over those read-only arrays, so the
per-instance ``scatter_plan`` memo is never shared between sessions
either.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.background import BackgroundModel
from repro.core.equivalence import EquivalenceClasses
from repro.core.parameters import ClassParameters
from repro.core.solver import SolverOptions, SolverReport
from repro.io import constraint_set_fingerprint, data_fingerprint
from repro.store.sqlite import connect_wal


@dataclass(frozen=True)
class _CacheEntry:
    """One stored solve: frozen parameter copies plus the original report."""

    params: ClassParameters
    classes: EquivalenceClasses
    report: SolverReport


#: Key-schema marker folded into every cache key.  Bumped alongside the
#: unified feedback vocabulary (/v1 API): entries written by processes
#: running a different constraint-building vocabulary must never collide.
KEY_SCHEMA = "v2"


def solve_key(
    data_fp: str, constraints, options: SolverOptions | None = None
) -> str:
    """Canonical cache key for one MaxEnt solve."""
    options = options or SolverOptions()
    digest = hashlib.sha256()
    digest.update(KEY_SCHEMA.encode())
    digest.update(data_fp.encode())
    digest.update(constraint_set_fingerprint(constraints).encode())
    digest.update(
        f"{options.lambda_tolerance}:{options.drift_tolerance_factor}:"
        f"{options.time_cutoff}:{options.max_sweeps}".encode()
    )
    return digest.hexdigest()[:32]


# ----------------------------------------------------------------------
# Frozen equivalence classes: share safely, never alias mutable state
# ----------------------------------------------------------------------


def _read_only_copy(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def freeze_classes(classes: EquivalenceClasses) -> EquivalenceClasses:
    """Deep-copy a partition with every array marked read-only.

    The result is safe to share across sessions and cache tiers: any
    attempted in-place write raises ``ValueError: assignment destination
    is read-only`` instead of leaking into other sessions' cached views.
    """
    return EquivalenceClasses(
        n_rows=int(classes.n_rows),
        class_of_row=_read_only_copy(classes.class_of_row),
        class_counts=_read_only_copy(classes.class_counts),
        members=tuple(_read_only_copy(m) for m in classes.members),
        representative_rows=_read_only_copy(classes.representative_rows),
    )


def classes_view(frozen: EquivalenceClasses) -> EquivalenceClasses:
    """Fresh ``EquivalenceClasses`` instance over frozen (read-only) arrays.

    Sharing the arrays is safe — they are immutable — but the
    ``scatter_plan`` ``cached_property`` memo lives on the *instance*, so
    handing every fetch its own instance keeps that derived plan private
    to one session.
    """
    return EquivalenceClasses(
        n_rows=frozen.n_rows,
        class_of_row=frozen.class_of_row,
        class_counts=frozen.class_counts,
        members=frozen.members,
        representative_rows=frozen.representative_rows,
    )


# ----------------------------------------------------------------------
# L2: cross-process SQLite tier
# ----------------------------------------------------------------------


#: Drop every row past the newest ``max_entries`` (by store time).
_TRIM_SQL = (
    "DELETE FROM solves WHERE key IN ("
    " SELECT key FROM solves ORDER BY created_at DESC"
    " LIMIT -1 OFFSET ?)"
)


class L2SolveCache:
    """SQLite-backed solve-cache tier shared between processes.

    One table keyed on the content fingerprint; values are the fitted
    arrays serialised with ``np.savez`` (bit-exact float64 round-trip)
    plus a JSON sidecar carrying the partition shape and solver report.
    WAL-mode SQLite gives many concurrent reader processes plus one
    writer at a time; a busy writer is simply skipped (a cache must
    never block or break the solve path).

    Connections are opened lazily **per thread and per process** — the
    handle records the PID it was opened in and reopens after a
    ``fork()``, because a SQLite connection used across a fork can
    corrupt the shared database.

    Parameters
    ----------
    path:
        Database file; created (with parents) on first use.
    max_entries:
        Rows kept before the oldest (by store time) are dropped.
    """

    def __init__(self, path: str | Path, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.path = Path(path)
        self.max_entries = int(max_entries)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        self._conn()  # fail loudly on an unusable path at construction

    def _conn(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        pid = getattr(self._local, "pid", None)
        if conn is not None and pid == os.getpid():
            return conn
        # After fork() the inherited handle must not be touched (not even
        # closed): drop the reference and open a fresh connection.
        conn = connect_wal(self.path, busy_timeout_ms=5000)
        conn.execute("PRAGMA synchronous = NORMAL")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS solves ("
            " key TEXT PRIMARY KEY,"
            " arrays BLOB NOT NULL,"
            " meta TEXT NOT NULL,"
            " created_at REAL NOT NULL)"
        )
        # The trim in put() walks store times newest first.  Without this
        # index it reads every row, and created_at sits past each row's
        # arrays blob, so a put's cost grew with the table.
        conn.execute(
            "CREATE INDEX IF NOT EXISTS solves_created_at"
            " ON solves (created_at)"
        )
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            conn.close()
        self._local.conn = None

    # -- serialisation -------------------------------------------------

    @staticmethod
    def _serialize(entry: _CacheEntry) -> tuple[bytes, str]:
        arrays = {
            "theta1": entry.params.theta1,
            "sigma": entry.params.sigma,
            "mean": entry.params.mean,
            "class_of_row": entry.classes.class_of_row,
            "class_counts": entry.classes.class_counts,
            "representative_rows": entry.classes.representative_rows,
        }
        for t, member in enumerate(entry.classes.members):
            arrays[f"member_{t}"] = member
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        report = entry.report
        meta = json.dumps(
            {
                "n_rows": int(entry.classes.n_rows),
                "n_members": len(entry.classes.members),
                "report": {
                    "converged": bool(report.converged),
                    "sweeps": int(report.sweeps),
                    "steps": int(report.steps),
                    "elapsed": float(report.elapsed),
                    "max_lambda_change": float(report.max_lambda_change),
                    "init_seconds": float(report.init_seconds),
                    "optim_seconds": float(report.optim_seconds),
                },
            }
        )
        return buf.getvalue(), meta

    @staticmethod
    def _deserialize(blob: bytes, meta_text: str) -> _CacheEntry:
        meta = json.loads(meta_text)
        with np.load(io.BytesIO(blob), allow_pickle=False) as arrays:
            params = ClassParameters(
                theta1=arrays["theta1"].copy(),
                sigma=arrays["sigma"].copy(),
                mean=arrays["mean"].copy(),
            )
            classes = EquivalenceClasses(
                n_rows=int(meta["n_rows"]),
                class_of_row=_read_only_copy(arrays["class_of_row"]),
                class_counts=_read_only_copy(arrays["class_counts"]),
                members=tuple(
                    _read_only_copy(arrays[f"member_{t}"])
                    for t in range(int(meta["n_members"]))
                ),
                representative_rows=_read_only_copy(
                    arrays["representative_rows"]
                ),
            )
        rep = meta["report"]
        report = SolverReport(
            converged=bool(rep["converged"]),
            sweeps=int(rep["sweeps"]),
            steps=int(rep["steps"]),
            elapsed=float(rep["elapsed"]),
            max_lambda_change=float(rep["max_lambda_change"]),
            init_seconds=float(rep.get("init_seconds", 0.0)),
            optim_seconds=float(rep.get("optim_seconds", 0.0)),
        )
        return _CacheEntry(params=params, classes=classes, report=report)

    # -- lookup / store ------------------------------------------------

    def get(self, key: str) -> _CacheEntry | None:
        """The stored entry for ``key``, or None (also on any DB error)."""
        try:
            row = self._conn().execute(
                "SELECT arrays, meta FROM solves WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                return None
            return self._deserialize(row[0], row[1])
        except (sqlite3.Error, ValueError, KeyError, json.JSONDecodeError, OSError):
            # A corrupt or contended cache row is a miss, never an error:
            # drop it best-effort so the slot heals on the next store.
            try:
                self._conn().execute(
                    "DELETE FROM solves WHERE key = ?", (key,)
                )
            except sqlite3.Error:
                pass
            return None

    def put(self, key: str, entry: _CacheEntry) -> bool:
        """Store (or refresh) one entry; False when the write was skipped."""
        try:
            arrays, meta = self._serialize(entry)
            conn = self._conn()
            conn.execute(
                "INSERT INTO solves (key, arrays, meta, created_at) "
                "VALUES (?, ?, ?, ?) ON CONFLICT(key) DO UPDATE SET "
                "arrays = excluded.arrays, meta = excluded.meta, "
                "created_at = excluded.created_at",
                (key, arrays, meta, time.time()),
            )
            conn.execute(_TRIM_SQL, (self.max_entries,))
            return True
        except (sqlite3.Error, OSError):
            return False

    def __len__(self) -> int:
        try:
            return int(
                self._conn().execute(
                    "SELECT COUNT(*) FROM solves"
                ).fetchone()[0]
            )
        except sqlite3.Error:
            return 0

    def __contains__(self, key: str) -> bool:
        try:
            return (
                self._conn().execute(
                    "SELECT 1 FROM solves WHERE key = ? LIMIT 1", (key,)
                ).fetchone()
                is not None
            )
        except sqlite3.Error:
            return False

    def clear(self) -> None:
        try:
            self._conn().execute("DELETE FROM solves")
        except sqlite3.Error:
            pass


class SolveCache:
    """Bounded LRU cache of fitted background-model parameters.

    Thread-safe; all bookkeeping happens under one lock, and array copies
    (plus the frozen-partition contract — see the module docstring) keep
    cached state isolated from the models that produced or consume it.

    Parameters
    ----------
    max_entries:
        Entries kept before the least-recently-used one is dropped.
    l2:
        Optional :class:`L2SolveCache` second tier.  L1 misses fall
        through to it (hits are promoted into L1) and fresh solves are
        written through, so entries are shared across worker processes
        and survive restarts.
    """

    def __init__(
        self, max_entries: int = 128, l2: L2SolveCache | None = None
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = int(max_entries)
        self.l2 = l2
        self._entries: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._l2_hits = 0
        self._l2_misses = 0
        self._l2_stores = 0

    # ------------------------------------------------------------------
    # Key derivation
    # ------------------------------------------------------------------

    def key_for(self, model: BackgroundModel, data_fp: str | None = None) -> str:
        """Cache key of the solve the model's next ``fit()`` would perform.

        ``data_fp`` lets callers that already know the data fingerprint
        (e.g. the session manager, which computes it once per session)
        skip rehashing the whole matrix on every request.
        """
        if data_fp is None:
            data_fp = data_fingerprint(model.data)
        return solve_key(data_fp, model.constraints, model.solver_options)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def _install(self, model: BackgroundModel, entry: _CacheEntry) -> None:
        params = ClassParameters(
            theta1=entry.params.theta1.copy(),
            sigma=entry.params.sigma.copy(),
            mean=entry.params.mean.copy(),
        )
        report = replace(entry.report)
        model._params = params                        # noqa: SLF001
        model._classes = classes_view(entry.classes)  # noqa: SLF001
        model._report = report                        # noqa: SLF001
        model._dirty = False                          # noqa: SLF001

    def fetch(self, model: BackgroundModel, key: str) -> bool:
        """Install a cached solve into the model; True on a hit.

        On a hit the model behaves exactly as if :meth:`BackgroundModel.fit`
        had just returned — ``is_fitted`` is true and ``last_report`` carries
        the diagnostics of the original solve.  Checks L1 first, then the
        L2 tier (promoting its entry into L1).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
        if entry is not None:
            self._install(model, entry)
            return True
        if self.l2 is not None:
            entry = self.l2.get(key)
            with self._lock:
                if entry is not None:
                    self._l2_hits += 1
                    self._hits += 1
                    self._put_l1_locked(key, entry)
                else:
                    self._l2_misses += 1
            if entry is not None:
                self._install(model, entry)
                return True
        with self._lock:
            self._misses += 1
        return False

    def _put_l1_locked(self, key: str, entry: _CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1

    def store(self, model: BackgroundModel, key: str) -> None:
        """Record a freshly fitted model's parameters under ``key``."""
        params, classes = model._require_fit()  # noqa: SLF001 — intentional
        entry = _CacheEntry(
            params=ClassParameters(
                theta1=params.theta1.copy(),
                sigma=params.sigma.copy(),
                mean=params.mean.copy(),
            ),
            classes=freeze_classes(classes),
            report=replace(model.last_report, trace=[]),
        )
        with self._lock:
            self._put_l1_locked(key, entry)
            self._stores += 1
        if self.l2 is not None and self.l2.put(key, entry):
            with self._lock:
                self._l2_stores += 1

    def fit(
        self, model: BackgroundModel, data_fp: str | None = None
    ) -> tuple[SolverReport, bool]:
        """Fit through the cache: fetch on a hit, solve-and-store on a miss.

        Returns ``(report, cache_hit)``.
        """
        key = self.key_for(model, data_fp=data_fp)
        if self.fetch(model, key):
            return model.last_report, True
        report = model.fit()
        self.store(model, key)
        return report, False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        return self.l2 is not None and key in self.l2

    def clear(self) -> None:
        """Drop every L1 entry (counters and the L2 tier are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus current occupancy."""
        with self._lock:
            total = self._hits + self._misses
            payload = {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "evictions": self._evictions,
                "hit_rate": (self._hits / total) if total else 0.0,
            }
            if self.l2 is not None:
                payload["l2"] = {
                    "path": str(self.l2.path),
                    "entries": len(self.l2),
                    "max_entries": self.l2.max_entries,
                    "hits": self._l2_hits,
                    "misses": self._l2_misses,
                    "stores": self._l2_stores,
                }
            return payload
