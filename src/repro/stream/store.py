"""Release versioning for incremental publication streams.

Every accepted batch produces one :class:`StreamVersion`: the release, its
skyline audit report, and a :class:`StreamDelta` describing exactly how much
work the incremental engine did (and skipped) relative to a full republish.
The :class:`ReleaseStore` keeps the version lineage and derives per-version
audit *deltas* - how each adversary's worst-case risk and vulnerable-tuple
count moved when the batch landed, the quantity the paper's risk-continuity
result says should move smoothly with the data.

The store is in-memory by default; constructed with ``path=...`` it becomes
**disk-backed**: every accepted version is persisted as one line of
``lineage.jsonl`` (the JSON-able version summary) plus one
``version-NNNNN.npz`` (the table's ``int32`` code columns and domains, the
released groups and the per-adversary risk vectors - written *uncompressed*
so the large members can be memory-mapped back), and the publisher's restart
state (the recorded split tree, accumulated compaction drift, configuration)
lands in ``state.json``.  Opening a directory that already holds a lineage
*loads the lineage only* - pass the table ``schema`` so the persisted
columns can be decoded - version archives stay on disk as lazy stubs and
are decoded on first access through a byte-bounded :class:`VersionCache`
LRU, so a store holding hundreds of million-row versions opens in
milliseconds and serves ``lineage()`` / ``report_delta()`` straight from
the persisted audit summaries without touching a single archive.
Corrupt or partial directories raise
:class:`~repro.exceptions.StreamError` naming the offending file.
"""

from __future__ import annotations

import json
import os
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.anonymize.partition import AnonymizedRelease
from repro.audit.engine import SkylineAdversary, SkylineAuditEntry, SkylineAuditReport
from repro.data.schema import Schema
from repro.data.table import AttributeDomain, MicrodataTable
from repro.exceptions import DataError, StreamError
from repro.knowledge.bandwidth import Bandwidth
from repro.privacy.disclosure import AttackResult, count_vulnerable_tuples, max_risk

#: Name of the exclusive publisher lock inside a disk-backed store directory.
LOCK_FILE = "store.lock"

#: Default byte budget for the decoded-version LRU of a disk-backed store.
DEFAULT_VERSION_CACHE_BYTES = 256 * 1024 * 1024


class VersionCache:
    """A thread-safe, byte-bounded LRU of decoded :class:`StreamVersion` objects.

    Lazy stores decode a version archive only when the version is actually
    accessed; the decoded object (table, groups, risk vectors) is parked
    here so repeated reads of a hot version - the serving daemon answering
    ``GET /streams/<s>/versions/<v>`` - pay the npz decode once, not per
    request.  Entries are keyed by ``(store, version, file identity)`` and
    evicted least-recently-used once the decoded bytes exceed ``max_bytes``;
    the most recent entry always survives so one oversized version can still
    be served.  A single cache may be shared across stores (the serving
    registry hands every shard the same instance, making the budget global).
    """

    def __init__(self, max_bytes: int = DEFAULT_VERSION_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise StreamError("the version cache budget must be non-negative")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[tuple, tuple[StreamVersion, int]] = OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> "StreamVersion | None":
        """The cached version under ``key``, refreshed to most-recent, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: tuple, version: "StreamVersion", nbytes: int) -> None:
        """Park a decoded version, evicting LRU entries past the byte budget."""
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous[1]
            self._entries[key] = (version, int(nbytes))
            self._bytes += int(nbytes)
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted
                self.evictions += 1

    @property
    def current_bytes(self) -> int:
        """Decoded bytes currently parked in the cache."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters and the current footprint."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal 0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # e.g. PermissionError: the process exists but belongs to someone else.
        return True
    return True


@dataclass
class StreamDelta:
    """What one version changed, and what the incremental engine reused.

    A version may fold several operations (a coalesced tick): row counts and
    partition counters sum over them, and the two reuse counters are
    relative to the *previously published* version, never to an
    intermediate state of the tick.  ``reused_groups`` counts that
    version's groups carried over untouched - no operation changed their
    members or re-partitioned them - so each maps through the tick's
    composed row map onto a previous group.  ``audit_recomputed_groups``
    holds, per skyline adversary, the groups the version's one audit
    recomputed rather than copied from the previous version's report (all
    groups after a full rebuild).
    """

    appended_rows: int
    reused_groups: int
    rechecked_leaves: int
    refined_leaves: int
    rebuilt_regions: int
    rebuild: bool = False  # full from-scratch rebuild (e.g. a domain grew)
    deleted_rows: int = 0
    updated_rows: int = 0
    compacted: bool = False  # periodic full-refine compaction of drift
    coalesced_operations: int = 1  # mutation batches folded into this version
    audit_recomputed_groups: list[int] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flat, JSON-able summary of this delta."""
        return {
            "appended_rows": self.appended_rows,
            "deleted_rows": self.deleted_rows,
            "updated_rows": self.updated_rows,
            "reused_groups": self.reused_groups,
            "rechecked_leaves": self.rechecked_leaves,
            "refined_leaves": self.refined_leaves,
            "rebuilt_regions": self.rebuilt_regions,
            "rebuild": self.rebuild,
            "compacted": self.compacted,
            "coalesced_operations": self.coalesced_operations,
            "audit_recomputed_groups": list(self.audit_recomputed_groups),
            "timings": dict(self.timings),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "StreamDelta":
        """Rebuild a delta from its :meth:`as_dict` payload (store round-trip)."""
        return cls(
            appended_rows=int(payload["appended_rows"]),
            reused_groups=int(payload["reused_groups"]),
            rechecked_leaves=int(payload["rechecked_leaves"]),
            refined_leaves=int(payload["refined_leaves"]),
            rebuilt_regions=int(payload["rebuilt_regions"]),
            rebuild=bool(payload.get("rebuild", False)),
            deleted_rows=int(payload.get("deleted_rows", 0)),
            updated_rows=int(payload.get("updated_rows", 0)),
            compacted=bool(payload.get("compacted", False)),
            coalesced_operations=int(payload.get("coalesced_operations", 1)),
            audit_recomputed_groups=[int(v) for v in payload.get("audit_recomputed_groups", [])],
            timings={k: float(v) for k, v in payload.get("timings", {}).items()},
        )


@dataclass
class StreamVersion:
    """One published version of the stream: release + audit + provenance."""

    version: int
    release: AnonymizedRelease
    report: SkylineAuditReport | None
    delta: StreamDelta

    @property
    def n_rows(self) -> int:
        """Rows covered by this version."""
        return self.release.table.n_rows

    @property
    def n_groups(self) -> int:
        """Groups released in this version."""
        return self.release.n_groups

    @property
    def satisfied(self) -> bool:
        """Whether this version honours its whole skyline (True when unaudited)."""
        return self.report is None or self.report.satisfied

    def as_dict(self) -> dict[str, Any]:
        """Flat, JSON-able summary of this version."""
        row: dict[str, Any] = {
            "version": self.version,
            "rows": self.n_rows,
            "groups": self.n_groups,
            "satisfied": self.satisfied,
            "delta": self.delta.as_dict(),
        }
        if self.report is not None:
            row["audit"] = self.report.summary()
        return row


class ReleaseStore:
    """The ordered lineage of a stream's published versions.

    Parameters
    ----------
    path:
        Optional directory for the disk-backed mode (see the module
        docstring).  Created when absent; a directory already holding a
        ``lineage.jsonl`` is *loaded*, which requires ``schema``.
    schema:
        The table schema used to decode persisted columns when loading.
    version_cache:
        The byte-bounded LRU that holds lazily decoded versions.  Defaults
        to a private :class:`VersionCache` with
        :data:`DEFAULT_VERSION_CACHE_BYTES`; pass a shared instance to bound
        the decoded footprint across many stores (the serving registry does).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        schema: Schema | None = None,
        version_cache: VersionCache | None = None,
    ) -> None:
        # Versions appended live stay resident; versions discovered on disk
        # are lazy stubs (None here, their lineage payload in _payloads) and
        # decode on demand through the version cache.
        self._versions: list[StreamVersion | None] = []
        self._payloads: list[dict[str, Any] | None] = []
        self._path = Path(path) if path is not None else None
        self._schema = schema
        self._owns_lock = False
        self._cache = version_cache if version_cache is not None else VersionCache()
        self.state: dict[str, Any] | None = None
        if self._path is not None:
            self._path.mkdir(parents=True, exist_ok=True)
            self._acquire_lock()
            if (self._path / "lineage.jsonl").exists():
                if schema is None:
                    raise StreamError(
                        f"loading the release store at {self._path} requires a schema"
                    )
                self._load()

    @property
    def path(self) -> Path | None:
        """The backing directory (``None`` for in-memory stores)."""
        return self._path

    # -- the exclusive publisher lock ---------------------------------------------------
    def _acquire_lock(self) -> None:
        """Take the directory's exclusive publisher lock (pid + ``O_EXCL``).

        Two live publishers writing one directory would interleave
        ``lineage.jsonl`` appends and clobber each other's ``state.json``, so
        a disk-backed store stamps its pid into ``store.lock`` on open.  A
        lock held by a *dead* process is stale and is stolen; a lock held by
        this process is re-entrant (the same process may reopen a directory
        it is already publishing, e.g. to serve historical versions), and
        only the first opener releases the file on :meth:`close`.
        """
        lock_path = self._path / LOCK_FILE
        while True:
            try:
                descriptor = os.open(lock_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                holder = self._lock_holder(lock_path)
                if holder == os.getpid():
                    return
                if holder is not None and _pid_alive(holder):
                    raise StreamError(
                        f"the release store at {self._path} is locked by "
                        f"process {holder} ({LOCK_FILE}); close that "
                        "publisher (or remove the lock file if the holder "
                        "is gone) before opening the store"
                    )
                # Unparseable or dead holder: stale.  Removing it races
                # against other stealers, so loop back to the O_EXCL create -
                # exactly one contender wins, the others see the fresh lock.
                try:
                    lock_path.unlink()
                except FileNotFoundError:
                    pass
                continue
            try:
                os.write(descriptor, f"{os.getpid()}\n".encode())
            finally:
                os.close(descriptor)
            self._owns_lock = True
            return

    @staticmethod
    def _lock_holder(lock_path: Path) -> int | None:
        """The pid recorded in a lock file (``None`` when unreadable)."""
        try:
            return int(lock_path.read_text().strip())
        except (OSError, ValueError):
            return None

    def close(self) -> None:
        """Release the publisher lock (a no-op for in-memory stores).

        The store object stays readable - historical versions live in
        memory - but the directory becomes available to another publisher.
        """
        if self._path is not None and self._owns_lock:
            try:
                (self._path / LOCK_FILE).unlink()
            except FileNotFoundError:
                pass
            self._owns_lock = False

    def add(self, version: StreamVersion, *, state: dict[str, Any] | None = None) -> StreamVersion:
        """Append the next version (versions must be contiguous from 0).

        ``state`` is the publisher's restart payload; disk-backed stores
        persist it (latest wins) so :meth:`IncrementalPublisher.resume` can
        reconstruct the publisher mid-stream.
        """
        if version.version != len(self._versions):
            raise StreamError(
                f"version {version.version} breaks the lineage; expected {len(self._versions)}"
            )
        self._versions.append(version)
        self._payloads.append(None)
        if state is not None:
            self.state = state
        if self._path is not None:
            self._persist(version, state)
        return version

    # -- persistence -------------------------------------------------------------------
    def _version_file(self, version: int) -> Path:
        return self._path / f"version-{version:05d}.npz"

    def _persist(self, version: StreamVersion, state: dict[str, Any] | None) -> None:
        table = version.release.table
        arrays: dict[str, np.ndarray] = {
            "groups": np.concatenate(version.release.groups).astype(np.int64),
            "group_sizes": np.asarray(
                [group.size for group in version.release.groups], dtype=np.int64
            ),
        }
        # v2 format: int32 code columns plus their domains.  The codes are
        # the compact on-disk dual of the values (a million-row column is
        # 4 MB instead of per-row strings), and writing them *uncompressed*
        # (np.savez, not savez_compressed) lets the loader memory-map the
        # members straight out of the archive.
        for attribute in table.schema:
            name = attribute.name
            arrays[f"codes_{name}"] = table.codes(name)
            if attribute.is_numeric:
                arrays[f"dom_{name}"] = table.domain(name).values.astype(np.float64)
            else:
                arrays[f"dom_{name}"] = np.asarray(
                    table.domain(name).values, dtype=np.str_
                )
        payload = version.as_dict()
        payload["release_method"] = version.release.method
        if version.report is not None:
            arrays["risks"] = np.stack(
                [entry.attack.risks for entry in version.report.entries]
            )
            payload["report"] = {
                "skyline": [
                    [list(entry.adversary.bandwidth.items()), entry.adversary.t]
                    for entry in version.report.entries
                ],
                "timings": dict(version.report.timings),
                "delta": version.report.delta,
            }
        np.savez(self._version_file(version.version), **arrays)
        with (self._path / "lineage.jsonl").open("a") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        if state is not None:
            # state.json is the only copy of the resume state: write the new
            # one beside it and atomically replace, so a crash mid-write
            # never destroys the previous good state.
            scratch = self._path / "state.json.tmp"
            scratch.write_text(json.dumps(state, sort_keys=True) + "\n")
            os.replace(scratch, self._path / "state.json")

    def _load(self) -> None:
        lineage_path = self._path / "lineage.jsonl"
        lines = [
            line for line in lineage_path.read_text().splitlines() if line.strip()
        ]
        if not lines:
            raise StreamError(f"corrupt release store: {lineage_path} holds no versions")
        for position, line in enumerate(lines):
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise StreamError(
                    f"corrupt release store: {lineage_path} line {position + 1} "
                    f"is not valid JSON ({error})"
                ) from None
            if payload.get("version") != position:
                raise StreamError(
                    f"corrupt release store: {lineage_path} line {position + 1} "
                    f"holds version {payload.get('version')!r}, expected {position} "
                    "(the lineage must be contiguous from 0)"
                )
            self._append_lazy(payload)
        state_path = self._path / "state.json"
        if state_path.exists():
            try:
                self.state = json.loads(state_path.read_text())
            except json.JSONDecodeError as error:
                raise StreamError(
                    f"corrupt release store: {state_path} is not valid JSON ({error})"
                ) from None

    def _append_lazy(self, payload: dict[str, Any]) -> None:
        """Record a persisted version as a lazy stub (archive checked, not read)."""
        number = int(payload["version"])
        version_path = self._version_file(number)
        if not version_path.exists():
            raise StreamError(
                f"corrupt release store: {version_path} is missing "
                f"(version {number} is in the lineage)"
            )
        self._versions.append(None)
        self._payloads.append(payload)

    def _resolve(self, position: int) -> StreamVersion:
        """The version at ``position``, decoding a lazy stub via the cache."""
        version = self._versions[position]
        if version is not None:
            return version
        version_path = self._version_file(position)
        try:
            stamp = os.stat(version_path)
        except OSError:
            raise StreamError(
                f"corrupt release store: {version_path} is missing "
                f"(version {position} is in the lineage)"
            ) from None
        # Keyed by path *and* file identity: a directory rebuilt in place
        # never serves another run's decoded versions from a shared cache.
        key = (str(version_path.resolve()), position, stamp.st_size, stamp.st_mtime_ns)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        version, nbytes = self._load_version(self._payloads[position])
        self._cache.put(key, version, nbytes)
        return version

    def _load_version(self, payload: dict[str, Any]) -> tuple[StreamVersion, int]:
        """Decode one persisted version; returns it with its decoded byte count.

        Reads the v2 layout: ``codes_<name>`` int32 columns, memory-mapped
        straight out of the uncompressed archive.
        """
        number = int(payload["version"])
        version_path = self._version_file(number)
        if not version_path.exists():
            raise StreamError(
                f"corrupt release store: {version_path} is missing "
                f"(version {number} is in the lineage)"
            )
        from repro.data.source import mmap_npz_member, read_npz_member

        try:
            with zipfile.ZipFile(version_path) as archive:
                members = set(archive.namelist())
        except (OSError, zipfile.BadZipFile) as error:
            raise StreamError(
                f"corrupt release store: {version_path} is unreadable ({error})"
            ) from None
        nbytes = 0
        try:
            domains: dict[str, AttributeDomain] = {}
            # Big members are memory-mapped, only domains are read.
            codes: dict[str, np.ndarray] = {}
            for attribute in self._schema:
                name = attribute.name
                codes[name] = mmap_npz_member(version_path, f"codes_{name}.npy")
                domain_values = read_npz_member(version_path, f"dom_{name}.npy")
                domains[name] = AttributeDomain(attribute, domain_values.tolist())
                nbytes += codes[name].nbytes + domain_values.nbytes
            table = MicrodataTable.from_codes(self._schema, codes, domains)
            groups_flat = mmap_npz_member(version_path, "groups.npy")
            group_sizes = read_npz_member(version_path, "group_sizes.npy")
            risks = (
                mmap_npz_member(version_path, "risks.npy") if "risks.npy" in members else None
            )
            nbytes += int(groups_flat.nbytes) + int(group_sizes.nbytes)
            boundaries = np.cumsum(group_sizes)[:-1]
            groups = [
                np.asarray(group, dtype=np.int64)
                for group in np.split(np.asarray(groups_flat, dtype=np.int64), boundaries)
            ]
            release = AnonymizedRelease(
                table, groups, method=str(payload["release_method"])
            )
            report = None
            if "report" in payload:
                if risks is None:
                    raise StreamError(
                        f"corrupt release store: {version_path} holds no risks "
                        "array but the lineage records an audit report"
                    )
                skyline = payload["report"]["skyline"]
                if risks.shape != (len(skyline), table.n_rows):
                    raise StreamError(
                        f"corrupt release store: {version_path} holds a "
                        f"{risks.shape} risks array but the lineage records "
                        f"{len(skyline)} adversaries over {table.n_rows} rows"
                    )
                nbytes += int(risks.nbytes)
                report = self._load_report(
                    payload["report"], risks, table.n_rows, groups
                )
            version = StreamVersion(
                version=number,
                release=release,
                report=report,
                delta=StreamDelta.from_dict(payload["delta"]),
            )
            return version, nbytes
        except (KeyError, TypeError, ValueError, DataError) as error:
            raise StreamError(
                f"corrupt release store: version {number} cannot be decoded ({error})"
            ) from None

    def _load_report(
        self,
        payload: dict[str, Any],
        risks: np.ndarray,
        n_rows: int,
        groups: list[np.ndarray],
    ) -> SkylineAuditReport:
        entries = []
        for (items, t), risk_row in zip(payload["skyline"], risks):
            adversary = SkylineAdversary(
                bandwidth=Bandwidth({name: float(value) for name, value in items}),
                t=float(t),
            )
            attack = AttackResult(
                adversary_b=adversary.scalar_b,
                threshold=adversary.t,
                risks=np.asarray(risk_row, dtype=np.float64),
                vulnerable_tuples=count_vulnerable_tuples(risk_row, adversary.t),
                worst_case_risk=max_risk(risk_row),
            )
            entries.append(SkylineAuditEntry(adversary=adversary, attack=attack))
        return SkylineAuditReport(
            entries=entries,
            n_rows=n_rows,
            n_groups=sum(1 for group in groups if group.size),
            timings={k: float(v) for k, v in payload.get("timings", {}).items()},
            delta=payload.get("delta"),
        )

    def __len__(self) -> int:
        return len(self._versions)

    def __iter__(self) -> Iterator[StreamVersion]:
        # Iterate a snapshot of positions: the serving daemon reads lineages
        # concurrently with the (append-only) writer thread.
        return iter([self._resolve(position) for position in range(len(self._versions))])

    def __getitem__(self, version: int) -> StreamVersion:
        position = version if version >= 0 else len(self._versions) + version
        if position < 0 or position >= len(self._versions):
            raise IndexError(f"version {version} is not in the lineage")
        return self._resolve(position)

    def latest(self) -> StreamVersion:
        """The most recently published version."""
        if not self._versions:
            raise StreamError("the stream has not published any version yet")
        return self._resolve(len(self._versions) - 1)

    @property
    def version_cache(self) -> VersionCache:
        """The LRU holding this store's lazily decoded versions."""
        return self._cache

    def _audit_rows(self, position: int) -> list[dict[str, Any]] | None:
        """Per-adversary summary rows for one version, without decoding stubs.

        Resident versions summarise their in-memory report; lazy stubs are
        served straight from the ``audit`` block persisted in the lineage
        (the same :meth:`SkylineAuditEntry.as_dict` rows), so lineage-level
        queries never touch a version archive.
        """
        version = self._versions[position]
        if version is not None:
            if version.report is None:
                return None
            return [entry.as_dict() for entry in version.report.entries]
        audit = self._payloads[position].get("audit")
        if audit is None:
            return None
        return audit.get("adversaries")

    def report_delta(self, version: int) -> list[dict[str, Any]] | None:
        """Per-adversary audit movement from ``version - 1`` to ``version``.

        Returns one row per skyline point with the change in worst-case risk,
        margin and vulnerable-tuple count, or ``None`` when either version is
        unaudited (or ``version`` is the seed release).
        """
        if version <= 0 or version >= len(self._versions):
            return None
        current = self._audit_rows(version)
        previous = self._audit_rows(version - 1)
        if current is None or previous is None:
            return None
        rows = []
        for entry, before in zip(current, previous):
            rows.append(
                {
                    "adversary": entry["adversary"],
                    "worst_case_risk": entry["worst_case_risk"],
                    "worst_case_risk_change": entry["worst_case_risk"]
                    - before["worst_case_risk"],
                    "margin": entry["margin"],
                    "vulnerable_tuples": entry["vulnerable_tuples"],
                    "vulnerable_tuples_change": entry["vulnerable_tuples"]
                    - before["vulnerable_tuples"],
                    "satisfied": entry["satisfied"],
                }
            )
        return rows

    def lineage(self) -> list[dict[str, Any]]:
        """JSON-able summaries of every version, with audit deltas attached.

        Lazy stubs contribute their persisted lineage payload directly, so
        this never decodes an archive - a store holding hundreds of
        million-row versions lists its history from JSON alone.
        """
        rows = []
        for position in range(len(self._versions)):
            version = self._versions[position]
            if version is not None:
                row = version.as_dict()
            else:
                row = {
                    key: value
                    for key, value in self._payloads[position].items()
                    if key not in ("release_method", "report")
                }
            delta = self.report_delta(position)
            if delta is not None:
                row["audit_delta"] = delta
            rows.append(row)
        return rows
