"""Durability root: directory layout, routing manifest, orphan sweeping.

The :class:`DurabilityManager` owns one directory tree::

    root/
      MANIFEST.json      -- the durable routing epoch (CRC-wrapped JSON)
      wal/<log_id>.wal   -- one WAL per live shard log
      snap/<log_id>.<lsn>.snap

``MANIFEST.json`` is the *commit point* of the whole store.  It names
the current epoch, the partitioner, and the ordered shard log ids; it
is rewritten — build-aside, ``os.replace``, directory fsync, behind the
``durability.manifest.swap`` fault point — exactly when shard topology
changes (bootstrap, split, merge).  Recovery trusts only logs the
manifest names: a crash mid-split leaves either the old manifest (new
half-built logs are swept as orphans) or the new one (old sealed logs
are swept), so there is no torn routing state to reason about.

Log ids encode the routing epoch (``e00000017-p0003`` = epoch 17,
position 3), which is what lets split/merge *re-key* shards: retiring
a shard seals its log under the old id and builds successors under
fresh ids, so a stale writer can never durably append to a log that
the manifest no longer reaches.  A shard with several copies names one
``-rNN`` log per copy.  Everything that depends on those conventions
lives here and nowhere else: the manifest's shape (:func:`manifest_for`),
log naming (:meth:`DurabilityManager.create_logs`), per-shard recovery
(:meth:`~DurabilityManager.recover_shard`), and the publish / rollback /
retire protocol of an epoch change (:meth:`~DurabilityManager.epoch_swap`).
"""

from __future__ import annotations

import json
import random
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.atomicio import discard_aside, publish_aside, write_aside
from repro.durability.codec import CorruptSerializationError, Key
from repro.durability.log import DurableLog, RecoveryResult
from repro.faults.injector import fault_point
from repro.obs.runtime import active_registry

MANIFEST_FORMAT = 1

#: RA004: literal instrument names.
_COUNTERS = {
    "publishes": "durability.manifest.publishes",
    "orphans": "durability.manifest.orphans_removed",
}

Pair = Tuple[Key, int]


@dataclass(frozen=True)
class Manifest:
    """The durable routing epoch: which logs exist and how keys route.

    ``shards`` lists the *primary* log id per routing position.  A
    replicated store additionally carries ``replicas``: the replication
    factor, the per-replica divergence profile names (so recovery
    rebuilds each copy under the same policy it crashed with), and the
    full per-shard replica log id lists — every id a recovery must
    consider reachable.
    """

    epoch: int
    partitioner: Dict[str, Any]
    shards: List[str]  # primary log ids, in routing-table order
    #: Replication block: {"factor": int, "profiles": [str], "logs":
    #: [[str]]} — or None for a plain single-copy store.  Older stores
    #: also carry a ``"policy"`` string (a retired read-routing knob),
    #: which is accepted and ignored.
    replicas: Optional[Dict[str, Any]] = None

    def shard_log_ids(self) -> List[List[str]]:
        """Every log id of every routing position (one id when plain)."""
        if self.replicas is not None:
            return [list(log_ids) for log_ids in self.replicas["logs"]]
        return [[log_id] for log_id in self.shards]


def manifest_for(
    epoch: int,
    partitioner: Any,
    shards: Sequence[Any],
    replication: Optional[Mapping[str, Any]] = None,
) -> Manifest:
    """The manifest naming the logs of ``shards`` (each exposes ``logs()``).

    ``replication`` is the store's ``replicas`` block minus its log ids,
    or None for a single-copy store.  Every manifest the service
    publishes — bootstrap, the epoch a split/merge commits, the undo it
    may republish — is spelled here, so none can drop the block.
    """
    log_ids = [[log.log_id for log in shard.logs()] for shard in shards]
    return Manifest(
        epoch=epoch,
        partitioner=partitioner_spec(partitioner),
        shards=[ids[0] for ids in log_ids],
        replicas=None if replication is None else {**replication, "logs": log_ids},
    )


def partitioner_spec(partitioner: Any) -> Dict[str, Any]:
    """JSON-safe description of a service partitioner."""
    from repro.service.partition import HashPartitioner, RangePartitioner

    if isinstance(partitioner, HashPartitioner):
        return {"kind": "hash", "num_shards": partitioner.num_shards}
    if isinstance(partitioner, RangePartitioner):
        boundaries = []
        for boundary in partitioner.boundaries:
            if isinstance(boundary, int):
                boundaries.append({"t": "int", "v": str(boundary)})
            else:
                boundaries.append({"t": "bytes", "v": bytes(boundary).hex()})
        return {"kind": "range", "boundaries": boundaries}
    raise TypeError(f"cannot persist partitioner {type(partitioner).__name__}")


def build_partitioner(spec: Dict[str, Any]) -> Any:
    """Rebuild a partitioner from its manifest spec."""
    from repro.service.partition import HashPartitioner, RangePartitioner

    kind = spec.get("kind")
    if kind == "hash":
        return HashPartitioner(int(spec["num_shards"]))
    if kind == "range":
        boundaries: List[Any] = []
        for boundary in spec["boundaries"]:
            if boundary["t"] == "int":
                boundaries.append(int(boundary["v"]))
            elif boundary["t"] == "bytes":
                boundaries.append(bytes.fromhex(boundary["v"]))
            else:
                raise CorruptSerializationError(f"unknown boundary type {boundary['t']!r}")
        return RangePartitioner(boundaries)
    raise CorruptSerializationError(f"unknown partitioner kind {kind!r}")


class DurabilityManager:
    """Owns a durability root directory and the logs living under it."""

    def __init__(
        self,
        root: Path,
        sync: str = "batch",
        tear_rng: Optional[random.Random] = None,
    ) -> None:
        self.root = Path(root)
        self.sync = sync
        self.tear_rng = tear_rng
        self.wal_dir = self.root / "wal"
        self.snap_dir = self.root / "snap"
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal_dir.mkdir(exist_ok=True)
        self.snap_dir.mkdir(exist_ok=True)

    @property
    def manifest_path(self) -> Path:
        return self.root / "MANIFEST.json"

    @staticmethod
    def log_id(epoch: int, position: int) -> str:
        """The durable name of the shard at ``position`` in ``epoch``."""
        return f"e{epoch:08d}-p{position:04d}"

    # ------------------------------------------------------------------
    # Manifest (the commit point)
    # ------------------------------------------------------------------
    def publish_manifest(self, manifest: Manifest, allow_fault: bool = True) -> None:
        """Durably publish ``manifest`` as the new routing epoch.

        The JSON payload is CRC-wrapped and swapped in atomically
        behind the ``durability.manifest.swap`` fault point.  Rollback
        paths (re-publishing the *old* epoch after an aborted split)
        pass ``allow_fault=False`` so the undo cannot itself be killed
        by the injector mid-abort.
        """
        payload = {
            "format": MANIFEST_FORMAT,
            "epoch": manifest.epoch,
            "partitioner": manifest.partitioner,
            "shards": list(manifest.shards),
        }
        if manifest.replicas is not None:
            payload["replicas"] = manifest.replicas
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF
        blob = json.dumps({"crc": crc, "payload": payload}, sort_keys=True).encode("utf-8")
        tmp = write_aside(self.manifest_path, blob)
        try:
            if allow_fault:
                fault_point("durability.manifest.swap")
            publish_aside(tmp, self.manifest_path)
        except BaseException:
            discard_aside(tmp)
            raise
        registry = active_registry()
        if registry is not None:
            registry.counter(_COUNTERS["publishes"]).inc()

    def read_manifest(self) -> Manifest:
        """The current routing epoch; raises if absent or corrupt."""
        try:
            wrapper = json.loads(self.manifest_path.read_bytes().decode("utf-8"))
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as error:
            raise CorruptSerializationError(f"unreadable manifest: {error}") from error
        if not isinstance(wrapper, dict) or "crc" not in wrapper or "payload" not in wrapper:
            raise CorruptSerializationError("manifest is missing its crc/payload wrapper")
        payload = wrapper["payload"]
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF != wrapper["crc"]:
            raise CorruptSerializationError("manifest checksum mismatch")
        if payload.get("format") != MANIFEST_FORMAT:
            raise CorruptSerializationError(f"unsupported manifest format {payload.get('format')}")
        shards = payload["shards"]
        if not isinstance(shards, list) or not all(isinstance(s, str) for s in shards):
            raise CorruptSerializationError("manifest shard list is malformed")
        replicas = payload.get("replicas")
        if replicas is not None:
            if (
                not isinstance(replicas, dict)
                or not isinstance(replicas.get("factor"), int)
                or not isinstance(replicas.get("profiles"), list)
                or not isinstance(replicas.get("policy", ""), str)
                or not isinstance(replicas.get("logs"), list)
                or not all(
                    isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                    for ids in replicas["logs"]
                )
            ):
                raise CorruptSerializationError("manifest replica block is malformed")
        return Manifest(
            epoch=int(payload["epoch"]),
            partitioner=dict(payload["partitioner"]),
            shards=list(shards),
            replicas=replicas,
        )

    def has_manifest(self) -> bool:
        """True when a manifest file exists (store was bootstrapped)."""
        return self.manifest_path.exists()

    # ------------------------------------------------------------------
    # Log lifecycle
    # ------------------------------------------------------------------
    def create_log(self, log_id: str, pairs: Sequence[Pair]) -> DurableLog:
        """Fresh log (base snapshot + empty WAL) under ``log_id``."""
        return DurableLog.create(
            log_id,
            self.wal_dir,
            self.snap_dir,
            pairs,
            sync=self.sync,
            tear_rng=self.tear_rng,
        )

    def create_logs(
        self,
        epoch: int,
        position: int,
        pairs: Sequence[Pair],
        replication: Optional[Mapping[str, Any]] = None,
    ) -> List[DurableLog]:
        """One fresh log per copy of the shard at ``position`` in ``epoch``.

        A single-copy store has the one :meth:`log_id`; a replicated one
        names a private log per replica, and every replica (the primary,
        replica 0, included) carries the ``-rNN`` suffix so its ids
        never collide with a plain store's.
        """
        base = self.log_id(epoch, position)
        log_ids = [base]
        if replication is not None:
            log_ids = [f"{base}-r{copy:02d}" for copy in range(replication["factor"])]
        return [self.create_log(log_id, pairs) for log_id in log_ids]

    def recover_log(self, log_id: str) -> Tuple[DurableLog, RecoveryResult]:
        """Reopen ``log_id`` and rebuild its state from disk."""
        return DurableLog.recover(
            log_id,
            self.wal_dir,
            self.snap_dir,
            sync=self.sync,
            tear_rng=self.tear_rng,
        )

    def recover_shard(
        self, log_ids: Sequence[str]
    ) -> Tuple[List[DurableLog], List[Pair], Dict[str, int]]:
        """Recover every copy of one shard: ``(logs, content, tally)``.

        Each log recovers from its *own* newest snapshot plus WAL tail.
        The copy with the highest LSN is authoritative — fan-out appends
        in copy order, so a higher LSN implies a superset of acked
        writes — and its pairs are the shard's content.  A straggler (a
        copy that was down or fenced when the crash hit) is consistent
        but behind; checkpointing it at that content and LSN makes its
        log whole again.  With one log there is nothing to reconcile.  A
        step that raises closes the logs already reopened.
        """
        logs: List[DurableLog] = []
        results: List[RecoveryResult] = []
        try:
            for log_id in log_ids:
                log, result = self.recover_log(log_id)
                logs.append(log)
                results.append(result)
            authoritative = max(results, key=lambda result: result.last_lsn)
            pairs = sorted(authoritative.state.items())
            stragglers = [log for log in logs if log.last_lsn < authoritative.last_lsn]
            for log in stragglers:
                log.adopt(pairs, authoritative.last_lsn)
        except BaseException:
            for log in logs:
                log.close()
            raise
        return logs, pairs, {
            "frames_replayed": sum(result.frames_replayed for result in results),
            "snapshots_skipped": sum(result.snapshots_skipped for result in results),
            "torn_bytes": sum(result.torn_bytes for result in results),
            "replicas_rebuilt": len(stragglers),
        }

    @contextmanager
    def epoch_swap(
        self,
        undo: Manifest,
        commit: Manifest,
        born: Sequence[DurableLog],
        retired: Sequence[DurableLog],
    ) -> Iterator[None]:
        """Durably commit a split/merge around the caller's in-memory swap.

        ``commit`` (the next epoch, naming the ``born`` logs) is published
        first, while the caller's write gates still block every
        acknowledgment: a real crash from here on recovers into the new
        epoch.  If the block raises — an in-process abort at the swap
        fault point — ``undo`` is republished with fault injection off
        (the abort path must not itself be killable, or the manifest
        and the still-old in-memory table would diverge).  Either way a
        failure destroys the ``born`` logs, which no published manifest
        reaches.  On success the ``retired`` logs are sealed, so a stale
        writer cannot get an ack recovery would not honor, and destroyed.
        """
        published = False
        try:
            self.publish_manifest(commit)
            published = True
            yield
        except BaseException:
            if published:
                self.publish_manifest(undo, allow_fault=False)
            for log in born:
                log.delete_files()
            raise
        for log in retired:
            log.seal()
            log.delete_files()

    # ------------------------------------------------------------------
    # Orphan sweeping
    # ------------------------------------------------------------------
    def cleanup_orphans(self, manifest: Manifest) -> int:
        """Remove files no epoch reaches; returns how many were removed.

        Run at recovery, after the manifest is read: WALs and snapshots
        whose log id the manifest does not name (the debris of a crash
        mid-split/merge) and unpublished ``*.tmp`` aside files are all
        unreachable by construction, so deleting them is safe.
        """
        referenced = {log_id for ids in manifest.shard_log_ids() for log_id in ids}
        removed = 0
        for directory in (self.wal_dir, self.snap_dir, self.root):
            for path in directory.iterdir():
                # ``<log_id>.wal`` and ``<log_id>.<lsn>.snap``: ids hold no dot.
                if path.suffix == ".tmp" or (
                    path.suffix in (".wal", ".snap")
                    and path.name.split(".", 1)[0] not in referenced
                ):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        continue
        registry = active_registry()
        if registry is not None and removed:
            registry.counter(_COUNTERS["orphans"]).inc(removed)
        return removed
