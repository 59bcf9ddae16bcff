"""On-disk, content-addressed result store — the third memo tier.

The in-process caches (:mod:`.cache`) die with the process, so every
CLI invocation and CI run used to re-simulate the full grid from
zero.  This module makes results *durable*: a directory of
JSON records under ``REPRO_CACHE_DIR`` (default ``.repro-cache/``),
keyed by the engine's existing sha256 job fingerprint.  The full lookup
path for a campaign cell is then

    RAM memo (:data:`~repro.exec.cache.RESULT_CACHE`)
      -> disk store (this module)
        -> compute (simulate)

so a repeated or overlapping campaign pays only for the cells it has
never seen, in any process, ever.

The store holds :class:`~repro.engine.result.SimResult` records and
nothing else (every recorded statistic round-trips exactly — see
:func:`result_to_payload`).  Warm tag stores are construction-time
state that a trace's models share in-process
(:meth:`repro.engine.base.CoreModel._warm_hierarchy`); building a core
never reads or writes the store.

Keying and invalidation
-----------------------
Records live under ``<root>/v<STORE_SCHEMA>/<ENGINE_VERSION>/results/
<fp[:2]>/<fp>.json``.  Three things name a record:

* the **job fingerprint** — the deterministic sha256 of the job spec
  (:mod:`.fingerprint`); equal fingerprints mean equal results;
* the **store schema** (:data:`STORE_SCHEMA`) — the record layout; bump
  it when the serialised form changes;
* the **engine version** (:data:`ENGINE_VERSION`) — the simulator's
  timing semantics; bump it in the same commit that regenerates the
  golden fixtures (``tests/engine/golden_stats.json``), so records from
  an older engine become invisible rather than wrong.

A version bump simply changes the directory: stale records are never
read, and ``repro cache gc`` deletes them.

Record layout
-------------
A record is one compact JSON object with four keys in this order:
``schema``, ``engine``, ``fingerprint`` and ``payload``.  The payload
is :func:`result_to_payload`'s form with each MLP meter packed into
one ASCII string: base64 of the zlib-compressed ``(start, end)`` fill
pairs as little-endian int64 (:func:`_pack_meter`).  A read decodes
that string straight into the meter's ``array('q')``, with no Python
object per fill.  Nothing in a record depends on when it was written,
so two puts of one result write identical bytes; ``gc`` ages records
by file mtime.

Concurrency
-----------
Writes go to a same-directory temp file followed by :func:`os.replace`,
so pooled workers and concurrent CLI runs can share one store — readers
see either the old record, the new record, or (before first write)
nothing, never a torn file.  Unreadable or truncated records, and
records whose meters do not unpack, count as ``corrupt``, are
*quarantined* into ``<root>/quarantine/`` (for post-mortem inspection
— ``repro cache quarantine`` lists and clears them), and fall back to
recomputation; the recomputed record then rewrites the original path.

Counters
--------
``hits``, ``misses``, ``corrupt``, ``writes`` and ``quarantined`` count
one :class:`ResultStore`'s session and are never persisted; a
campaign's :class:`~repro.exec.report.CampaignReport` carries its share
(``store_hits``, ``store_errors``).

Chaos testing: when a fault plan is active (:mod:`repro.exec.faults`,
``REPRO_FAULTS``), record writes may be deterministically truncated or
corrupted before the atomic rename — simulating torn writes the rename
discipline cannot prevent — so the corrupt→quarantine→recompute path
stays continuously exercised.
"""

from __future__ import annotations

import binascii
import json
import os
import shutil
import sys
import tempfile
import time
import zlib
from dataclasses import fields as dataclass_fields

from ..engine.result import SimResult
from ..obs import trace as obs_trace
from ..pipeline.stats import CoreStats, MLPMeter, PhaseStats, StallBreakdown
from .faults import active_injector

#: Record-layout version: bump when the serialised form changes.
#: v2: results carry per-phase attribution buckets (``phases``).
#: v3: results only (the ``warm`` and ``scenarios`` records are gone).
#: v4: each MLP meter is one packed string (see :func:`_pack_meter`),
#: and records carry no ``created`` timestamp.
STORE_SCHEMA = 4

#: Timing-semantics tag.  Bump in the same commit that regenerates
#: tests/engine/golden_stats.json.  History: "eh2" = the PR 2
#: event-horizon engine; "eh3" = the provably-complete horizon set
#: (leap == stepped on every cell; KNOWN_DIVERGENT emptied).
ENGINE_VERSION = "eh3"

#: ``REPRO_STORE`` values that disable the store (anything else is on).
_FALSEY = frozenset(("0", "false", "no", "off"))


def store_enabled() -> bool:
    """Is the disk store on?  ``REPRO_STORE`` (default on)."""
    return os.environ.get("REPRO_STORE", "").strip().lower() not in _FALSEY


def cache_dir() -> str:
    """Store root: ``REPRO_CACHE_DIR``, default ``.repro-cache``."""
    return os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"


# ----------------------------------------------------------------------
# SimResult <-> JSON payload
# ----------------------------------------------------------------------
#: Every scalar counter CoreStats records — derived from the dataclass
#: itself so a counter added later is serialised automatically (old
#: records then fail the round-trip shape check and recompute, rather
#: than silently dropping the new field).
_COMPOUND_STATS = ("stalls", "d_mlp", "l2_mlp")
_STAT_SCALARS = tuple(f.name for f in dataclass_fields(CoreStats)
                      if f.name not in _COMPOUND_STATS)
_STALL_FIELDS = tuple(f.name for f in dataclass_fields(StallBreakdown))
_PHASE_SCALARS = tuple(f.name for f in dataclass_fields(PhaseStats)
                       if f.name != "name")


def _payload(result: SimResult, meter_form) -> dict:
    """A result's payload, each MLP meter as ``meter_form`` writes it."""
    stats = result.stats
    payload = {name: getattr(stats, name) for name in _STAT_SCALARS}
    payload["stalls"] = {name: getattr(stats.stalls, name)
                         for name in _STALL_FIELDS}
    payload["d_mlp"] = meter_form(stats.d_mlp)
    payload["l2_mlp"] = meter_form(stats.l2_mlp)
    phases = result.phase_stats
    return {"model": result.model, "workload": result.workload,
            "stats": payload,
            "phases": None if phases is None else [
                {"name": p.name,
                 **{f: getattr(p, f) for f in _PHASE_SCALARS}}
                for p in phases
            ]}


def _meter_pairs(meter: MLPMeter) -> list:
    fills = meter._fills
    return [[start, end] for start, end in zip(fills[::2], fills[1::2])]


def _pack_meter(meter: MLPMeter) -> str:
    """A meter's record form: base64 of the zlib-compressed
    ``(start, end)`` pairs as little-endian int64.

    On the benchmark's ``miss-bound`` grid, zlib level 1 packs within
    4% of the default level's size in a fifth of its time, and both
    unpack equally fast.
    """
    fills = meter._fills
    if sys.byteorder == "big":
        fills = fills[:]  # swap a copy, not the live meter
        fills.byteswap()
    return binascii.b2a_base64(zlib.compress(fills.tobytes(), 1),
                               newline=False).decode("ascii")


def _unpack_meter(blob: str) -> MLPMeter:
    """Invert :func:`_pack_meter`, straight into the meter's array.

    Raises ``ValueError`` (``binascii.Error``), ``zlib.error`` or
    ``TypeError`` on a damaged blob.
    """
    raw = zlib.decompress(binascii.a2b_base64(blob, strict_mode=True))
    if len(raw) % 16:
        raise ValueError("MLP meter bytes are not whole int64 pairs")
    meter = MLPMeter()
    meter._fills.frombytes(raw)
    if sys.byteorder == "big":
        meter._fills.byteswap()
    return meter


def result_to_payload(result: SimResult) -> dict:
    """Every recorded statistic of a SimResult as plain JSON values.

    MLP meters keep their raw fill intervals (not the derived average),
    each a list of ``[start, end]`` pairs, so two results with equal
    payloads have equal ``count``/``average()``.  This is the form
    results are compared and digested in; a store record holds the
    same payload with each meter packed (:func:`_pack_meter`).
    """
    return _payload(result, _meter_pairs)


def payload_to_result(payload: dict) -> SimResult:
    """Rebuild a SimResult from a store record's payload.

    Reads the current record form only: :func:`result_to_payload`'s
    layout with each meter packed.  Raises on any shape mismatch —
    callers treat that as a corrupt record and fall back to
    recomputation.
    """
    raw = payload["stats"]
    stats = CoreStats(**{name: int(raw[name]) for name in _STAT_SCALARS})
    stats.stalls = StallBreakdown(**{name: int(raw["stalls"][name])
                                     for name in _STALL_FIELDS})
    stats.d_mlp = _unpack_meter(raw["d_mlp"])
    stats.l2_mlp = _unpack_meter(raw["l2_mlp"])
    raw_phases = payload["phases"]  # required key: absence = corrupt record
    phases = None if raw_phases is None else [
        PhaseStats(name=str(entry["name"]),
                   **{f: int(entry[f]) for f in _PHASE_SCALARS})
        for entry in raw_phases
    ]
    return SimResult(model=str(payload["model"]),
                     workload=str(payload["workload"]), stats=stats,
                     phase_stats=phases)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class ResultStore:
    """One on-disk store rooted at ``root``.

    All reads tolerate a missing, foreign, or damaged store: a failed
    lookup is a miss (or ``corrupt``), never an exception on the
    campaign path.  All writes are atomic (tmp file + rename) and
    best-effort — a read-only filesystem degrades to compute-only.
    """

    def __init__(self, root: str, *, schema: int = STORE_SCHEMA,
                 engine_version: str = ENGINE_VERSION) -> None:
        self.root = root
        self.schema = schema
        self.engine_version = engine_version
        self.version_dir = os.path.join(root, f"v{schema}", engine_version)
        # Session counters (this process, this instance).
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0
        self.quarantined = 0

    # -- paths ----------------------------------------------------------
    def _record_path(self, fp: str) -> str:
        return os.path.join(self.version_dir, "results", fp[:2], fp + ".json")

    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    # -- records --------------------------------------------------------
    def get_result(self, fp: str) -> SimResult | None:
        """The stored result for ``fp``, or ``None``.

        A missing record is a miss.  A record that does not open, names
        another key, schema or engine, or does not decode is ``corrupt``:
        it is quarantined (evidence, not mystery) so the recomputed
        record can take its place.  Only a decoded record is a hit.
        """
        path = self._record_path(fp)
        try:
            with open(path, encoding="utf-8") as handle:
                record = json.load(handle)
            if (record["fingerprint"] != fp
                    or record["schema"] != self.schema
                    or record["engine"] != self.engine_version):
                raise ValueError("record/key mismatch")
            result = payload_to_result(record["payload"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, zlib.error):
            self.corrupt += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def put_result(self, fp: str, result: SimResult) -> bool:
        """Atomically write ``fp``'s record; False when the store is
        unwritable.

        Same-directory tmp file + rename.  An active fault plan may
        deterministically mangle the record's bytes first
        (``store_truncate`` / ``store_corrupt``) — the torn write lands
        atomically, exactly like a crash mid-flush on a filesystem
        without rename atomicity would leave it.
        """
        with obs_trace.span("store.flush", fp=fp[:16]):
            path = self._record_path(fp)
            record = {"schema": self.schema, "engine": self.engine_version,
                      "fingerprint": fp,
                      "payload": _payload(result, _pack_meter)}
            data = json.dumps(record, separators=(",", ":"))
            injector = active_injector()
            if injector is not None:
                mangled = injector.mangle_record(data, path)
                if mangled is not None:
                    data = mangled
            directory = os.path.dirname(path)
            try:
                os.makedirs(directory, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as handle:
                        handle.write(data)
                    os.replace(tmp, path)
                except BaseException:
                    self._discard(tmp)
                    raise
            except OSError:
                return False
            self.writes += 1
            return True

    # -- quarantine -----------------------------------------------------
    def _quarantine(self, path: str) -> None:
        """Move a damaged record into ``quarantine/`` for post-mortem.

        The quarantined name flattens ``results/shard/record.json`` to
        ``results__shard__record.json`` so one flat directory holds them
        all; a repeat offender overwrites its previous capture.  If the
        move itself fails (read-only store), fall back to deletion so a
        recomputed record can still land.
        """
        try:
            rel = os.path.relpath(path, self.version_dir)
            name = rel.replace(os.sep, "__")
            qdir = self.quarantine_dir()
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, name))
            self.quarantined += 1
        except OSError:
            self._discard(path)

    def quarantine_entries(self) -> list[dict]:
        """Quarantined records, newest first: name, bytes, mtime."""
        entries = []
        qdir = self.quarantine_dir()
        try:
            names = os.listdir(qdir)
        except OSError:
            return []
        for name in names:
            path = os.path.join(qdir, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append({"name": name, "bytes": stat.st_size,
                            "mtime": stat.st_mtime})
        entries.sort(key=lambda e: e["mtime"], reverse=True)
        return entries

    def clear_quarantine(self) -> int:
        """Delete every quarantined record; returns the removed count."""
        removed = 0
        for entry in self.quarantine_entries():
            try:
                os.unlink(os.path.join(self.quarantine_dir(), entry["name"]))
                removed += 1
            except OSError:
                continue
        try:
            os.rmdir(self.quarantine_dir())
        except OSError:
            pass
        return removed

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- maintenance (the `repro cache` subcommand) --------------------
    @staticmethod
    def _iter_record_paths(version_dir: str):
        """Every record under one ``v<schema>/<engine>`` tree, whatever
        layout the version that wrote it used."""
        for parent, dirnames, names in os.walk(version_dir):
            dirnames.sort()
            for name in sorted(names):
                if name.endswith(".json"):
                    yield os.path.join(parent, name)

    def _version_dirs(self):
        """All ``(vN, engine)`` directories present under the root."""
        try:
            versions = sorted(os.listdir(self.root))
        except OSError:
            return
        for vname in versions:
            vdir = os.path.join(self.root, vname)
            if not (vname.startswith("v") and os.path.isdir(vdir)):
                continue
            try:
                engines = sorted(os.listdir(vdir))
            except OSError:
                continue
            for ename in engines:
                edir = os.path.join(vdir, ename)
                if os.path.isdir(edir):
                    yield vname, ename, edir

    def stats(self) -> dict:
        """Current-version entries and bytes, plus stale/quarantine totals."""
        current = {"entries": 0, "bytes": 0}
        stale = {"entries": 0, "bytes": 0}
        for vname, ename, edir in self._version_dirs():
            bucket = (current if vname == f"v{self.schema}"
                      and ename == self.engine_version else stale)
            for path in self._iter_record_paths(edir):
                try:
                    size = os.path.getsize(path)
                except OSError:
                    continue
                bucket["entries"] += 1
                bucket["bytes"] += size
        quarantined = self.quarantine_entries()
        quarantine = {"entries": len(quarantined),
                      "bytes": sum(e["bytes"] for e in quarantined)}
        return {
            "quarantine": quarantine,
            "root": os.path.abspath(self.root),
            "schema": self.schema,
            "engine": self.engine_version,
            "entries": current["entries"],
            "bytes": current["bytes"],
            "stale": stale,
        }

    def verify(self) -> dict:
        """Offline integrity scan of every current-version record.

        Reads each record through the same decode path campaigns use,
        so anything a campaign would reject — torn JSON, wrong
        fingerprint, shape drift — is quarantined *now* instead of at
        its next (possibly mid-campaign) lookup.  A store shared by
        several campaigns gets its health check without running a
        single job.
        """
        ok = quarantined = 0
        for path in list(self._iter_record_paths(self.version_dir)):
            fp = os.path.basename(path)[:-5]
            corrupt_before = self.corrupt
            if self.get_result(fp) is not None:
                ok += 1
            elif self.corrupt > corrupt_before:
                quarantined += 1
            # else: the record vanished mid-scan (concurrent gc/clear) —
            # nothing to verify, nothing to count.
        return {"root": os.path.abspath(self.root),
                "schema": self.schema,
                "engine": self.engine_version,
                "ok": ok,
                "quarantined": quarantined}

    def clear(self) -> int:
        """Delete every record (all schemas/engines); removed file count.

        Only store-owned entries (``v*`` version trees and the
        quarantine directory) are touched, so a mis-pointed
        ``REPRO_CACHE_DIR`` can not take unrelated files with it.
        """
        removed = self.clear_quarantine()
        for _vname, _ename, edir in list(self._version_dirs()):
            removed += sum(1 for _ in self._iter_record_paths(edir))
        for vname in list(os.listdir(self.root)) if os.path.isdir(self.root) else []:
            if vname.startswith("v") and os.path.isdir(os.path.join(self.root, vname)):
                shutil.rmtree(os.path.join(self.root, vname),
                              ignore_errors=True)
        try:
            os.rmdir(self.root)
        except OSError:
            pass
        return removed

    def gc(self, older_than_days: float) -> dict:
        """Remove stale-version trees and current records past their age.

        ``older_than_days`` applies (by mtime) to records of the current
        schema/engine; records written by any *other* schema or engine
        version are unreachable garbage and go unconditionally.
        """
        cutoff = time.time() - older_than_days * 86400.0
        removed = {"stale": 0, "expired": 0}
        for vname, ename, edir in list(self._version_dirs()):
            if vname == f"v{self.schema}" and ename == self.engine_version:
                for path in list(self._iter_record_paths(edir)):
                    try:
                        if os.path.getmtime(path) < cutoff:
                            os.unlink(path)
                            removed["expired"] += 1
                    except OSError:
                        continue
                continue
            removed["stale"] += sum(1 for _ in self._iter_record_paths(edir))
            shutil.rmtree(edir, ignore_errors=True)
        # Prune directories the removals emptied — but only inside the
        # store-owned v* trees: a mis-pointed REPRO_CACHE_DIR must not
        # lose unrelated (empty) directories to gc.
        for vname in sorted(os.listdir(self.root)) if os.path.isdir(self.root) else []:
            vdir = os.path.join(self.root, vname)
            if not (vname.startswith("v") and os.path.isdir(vdir)):
                continue
            for parent, dirnames, filenames in os.walk(vdir, topdown=False):
                if not dirnames and not filenames:
                    try:
                        os.rmdir(parent)
                    except OSError:
                        pass
        return removed


# ----------------------------------------------------------------------
# the process-wide store (resolved from the environment)
# ----------------------------------------------------------------------
_ACTIVE: dict[str, ResultStore] = {}


def default_store() -> ResultStore | None:
    """The environment's store, or ``None`` when disabled.

    One instance per resolved root, so session counters survive across
    campaigns while tests that repoint ``REPRO_CACHE_DIR`` get a fresh,
    hermetic instance.
    """
    if not store_enabled():
        return None
    root = os.path.abspath(cache_dir())
    store = _ACTIVE.get(root)
    if store is None:
        store = _ACTIVE[root] = ResultStore(root)
    return store


def resolve_store(store) -> ResultStore | None:
    """Normalise a ``store=`` argument used across the harness layers.

    ``None``/``True`` -> the environment's store (:func:`default_store`),
    ``False`` -> no store, a :class:`ResultStore` -> itself.
    """
    if store is False:
        return None
    if store is None or store is True:
        return default_store()
    return store
