"""Crash-safe snapshots and deterministic-replay hashing.

This module turns the kernel's reproducibility contract ("runs are
exactly reproducible", :mod:`repro.sim.kernel`) into checkable
machinery:

``capture_state``
    Collects the full mutable state of a (``Simulator``, ``Network``)
    pair through the component :meth:`state_dict` protocol (the
    simulator's part includes its id allocators) and *freezes* it with
    a single pickle
    round-trip.  The single pass is essential: a flit can sit in a link
    pipe while its packet is tracked by the source NI and its connection
    record lives in two manager dicts — one pickling pass preserves all
    of that sharing, per-component copies would not.

``restore_state``
    Loads a captured tree onto a freshly *rebuilt* simulator/network
    pair (same config, same seed, same construction path).  Wiring —
    links, callbacks, shared controller references — is never
    serialized; it is recreated by construction and only mutable state
    is overwritten.  The RNG bit-generator state is restored in place so
    every component holding ``sim.rng`` keeps a valid reference.

``state_hash``
    A canonical SHA-256 over a captured tree.  Two trees hash equal iff
    they are structurally identical (including object-sharing topology),
    which is what the ``repro verify-replay`` command and the property
    tests compare.

``save_snapshot`` / ``load_snapshot`` / ``CheckpointManager``
    On-disk format with a checksummed header, atomic tmp-file + rename
    writes, corruption detection on load and automatic fallback to the
    previous good snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from collections import deque
from enum import Enum
from typing import Dict, List, NamedTuple, Optional

import numpy as np

#: bump when the capture tree layout changes incompatibly
SNAPSHOT_VERSION = 2

#: file magic; the trailing newline keeps the header line-oriented
MAGIC = b"RSNP1\n"


class SnapshotError(RuntimeError):
    """Base error for snapshot serialization problems."""


class SnapshotCorruptError(SnapshotError):
    """A snapshot file failed validation (magic/header/checksum)."""


# ---------------------------------------------------------------------------
# checksum / durable-write surface (shared with repro.harness.store)
# ---------------------------------------------------------------------------
def sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 of *data* — the checksum used everywhere on disk."""
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str, chunk: int = 1 << 20) -> str:
    """Hex SHA-256 of a file's contents, streamed in *chunk* blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Durable atomic write: tmp file + flush + fsync + rename.

    The rename is additionally made durable by fsyncing the containing
    directory (best effort — not all filesystems support it), so a
    crash immediately after this returns cannot lose the rename.
    A crash at any earlier moment leaves at most a stray ``*.tmp``
    file; the final name is never visible half-written.
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:  # pragma: no cover - platform dependent
        dfd = os.open(os.path.dirname(path), os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# capture / restore
# ---------------------------------------------------------------------------
def capture_state(sim, net) -> Dict:
    """Capture the full mutable state of *sim* + *net* as a frozen tree.

    The returned tree is decoupled from the live objects (mutating the
    simulation afterwards does not change it) and is what
    :func:`state_hash`, :func:`save_snapshot` and :func:`restore_state`
    operate on.
    """
    tree = {
        "format": SNAPSHOT_VERSION,
        "sim": sim.state_dict(),
        "net": net.state_dict(),
    }
    return _freeze(tree)


def restore_state(sim, net, tree: Dict) -> None:
    """Load a captured *tree* onto *sim* and *net*.

    *sim*/*net* must have been rebuilt through the same construction
    path (same config and seed) as the pair the tree was captured from;
    only mutable state is overwritten, wiring is left as constructed.
    The caller's *tree* is not consumed — a private frozen copy is
    loaded, so the same tree can be restored multiple times (and hashed
    afterwards) without aliasing live simulation objects.
    """
    if tree.get("format") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot format {tree.get('format')!r} != {SNAPSHOT_VERSION}")
    tree = _freeze(tree)
    sim.load_state_dict(tree["sim"])
    net.load_state_dict(tree["net"])
    # sleep flags are scheduler metadata, not state: after a restore every
    # object must re-evaluate its quiescence from the loaded state
    sim.wake_all()


def _freeze(tree: Dict) -> Dict:
    """Deep-copy *tree* via one pickle round-trip, preserving sharing."""
    try:
        return pickle.loads(pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # unpicklable leak (closure, generator, ...)
        raise SnapshotError(f"state tree is not picklable: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical state hash
# ---------------------------------------------------------------------------
def state_hash(tree: Dict) -> str:
    """Canonical SHA-256 hex digest of a captured state tree.

    Encoding rules (documented in ARCHITECTURE.md):

    * scalars encode as a type tag + value; floats by IEEE-754 bits so
      ``-0.0`` != ``0.0`` and NaN hashes stably,
    * dicts encode in insertion order (both sides of every comparison
      are pickle round-trips of same-process state, and pickle preserves
      insertion order), sets in sorted order,
    * containers and objects are memoized by identity: the first visit
      emits content, later visits emit a back-reference — so the
      object-*sharing* topology is part of the hash,
    * objects encode their class name plus all ``__slots__`` (walking
      the MRO) and ``__dict__`` attributes, attribute names sorted,
    * callables raise ``TypeError`` — a closure in a state tree is a
      serialization leak and should fail loudly.
    """
    h = hashlib.sha256()
    _encode(tree, h, {}, "$")
    return h.hexdigest()


def _encode(obj, h, memo: Dict[int, int], path: str) -> None:
    # scalars first: never memoized (small ints / interned strings share
    # identity without sharing meaning)
    if obj is None:
        h.update(b"N")
        return
    if obj is True:
        h.update(b"T")
        return
    if obj is False:
        h.update(b"F")
        return
    t = type(obj)
    if t is int:
        h.update(b"i" + str(obj).encode())
        return
    if t is float:
        h.update(b"f" + struct.pack("<d", obj))
        return
    if t is str:
        b = obj.encode("utf-8")
        h.update(b"s" + str(len(b)).encode() + b":")
        h.update(b)
        return
    if t is bytes:
        h.update(b"b" + str(len(obj)).encode() + b":")
        h.update(obj)
        return
    if isinstance(obj, Enum):
        # catches IntEnum too (its type is not int)
        h.update(b"E" + type(obj).__name__.encode() + b"." + obj.name.encode())
        return
    if isinstance(obj, np.generic):
        _encode(obj.item(), h, memo, path)
        return

    # containers / objects: memoized by identity so shared references
    # hash as back-refs and cycles terminate
    oid = id(obj)
    if oid in memo:
        h.update(b"@" + str(memo[oid]).encode())
        return
    memo[oid] = len(memo)

    if t is dict:
        h.update(b"D" + str(len(obj)).encode() + b"{")
        for k, v in obj.items():
            _encode(k, h, memo, path)
            h.update(b"=")
            _encode(v, h, memo, path + f".{k!r}")
        h.update(b"}")
        return
    if t in (list, tuple, deque):
        tag = {list: b"L", tuple: b"U", deque: b"Q"}[t]
        h.update(tag + str(len(obj)).encode() + b"[")
        for i, v in enumerate(obj):
            _encode(v, h, memo, path + f"[{i}]")
        h.update(b"]")
        return
    if t in (set, frozenset):
        h.update(b"S" + str(len(obj)).encode() + b"{")
        for v in sorted(obj, key=repr):
            _encode(v, h, memo, path)
        h.update(b"}")
        return
    if t is np.ndarray:
        h.update(b"A" + str(obj.dtype).encode() + b":"
                 + str(obj.shape).encode() + b":")
        h.update(np.ascontiguousarray(obj).tobytes())
        return
    if callable(obj) and not hasattr(obj, "__slots__") \
            and not hasattr(obj, "__dict__"):
        raise TypeError(f"unhashable callable in state tree at {path}: {obj!r}")

    # generic object: class + slots-chain + __dict__, names sorted
    names: List[str] = []
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                names.append(name)
    d = getattr(obj, "__dict__", None)
    if d is not None:
        names.extend(d.keys())
    if not names and callable(obj):
        raise TypeError(f"unhashable callable in state tree at {path}: {obj!r}")
    h.update(b"O" + type(obj).__name__.encode() + b"(")
    for name in sorted(set(names)):
        value = getattr(obj, name)
        if callable(value) and not isinstance(value, type):
            raise TypeError(
                f"callable attribute in state tree at {path}.{name}: "
                f"{value!r} — exclude it from state_dict()")
        h.update(name.encode() + b"=")
        _encode(value, h, memo, path + f".{name}")
    h.update(b")")


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------
def save_snapshot(path: str, tree: Dict, cycle: int,
                  meta: Optional[Dict] = None) -> str:
    """Atomically write *tree* to *path*.

    Layout: ``MAGIC`` + one JSON header line (version, cycle, payload
    SHA-256 + byte count, caller metadata) + the pickle payload.  The
    write goes to a tmp file in the same directory, is flushed + fsynced
    and then renamed over *path*, so a crash mid-write never leaves a
    half-written file under the final name.
    """
    payload = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": SNAPSHOT_VERSION,
        "cycle": int(cycle),
        "sha256": sha256_bytes(payload),
        "payload_bytes": len(payload),
        "meta": meta or {},
    }
    blob = MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
    atomic_write_bytes(path, blob)
    return path


def load_snapshot(path: str) -> "LoadedSnapshot":
    """Read and validate a snapshot file.

    Raises :class:`SnapshotCorruptError` on bad magic, unparseable
    header, truncated payload or checksum mismatch.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotCorruptError(f"{path}: unreadable: {exc}") from exc
    if not blob.startswith(MAGIC):
        raise SnapshotCorruptError(f"{path}: bad magic")
    rest = blob[len(MAGIC):]
    nl = rest.find(b"\n")
    if nl < 0:
        raise SnapshotCorruptError(f"{path}: truncated header")
    try:
        header = json.loads(rest[:nl])
    except ValueError as exc:
        raise SnapshotCorruptError(f"{path}: bad header: {exc}") from exc
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotCorruptError(
            f"{path}: snapshot version {header.get('version')!r} "
            f"!= {SNAPSHOT_VERSION}")
    payload = rest[nl + 1:]
    if len(payload) != header.get("payload_bytes"):
        raise SnapshotCorruptError(
            f"{path}: payload truncated ({len(payload)} bytes, header "
            f"says {header.get('payload_bytes')})")
    if sha256_bytes(payload) != header.get("sha256"):
        raise SnapshotCorruptError(f"{path}: checksum mismatch")
    try:
        tree = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotCorruptError(f"{path}: unpicklable payload: {exc}") from exc
    return LoadedSnapshot(path=path, header=header, tree=tree)


class LoadedSnapshot(NamedTuple):
    path: str
    header: Dict
    tree: Dict


class CheckpointManager:
    """Rotating on-disk checkpoints with corrupt-file fallback.

    ``save`` writes ``ckpt-{cycle:012d}.rsnap`` atomically and prunes to
    the newest *keep* files; ``load_latest`` tries snapshots newest
    first, records any corrupt ones in :attr:`errors` and returns the
    first that validates (or None when none do).
    """

    def __init__(self, directory: str, keep: int = 2) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = directory
        self.keep = keep
        self.errors: List[str] = []
        os.makedirs(directory, exist_ok=True)

    def _path(self, cycle: int) -> str:
        return os.path.join(self.directory, f"ckpt-{cycle:012d}.rsnap")

    def list_snapshots(self) -> List[str]:
        """Snapshot paths, oldest first (names sort by cycle)."""
        names = sorted(n for n in os.listdir(self.directory)
                       if n.startswith("ckpt-") and n.endswith(".rsnap"))
        return [os.path.join(self.directory, n) for n in names]

    def save(self, tree: Dict, cycle: int,
             meta: Optional[Dict] = None) -> str:
        path = save_snapshot(self._path(cycle), tree, cycle, meta)
        self._prune()
        return path

    def _prune(self) -> None:
        snaps = self.list_snapshots()
        for path in snaps[:-self.keep]:
            try:
                os.remove(path)
            except OSError:
                pass

    def load_latest(self) -> Optional[LoadedSnapshot]:
        for path in reversed(self.list_snapshots()):
            try:
                return load_snapshot(path)
            except SnapshotCorruptError as exc:
                self.errors.append(str(exc))
        return None
