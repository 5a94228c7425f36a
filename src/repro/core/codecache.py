"""Content-addressed persistent cache: the stack's one key scheme and layout.

This is the only module that builds a content key, shards a path,
writes JSON atomically or reads a torn file as a miss.  Its consumers:
tier-2 basic-block translation (:mod:`repro.cpu.translate`) and the
compiled RTL backends (:mod:`repro.rtl.compile`, :mod:`repro.rtl.batched`),
which code-generate Python source as a pure function of their inputs,
so the same firmware explored by forty DSE workers is generated *once
per host, ever*; the Fig. 7 evaluator
(:class:`repro.dse.runner.Fig7Evaluator`), which keeps one evaluation
record per ``code_key("dse-eval", ...)``; and the study store
(:mod:`repro.dse.store`), which takes its keys and atomic writer from
here.

:class:`CodeCache` stores JSON value documents keyed by a SHA-256 of
the canonical JSON of their inputs, one file per key at
``root/<key[:2]>/<key>.json``, fronted by an in-process dict so the
disk is touched once per key per process.  Corrupt, torn, or
foreign-schema files read as misses — a broken shard costs one
re-generation, never an exception.  Generated code is stored as
*source text*, never code objects: every consumer re-``exec``-utes it
and re-binds its own live objects, so any process can consume any
other's entries.

A process-wide default cache is configured with :func:`configure` or
the ``REPRO_CODECACHE_DIR`` environment variable; ``None`` means
in-memory only (still deduplicates within the process).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

CODECACHE_SCHEMA_VERSION = 1

#: Sentinel distinguishing "no entry" from a cached falsy value.
MISS = object()


def canonical_payload(payload):
    """The canonical JSON text hashed into a cache key."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)


def content_key(payload):
    """SHA-256 hex digest of ``payload``: raw bytes as given, anything
    else through its :func:`canonical_payload` text."""
    if not isinstance(payload, bytes):
        payload = canonical_payload(payload).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def code_key(kind, payload):
    """Content-address one generator invocation: its kind + inputs."""
    return content_key({"kind": kind, "schema": CODECACHE_SCHEMA_VERSION,
                        "payload": payload})


def atomic_write_json(path, payload):
    """Publish ``payload`` at ``path`` atomically (temp file + rename):
    concurrent readers see the old file or the new one, never half of
    one."""
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


class CodeCacheStats:
    """Hit/miss/store tallies, split by layer (memory vs disk)."""

    __slots__ = ("memory_hits", "disk_hits", "misses", "stores")

    def __init__(self):
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    @property
    def hits(self):
        return self.memory_hits + self.disk_hits

    def as_dict(self):
        return {"memory_hits": self.memory_hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "stores": self.stores}


class CodeCache:
    """Two-layer (dict + sharded JSON files) generated-source cache.

    ``cache_dir=None`` keeps entries in memory only — the process still
    deduplicates repeat generations, but nothing persists.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self._memory = {}
        self.stats = CodeCacheStats()

    # --- lookup --------------------------------------------------------------------
    def get(self, key):
        """The cached value document for ``key``, or :data:`MISS`."""
        if key in self._memory:
            self.stats.memory_hits += 1
            return self._memory[key]
        if self.cache_dir is not None:
            value = self._load(key)
            if value is not MISS:
                self._memory[key] = value
                self.stats.disk_hits += 1
                return value
        self.stats.misses += 1
        return MISS

    def put(self, key, value):
        """Store a JSON-serializable value document under ``key``."""
        self._memory[key] = value
        self.stats.stores += 1
        if self.cache_dir is not None:
            self._store(key, value)
        return value

    def __len__(self):
        return len(self._memory)

    # --- disk layer -----------------------------------------------------------------
    def _path(self, key):
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    def _load(self, key):
        try:
            with open(self._path(key)) as handle:
                document = json.load(handle)
            if not isinstance(document, dict):
                return MISS
            if document.get("schema") != CODECACHE_SCHEMA_VERSION:
                return MISS
            return document["value"]
        except (OSError, ValueError, KeyError, TypeError):
            return MISS

    def _store(self, key, value):
        try:
            atomic_write_json(self._path(key), {
                "schema": CODECACHE_SCHEMA_VERSION, "key": key,
                "value": value})
        except OSError:
            pass  # unwritable cache dir: stay in-memory only


# --- the process-wide default ---------------------------------------------------
_default_cache = None


def default_cache():
    """The process-wide :class:`CodeCache` (created on first use from
    ``REPRO_CODECACHE_DIR``, in-memory if unset)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = CodeCache(os.environ.get("REPRO_CODECACHE_DIR")
                                   or None)
    return _default_cache


def configure(cache_dir):
    """Point the process-wide cache at ``cache_dir`` (None = in-memory).

    Returns the new cache.  Existing consumers that captured the old
    default keep it; new :func:`default_cache` calls see this one.
    """
    global _default_cache
    _default_cache = CodeCache(cache_dir)
    return _default_cache
