"""On-disk parsed-module cache keyed by source digest.

The benchmark harnesses and CI re-compile the same corpus dozens of
times per run — the frontend (lex → parse → analyze → lower → verify)
dominates Table 3's build times.  This cache stores the *lowered,
verified* module as a pickle keyed by the blake2b digest of the source
text, so the second compile of identical source is one unpickle.

Invalidation rules:

- the digest covers the source text, the module name, the
  :func:`code_fingerprint` of the ``repro`` sources (any edit to the
  frontend, IR or porter invalidates every entry — no hand-bumped
  version tag to forget) and the running Python's ``major.minor``
  (pickles are not guaranteed portable across versions);
- a corrupt, truncated or unpicklable entry is treated as a miss and
  recompiled — the cache can be deleted at any time;
- entries are written atomically (tempfile + rename) so concurrent
  port workers sharing a cache directory never observe partial files.

Callers always get a *fresh* module object: the in-memory layer keeps
the pickled bytes, not the module, and every hit re-unpickles.  The
pipeline mutates modules in place (inlining, atomization), so handing
out a shared instance would poison later hits.

The cache is off unless explicitly enabled — pass ``cache=True`` or
set ``ATOMIG_FRONTEND_CACHE=1``; ``ATOMIG_CACHE_DIR`` overrides the
default ``~/.cache/atomig`` directory.  Timing benchmarks that want
honest build times must leave it off.

``ATOMIG_CACHE_MAX_MB`` bounds the on-disk size: after every store the
oldest entries by mtime are evicted (LRU — disk hits refresh mtime)
until the directory fits.  Unset means unbounded, which is fine for
one-shot CLI runs but turns into a leak under a long-lived daemon
(:mod:`repro.serve`), so the serve quickstart sets it.
"""

import functools
import hashlib
import os
import pickle
import sys
import tempfile

_ENV_ENABLE = "ATOMIG_FRONTEND_CACHE"
_ENV_DIR = "ATOMIG_CACHE_DIR"
_ENV_MAX_MB = "ATOMIG_CACHE_MAX_MB"

#: digest -> pickled module bytes (per-process layer over the disk).
_memory = {}


def cache_enabled():
    """True when the environment opts into the frontend cache."""
    return os.environ.get(_ENV_ENABLE, "").strip() not in ("", "0", "false")


def cache_dir():
    """Directory holding on-disk entries (created lazily)."""
    configured = os.environ.get(_ENV_DIR, "").strip()
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "atomig")


@functools.cache
def code_fingerprint():
    """blake2b over every ``.py`` file of the ``repro`` package.

    Computed once per process.  Mixed into :func:`source_digest`, so
    both this cache and the serve daemon's dedup index
    (:func:`repro.serve.queue.job_dedup_key`) are keyed on the code
    that produced a result: a checkout with any changed source never
    serves an entry the old code computed.
    """
    root = os.path.dirname(os.path.abspath(__file__))
    paths = []
    for directory, _subdirs, files in os.walk(root):
        paths += [
            os.path.join(directory, name)
            for name in files if name.endswith(".py")
        ]
    hasher = hashlib.blake2b(digest_size=16)
    for path in sorted(paths):
        hasher.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as handle:
            hasher.update(handle.read())
        hasher.update(b"\0")
    return hasher.hexdigest()


def source_digest(source, name="module"):
    """Stable cache key for one (source, module-name) compile."""
    hasher = hashlib.blake2b(digest_size=20)
    hasher.update(
        f"{code_fingerprint()}:py{sys.version_info[0]}."
        f"{sys.version_info[1]}:{name}:".encode()
    )
    hasher.update(source.encode())
    return hasher.hexdigest()


def clear_memory_cache():
    """Drop the per-process layer (tests; bounded-memory callers)."""
    _memory.clear()


def _entry_path(digest):
    return os.path.join(cache_dir(), f"{digest}.pkl")


def load(digest):
    """Fresh module for ``digest`` or ``None`` on miss/corruption."""
    blob = _memory.get(digest)
    if blob is None:
        try:
            with open(_entry_path(digest), "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        _memory[digest] = blob
        try:
            # Refresh mtime so size eviction is LRU, not FIFO.
            os.utime(_entry_path(digest))
        except OSError:
            pass
    try:
        return pickle.loads(blob)
    except Exception:
        # Corrupt or stale entry: forget it and recompile.
        _memory.pop(digest, None)
        try:
            os.unlink(_entry_path(digest))
        except OSError:
            pass
        return None


def store(digest, module):
    """Pickle ``module`` under ``digest`` (atomic write; best effort)."""
    try:
        blob = pickle.dumps(module, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        # RecursionError on very deep IR graphs, unpicklable metadata:
        # skip caching, the compile result is still returned.
        return False
    _memory[digest] = blob
    directory = cache_dir()
    try:
        os.makedirs(directory, exist_ok=True)
        handle, temp_path = tempfile.mkstemp(
            dir=directory, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.write(blob)
            os.replace(temp_path, _entry_path(digest))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
    except OSError:
        return False  # read-only disk etc.: memory layer still works
    evict()
    return True


def cache_max_bytes():
    """Size limit from ``ATOMIG_CACHE_MAX_MB``; ``None`` = unbounded."""
    raw = os.environ.get(_ENV_MAX_MB, "").strip()
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        return None
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def evict(max_bytes=None):
    """Delete least-recently-used entries until the cache fits.

    ``max_bytes=None`` reads ``ATOMIG_CACHE_MAX_MB`` and is a no-op
    when unset, so one-shot CLI runs pay nothing.  Eviction is LRU by
    mtime (:func:`load` touches entries on disk hits).  Returns the
    number of entries removed; races with concurrent workers are
    benign — a vanished file is just skipped, and the entry would be
    recompiled on the next miss anyway.
    """
    if max_bytes is None:
        max_bytes = cache_max_bytes()
    if max_bytes is None:
        return 0
    directory = cache_dir()
    entries = []
    total = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".pkl"):
            continue
        path = os.path.join(directory, name)
        try:
            status = os.stat(path)
        except OSError:
            continue
        entries.append((status.st_mtime, status.st_size, path))
        total += status.st_size
    if total <= max_bytes:
        return 0
    removed = 0
    for _mtime, size, path in sorted(entries):
        if total <= max_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        removed += 1
    return removed
