"""The on-disk artifact store: stamped, content-addressed, crash-tolerant.

:class:`ArtifactStore` is a directory of pickled artifacts addressed by
``(kind, key)`` where *key* is a content hash (a structural fingerprint of
the model that produced the artifact).  The design goals, in order:

* **correct under version skew** — every artifact starts with a magic line
  and a JSON *stamp* (store schema revision, repro version, Python
  major.minor).  The stamp is checked **before** anything is unpickled, so
  an artifact written by a different repro or Python simply misses (and is
  removed) instead of deserialising into the wrong shapes;
* **crash-tolerant** — a corrupt, truncated, unreadable or wrong-type
  artifact is never an error: :meth:`load` returns ``None`` (counting it)
  and best-effort-unlinks the file, and the caller recomputes and
  republishes.  A cache must never be able to break a build;
* **safe under concurrent writers** — artifacts are written to a temporary
  file in the same directory and published with an atomic ``os.replace``
  under an advisory ``flock`` on ``<root>/.lock``, so two processes racing
  on one key both end up with a complete artifact (last writer wins; both
  wrote identical bytes anyway, the key is a content hash);
* **bounded** — :meth:`prune` evicts least-recently-*used* artifacts
  (mtime order; :meth:`load` bumps the mtime on every hit) until the store
  fits a size budget.

The store location resolves, in order: an explicit ``root=`` argument, the
``REPRO_CACHE_DIR`` environment variable, ``$XDG_CACHE_HOME/repro``, and
finally ``~/.cache/repro``.  Setting ``REPRO_CACHE_DISABLE=1`` makes
:func:`resolve_store` return ``None`` for boolean settings, turning every
would-be cache user into a plain recompute path.  Loading unpickles, so
:func:`resolve_store` also refuses a default root that another user owns or
that group or others may write (one ``RuntimeWarning``, store disabled),
and creates a missing one private (mode ``0o700``).
"""

from __future__ import annotations

import io
import json
import os
import pickle
import stat
import sys
import tempfile
import threading
import warnings
from typing import Any, Dict, Iterator, List, Optional, Tuple

try:  # advisory locking is POSIX-only; the store degrades without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ArtifactStore",
    "SCHEMA_REV",
    "default_cache_dir",
    "default_store",
    "resolve_store",
]

#: Revision of the on-disk artifact layout.  Bump whenever the payload
#: structure of any artifact kind changes incompatibly: stamped artifacts
#: from other revisions miss instead of deserialising wrong.
SCHEMA_REV = 1

#: First line of every artifact file; anything else is not an artifact.
_MAGIC = b"repro-artifact\n"


def _repro_version() -> str:
    """The repro package version, imported lazily (the package imports us)."""
    from .. import __version__

    return __version__


def _stamp() -> Dict[str, Any]:
    """The version/ABI stamp written into (and checked against) artifacts."""
    return {
        "schema": SCHEMA_REV,
        "repro": _repro_version(),
        "python": "%d.%d" % sys.version_info[:2],
    }


def default_cache_dir() -> str:
    """The store root used when none is given explicitly.

    ``REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/repro``, then
    ``~/.cache/repro`` — the conventional per-user cache locations.
    """
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return os.path.join(xdg, "repro")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def default_store() -> "ArtifactStore":
    """A store over :func:`default_cache_dir` (fresh instance, own counters)."""
    return ArtifactStore(default_cache_dir())


def _unsafe_root(root: str) -> Optional[str]:
    """Why *root* must not back the default store, or ``None`` when it may.

    A missing root is created with mode ``0o700``.  An existing one must be
    a directory owned by the current user and not writable by group or
    others: anyone who can plant a file there could make us unpickle it.
    """
    try:
        os.makedirs(root, mode=0o700)
    except FileExistsError:
        pass
    except OSError as exc:
        return f"cannot be created ({exc.strerror or exc})"
    try:
        status = os.stat(root)
    except OSError as exc:
        return f"cannot be inspected ({exc.strerror or exc})"
    if not stat.S_ISDIR(status.st_mode):
        return "is not a directory"
    if hasattr(os, "getuid") and status.st_uid != os.getuid():
        return "is owned by another user"
    if status.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return "is writable by group or others"
    return None


def resolve_store(setting: Any) -> Optional["ArtifactStore"]:
    """Coerce a ``store=`` option into an :class:`ArtifactStore` or ``None``.

    ``None``/``False`` disable persistence.  ``True`` means "the default
    per-user store", except that it gives ``None`` when
    ``REPRO_CACHE_DISABLE`` is set (one environment variable neutralises
    every cache user — CI and bisections rely on that) or when the default
    root is unsafe (see :func:`_unsafe_root`; one ``RuntimeWarning`` names
    the path).  An :class:`ArtifactStore` instance is returned as-is: its
    root is the caller's choice.
    """
    if setting is None or setting is False:
        return None
    if setting is True:
        if os.environ.get("REPRO_CACHE_DISABLE"):
            return None
        root = default_cache_dir()
        reason = _unsafe_root(root)
        if reason is not None:
            warnings.warn(
                f"persistent cache disabled: {root} {reason}", RuntimeWarning, stacklevel=2
            )
            return None
        return ArtifactStore(root)
    if isinstance(setting, ArtifactStore):
        return setting
    raise TypeError(
        f"store= must be None, a bool or an ArtifactStore, got {type(setting).__name__}"
    )


class ArtifactStore:
    """A stamped, content-addressed pickle store under one root directory.

    Layout: ``<root>/<kind>/<key[:2]>/<key>.pkl`` — two-character fan-out
    keeps directories small under hex-digest keys.  All methods are safe to
    call concurrently from threads and from multiple processes over the
    same root; see the module docstring for the publication protocol.
    Counters (:attr:`hits`, :attr:`misses`, :attr:`writes`,
    :attr:`corrupt`, :attr:`stale`, :attr:`write_errors`) are per-instance
    and surface through :meth:`stats`.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = os.path.abspath(root or default_cache_dir())
        self._counter_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        self.stale = 0
        self.write_errors = 0

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> str:
        """The artifact path of ``(kind, key)`` (the file may not exist)."""
        if not key or any(sep in key for sep in (os.sep, "/", "..")):
            raise ValueError(f"invalid artifact key {key!r}")
        return os.path.join(self.root, kind, key[:2], key + ".pkl")

    def _count(self, name: str) -> None:
        with self._counter_lock:
            setattr(self, name, getattr(self, name) + 1)

    # ------------------------------------------------------------------
    # load (crash-tolerant)
    # ------------------------------------------------------------------
    def load(self, kind: str, key: str) -> Optional[Any]:
        """The artifact under ``(kind, key)``, or ``None`` on any problem.

        The stamp is validated before the payload is unpickled: a stamp
        from another schema revision, repro version or Python counts as
        *stale*; a short, unparseable or unreadable file counts as
        *corrupt*.  Both are removed best-effort and miss — the caller
        recomputes and overwrites.  Hits bump the file mtime, which is the
        LRU clock :meth:`prune` evicts by.
        """
        path = self.path_for(kind, key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError:
            # Unreadable (permissions, path component is a file, I/O error):
            # treat as corrupt; removal below is best-effort anyway.
            self._count("corrupt")
            self._count("misses")
            self._unlink(path)
            return None
        try:
            payload = self._parse(data)
        except _Stale:
            self._count("stale")
            self._count("misses")
            self._unlink(path)
            return None
        except Exception:
            self._count("corrupt")
            self._count("misses")
            self._unlink(path)
            return None
        self._count("hits")
        try:
            os.utime(path, None)  # LRU clock for prune()
        except OSError:
            pass
        return payload

    @staticmethod
    def _parse(data: bytes) -> Any:
        """Split magic + stamp + payload, checking the stamp before unpickling."""
        if not data.startswith(_MAGIC):
            raise ValueError("bad magic")
        body = data[len(_MAGIC):]
        newline = body.index(b"\n")  # ValueError when truncated inside the stamp
        stamp = json.loads(body[:newline].decode("utf-8"))
        if stamp != _stamp():
            raise _Stale()
        return pickle.loads(body[newline + 1:])

    def _unlink(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # save (atomic publish)
    # ------------------------------------------------------------------
    def save(self, kind: str, key: str, artifact: Any) -> bool:
        """Publish *artifact* under ``(kind, key)``; ``False`` on any failure.

        Failures (unpicklable artifact, full disk, unwritable root) are
        counted in :attr:`write_errors` and swallowed: persistence is an
        optimisation, never a correctness requirement.
        """
        try:
            payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self._count("write_errors")
            return False
        stamp_line = json.dumps(_stamp(), sort_keys=True).encode("utf-8") + b"\n"
        path = self.path_for(kind, key)
        try:
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            with self._locked():
                descriptor, temp_path = tempfile.mkstemp(
                    prefix=".tmp-" + key[:8] + "-", dir=directory
                )
                try:
                    with os.fdopen(descriptor, "wb") as handle:
                        handle.write(_MAGIC)
                        handle.write(stamp_line)
                        handle.write(payload)
                    os.replace(temp_path, path)
                except BaseException:
                    self._unlink(temp_path)
                    raise
        except OSError:
            self._count("write_errors")
            return False
        self._count("writes")
        return True

    def _locked(self):
        """Advisory exclusive lock on ``<root>/.lock`` (no-op without fcntl)."""
        return _StoreLock(os.path.join(self.root, ".lock"))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _artifacts(self) -> Iterator[str]:
        """Every artifact path currently in the store."""
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".pkl"):
                    yield os.path.join(dirpath, name)

    def delete(self, kind: str, key: str) -> bool:
        """Remove one artifact; ``True`` when something was removed."""
        path = self.path_for(kind, key)
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def clear(self) -> int:
        """Remove every artifact (counters survive); returns the number removed."""
        removed = 0
        for path in list(self._artifacts()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_size_mb: float) -> int:
        """Evict least-recently-used artifacts until the store fits the budget.

        "Used" is file mtime — bumped by every :meth:`load` hit — so warm
        artifacts survive and long-forgotten ones go first.  Returns the
        number of artifacts removed.  Concurrent loaders racing a prune
        simply miss and recompute, like any other eviction.
        """
        budget = max(0.0, max_size_mb) * 1024 * 1024
        entries: List[Tuple[float, int, str]] = []
        for path in self._artifacts():
            try:
                status = os.stat(path)
            except OSError:
                continue
            entries.append((status.st_mtime, status.st_size, path))
        total = sum(size for _mtime, size, _path in entries)
        removed = 0
        for _mtime, size, path in sorted(entries):  # oldest first
            if total <= budget:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counters plus an on-disk census (entries and bytes per kind)."""
        kinds: Dict[str, Dict[str, int]] = {}
        total_bytes = 0
        entries = 0
        for path in self._artifacts():
            try:
                size = os.stat(path).st_size
            except OSError:
                continue
            relative = os.path.relpath(path, self.root)
            kind = relative.split(os.sep, 1)[0]
            bucket = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
            entries += 1
            total_bytes += size
        with self._counter_lock:
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "corrupt": self.corrupt,
                "stale": self.stale,
                "write_errors": self.write_errors,
            }
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "kinds": kinds,
            **counters,
        }


class _Stale(Exception):
    """Internal: the artifact's stamp does not match this process."""


class _StoreLock:
    """Context manager holding the advisory store lock (own fd per entry)."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._handle: Optional[io.BufferedWriter] = None

    def __enter__(self) -> "_StoreLock":
        if fcntl is not None:
            try:
                self._handle = open(self._path, "ab")
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                # Locking is advisory; publication stays atomic via replace.
                if self._handle is not None:
                    self._handle.close()
                    self._handle = None
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            self._handle.close()
            self._handle = None
