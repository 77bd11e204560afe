"""Keys and kinds of the toolchain's persistent artifacts.

The store itself (:mod:`repro.store.artifacts`) is payload-agnostic; this
module defines how the toolchain addresses it, and owns the fingerprint
functions the serving layer's plan cache (:mod:`repro.serve.cache`) keys
on too, so the CLI, :func:`~repro.core.toolchain.run_toolchain` and a
``repro serve`` process all converge on **the same keys** for the same
model:

* the **structural fingerprint** — sha-256 over the canonical (parse →
  render fixed point) source plus the analysis-relevant options — keys the
  ``toolchain`` artifact: the pickled analysis payload (parsed model,
  translation, clock/determinism/deadlock reports, schedulability tables,
  flattened system model) a warm process restores instead of re-analysing;
* the **raw-source key** — sha-256 over the source bytes plus the same
  options — keys a tiny ``index`` artifact mapping to the structural
  fingerprint, so byte-identical re-runs skip even the parse.

Those two kinds are all the toolchain writes.  The modular clock calculus
memoises its per-subprocess extractions in memory only: loading them from
disk measured no faster than recomputing them (docs/PERFORMANCE.md,
"Persistent cache: cold path").

Only the options that change the analysis artefacts participate in the
keys (root, package, validation strictness, scheduler synthesis settings);
simulation-only knobs (backend, horizon, stimuli, sinks, supervision) are
deliberately absent — the simulation stage always runs live.  Options the
key cannot represent faithfully (user-supplied ``thread_behaviours``
callables) disable persistence for that run: :func:`toolchain_options_key`
returns ``None`` and the caller falls back to the plain cold path.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional, Tuple

from ..aadl.parser import parse_string
from ..aadl.printer import render_model

__all__ = [
    "KIND_INDEX",
    "KIND_TOOLCHAIN",
    "canonical_source",
    "model_fingerprint",
    "source_key",
    "toolchain_fingerprint",
    "toolchain_options_key",
    "toolchain_raw_key",
]

#: Artifact kind of the pickled analysis payload (keyed by fingerprint).
KIND_TOOLCHAIN = "toolchain"
#: Artifact kind of the raw-source → fingerprint shortcut entries.
KIND_INDEX = "index"


def canonical_source(source: str, filename: str = "<submitted>") -> str:
    """Parse AADL *source* and re-render it in canonical form.

    The parse → render fixed point is the whitespace/comment-insensitive
    identity of the model.  Parse failures propagate.
    """
    return render_model(parse_string(source, filename=filename))


def model_fingerprint(canonical: str, options_key: Tuple[Any, ...]) -> str:
    """The structural fingerprint: sha256 over canonical source + options.

    *options_key* holds every option that changes the compiled model.
    """
    digest = hashlib.sha256()
    digest.update(canonical.encode("utf-8"))
    digest.update(repr(options_key).encode("utf-8"))
    return digest.hexdigest()


def source_key(source: str, options_key: Tuple[Any, ...]) -> str:
    """The textual fast-path key: sha256 over the *raw* source + options.

    Byte-identical resubmissions hit it and skip the parse entirely.
    """
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(repr(options_key).encode("utf-8"))
    return "src-" + digest.hexdigest()


def toolchain_options_key(options: Any) -> Optional[Tuple[Any, ...]]:
    """The analysis-relevant slice of a ``ToolchainOptions`` as a key tuple.

    ``None`` means "this run cannot be keyed" (user-supplied thread
    behaviours are arbitrary callables with no stable identity): the
    caller must skip the store entirely rather than risk a false hit.
    """
    translation = options.translation
    if translation.thread_behaviours:
        return None
    return (
        "toolchain",
        options.root_implementation,
        options.default_package or "",
        bool(options.strict_validation),
        bool(translation.include_scheduler),
        translation.scheduling_policy.name,
        bool(translation.resolve_mode_conflicts),
        repr(translation.default_wcet_fraction),
    )


def toolchain_raw_key(source: str, options_key: Tuple[Any, ...]) -> str:
    """The byte-identity key of textual *source* (the parse-skipping index)."""
    # source_key prefixes "src-"; strip it so the hex digest shards evenly
    # over the two-character fan-out directories.
    return source_key(source, options_key)[len("src-"):]


def toolchain_fingerprint(canonical: str, options_key: Tuple[Any, ...]) -> str:
    """The structural fingerprint of an already-canonical source."""
    return model_fingerprint(canonical, options_key)

