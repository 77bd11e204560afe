#!/usr/bin/env python
"""Documentation health checks: markdown links and docstring presence.

Run from the repository root (CI does, see ``.github/workflows/ci.yml``)::

    PYTHONPATH=src python tools/check_docs.py

Three checks, all offline:

1. **Markdown link check** — every relative link of ``README.md`` and
   ``docs/*.md`` must point at an existing file or directory of the
   repository (external ``http(s)``/``mailto`` links are not fetched);
   in-page anchors are checked against the target file's headings.
2. **Docstring presence** — every module of ``repro.sig.engine`` and
   ``repro.sig.sinks``, and every public name they export via ``__all__``,
   must carry a docstring; ``__all__`` itself is audited (each listed name
   must resolve).
3. **Backend table** — the README's "Simulation backends" table names
   exactly the registered backends (``repro.sig.engine.backend_names()``),
   so the docs cannot advertise a deleted backend.

The same functions are exercised by ``tests/test_docs.py``, so the tier-1
suite enforces every check locally as well.
"""

from __future__ import annotations

import importlib
import inspect
import os
import re
import sys
from typing import List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markdown files under the link check.
MARKDOWN_FILES = ["README.md", "ROADMAP.md"]
MARKDOWN_GLOB_DIRS = ["docs"]

#: Modules whose module docstring, ``__all__`` audit and per-name docstrings
#: (classes, functions and public methods) are enforced — the engine
#: subpackage and the streaming-sink modules.
DOCUMENTED_MODULES = [
    "repro.sig.engine",
    "repro.sig.engine.backends",
    "repro.sig.engine.batch",
    "repro.sig.engine.faults",
    "repro.sig.engine.plan",
    "repro.sig.engine.supervisor",
    "repro.sig.engine.vectorized",
    "repro.sig.scenario",
    "repro.sig.sinks",
    "repro.sig.vcd",
    # The serving layer, HTTP adapter included.
    "repro.serve",
    "repro.serve.cache",
    "repro.serve.errors",
    "repro.serve.programs",
    "repro.serve.server",
    "repro.serve.service",
    # The persistent artifact store.
    "repro.store",
    "repro.store.artifacts",
    "repro.store.toolchain",
    # Fleet-scale sweeps: pure stdlib, so the whole package is checkable.
    "repro.sweep",
    "repro.sweep.spaces",
    "repro.sweep.shards",
    "repro.sweep.manifest",
    "repro.sweep.executor",
    "repro.sweep.store",
]

#: Modules whose ``__all__`` is audited (every listed name must resolve and
#: the module must carry a docstring) without enforcing per-name docstrings
#: on the whole re-exported kernel.
AUDITED_MODULES = [
    "repro",
    "repro.sig",
]

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_BACKEND_SECTION_RE = re.compile(r"^### Simulation backends\n(.*?)(?=^#)", re.MULTILINE | re.DOTALL)
_BACKEND_ROW_RE = re.compile(r"^\| `([^`]+)`", re.MULTILINE)
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _markdown_paths() -> List[str]:
    paths = [os.path.join(REPO_ROOT, name) for name in MARKDOWN_FILES]
    for directory in MARKDOWN_GLOB_DIRS:
        full = os.path.join(REPO_ROOT, directory)
        if os.path.isdir(full):
            for entry in sorted(os.listdir(full)):
                if entry.endswith(".md"):
                    paths.append(os.path.join(full, entry))
    return [path for path in paths if os.path.exists(path)]


def _anchor_of(heading: str) -> str:
    """GitHub-style anchor of one heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def check_markdown_links(paths: Optional[List[str]] = None) -> List[str]:
    """Return one problem string per broken relative link/anchor."""
    problems: List[str] = []
    for path in paths if paths is not None else _markdown_paths():
        base = os.path.dirname(path)
        rel_name = os.path.relpath(path, REPO_ROOT)
        text = open(path, "r", encoding="utf-8").read()
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, anchor = target.partition("#")
            if not target:
                # In-page anchor.
                resolved = path
            else:
                resolved = os.path.normpath(os.path.join(base, target))
                if not os.path.exists(resolved):
                    problems.append(f"{rel_name}: broken link to {target!r}")
                    continue
            if anchor and resolved.endswith(".md"):
                headings = _HEADING_RE.findall(open(resolved, "r", encoding="utf-8").read())
                if anchor not in {_anchor_of(heading) for heading in headings}:
                    problems.append(f"{rel_name}: broken anchor {target!r}#{anchor}")
    return problems


def check_docstrings(module_names: Optional[List[str]] = None) -> List[str]:
    """Return one problem string per missing docstring / unresolvable name."""
    problems: List[str] = []
    for module_name in module_names if module_names is not None else DOCUMENTED_MODULES:
        module = importlib.import_module(module_name)
        if not (module.__doc__ or "").strip():
            problems.append(f"{module_name}: missing module docstring")
        exported = getattr(module, "__all__", None)
        if exported is None:
            problems.append(f"{module_name}: missing __all__")
            continue
        for name in exported:
            try:
                obj = getattr(module, name)
            except AttributeError:
                problems.append(f"{module_name}.__all__ lists {name!r}, which does not resolve")
                continue
            if inspect.ismodule(obj):
                if not (obj.__doc__ or "").strip():
                    problems.append(f"{module_name}.{name}: missing module docstring")
            elif inspect.isclass(obj) or inspect.isroutine(obj):
                if not (inspect.getdoc(obj) or "").strip():
                    problems.append(f"{module_name}.{name}: missing docstring")
                if inspect.isclass(obj):
                    for member_name, member in vars(obj).items():
                        if member_name.startswith("_"):
                            continue
                        if inspect.isroutine(member) and not (inspect.getdoc(member) or "").strip():
                            problems.append(
                                f"{module_name}.{name}.{member_name}: missing docstring"
                            )
            # Constants / type aliases only need to resolve.
    return problems


def audit_all_exports(module_names: Optional[List[str]] = None) -> List[str]:
    """Audit ``__all__``: every listed name resolves, module has a docstring."""
    problems: List[str] = []
    for module_name in module_names if module_names is not None else AUDITED_MODULES:
        module = importlib.import_module(module_name)
        if not (module.__doc__ or "").strip():
            problems.append(f"{module_name}: missing module docstring")
        exported = getattr(module, "__all__", None)
        if exported is None:
            problems.append(f"{module_name}: missing __all__")
            continue
        seen = set()
        for name in exported:
            if name in seen:
                problems.append(f"{module_name}.__all__ lists {name!r} twice")
            seen.add(name)
            if not hasattr(module, name):
                problems.append(f"{module_name}.__all__ lists {name!r}, which does not resolve")
    return problems


def check_backend_table(path: Optional[str] = None) -> List[str]:
    """Return one problem per backend the README table adds or misses."""
    from repro.sig.engine import backend_names

    path = path or os.path.join(REPO_ROOT, "README.md")
    section = _BACKEND_SECTION_RE.search(open(path, "r", encoding="utf-8").read())
    if section is None:
        return [f"{os.path.relpath(path, REPO_ROOT)}: no 'Simulation backends' section"]
    documented = set(_BACKEND_ROW_RE.findall(section.group(1)))
    registered = set(backend_names())
    return [
        f"README backend table lists unregistered backend {name!r}"
        for name in sorted(documented - registered)
    ] + [
        f"README backend table misses registered backend {name!r}"
        for name in sorted(registered - documented)
    ]


def main() -> int:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    problems = (
        check_markdown_links() + check_docstrings() + audit_all_exports() + check_backend_table()
    )
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        print(f"{len(problems)} documentation problem(s) found")
        return 1
    print(
        f"documentation checks passed: {len(_markdown_paths())} markdown file(s), "
        f"{len(DOCUMENTED_MODULES)} module(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
