"""Tier-1 enforcement of the documentation health checks.

Imports ``tools/check_docs.py`` (the script CI runs) and asserts its
checks are clean: no broken relative markdown links in README/ROADMAP/
``docs/``, no missing docstrings or dangling ``__all__`` entries in the
engine and sink modules, and a README backend table that names exactly the
registered backends.
"""

import importlib.util
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(_ROOT, "tools", "check_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_suite_exists():
    for name in ("ARCHITECTURE.md", "API.md", "PERFORMANCE.md"):
        assert os.path.exists(os.path.join(_ROOT, "docs", name)), f"docs/{name} is missing"


def test_readme_links_the_docs_suite():
    readme = open(os.path.join(_ROOT, "README.md"), "r", encoding="utf-8").read()
    for name in ("docs/ARCHITECTURE.md", "docs/API.md", "docs/PERFORMANCE.md"):
        assert name in readme, f"README.md does not link {name}"


def test_markdown_links_resolve(check_docs):
    problems = check_docs.check_markdown_links()
    assert problems == []


def test_engine_and_sink_docstrings_present(check_docs):
    problems = check_docs.check_docstrings()
    assert problems == []


def test_public_all_exports_resolve(check_docs):
    problems = check_docs.audit_all_exports()
    assert problems == []


def test_readme_backend_table_matches_registry(check_docs):
    assert check_docs.check_backend_table() == []


def test_backend_table_check_flags_a_stale_row(check_docs, tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text(
        "### Simulation backends\n\n| backend | engine |\n|---|---|\n"
        "| `compiled` | plan |\n| `vectorized` | numpy |\n| `lowered` | codegen |\n"
        "\n## Next\n"
    )
    assert check_docs.check_backend_table(str(readme)) == [
        "README backend table lists unregistered backend 'lowered'",
        "README backend table misses registered backend 'reference'",
    ]
