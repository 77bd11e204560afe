"""The persistent store behind the serving core.

`ServiceConfig(store=...)` turns the in-memory :class:`PlanCache` into the
front tier of a two-level cache: a fresh service process over a warm store
directory restores its analyses from disk instead of recompiling, and the
responses it serves are identical to the cold ones.
"""

from __future__ import annotations

import pytest

from repro.casestudies.catalog import load_case_study
from repro.serve.service import ServiceConfig, SimulationService
from repro.store import ArtifactStore

CASE = "producer_consumer"


@pytest.fixture(scope="module")
def submit_body():
    case = load_case_study(CASE)
    from repro.aadl.printer import render_model

    return {
        "source": render_model(case.load_model()),
        "root": case.root_implementation,
        "package": case.default_package,
    }


SIMULATE_BODY = {"scenarios": [{"default": True}], "hyperperiods": 2}


def _service(store):
    return SimulationService(ServiceConfig(max_concurrent=2, store=store))


def test_cold_service_publishes_artifacts(tmp_path, submit_body):
    store = ArtifactStore(str(tmp_path))
    service = _service(store)
    response = service.submit(submit_body)
    assert response["cached"] is False
    assert store.writes > 0
    census = store.stats()["kinds"]
    assert census["toolchain"]["entries"] == 1
    assert "extraction" not in census  # extractions are memoised in memory only


def test_fresh_service_warm_starts_with_identical_responses(tmp_path, submit_body):
    root = str(tmp_path)
    cold_service = _service(ArtifactStore(root))
    cold_submit = cold_service.submit(submit_body)
    cold_simulate = cold_service.simulate(cold_submit["fingerprint"], SIMULATE_BODY)

    # A brand-new service (new process, in effect): the plan cache is empty
    # but the store is warm — compile happens once, analyses come off disk.
    warm_store = ArtifactStore(root)
    warm_service = _service(warm_store)
    warm_submit = warm_service.submit(submit_body)
    assert warm_store.hits > 0
    assert warm_service.cache.stats()["compiles"] == 1

    assert warm_submit["fingerprint"] == cold_submit["fingerprint"]
    assert warm_submit["model"]["analysis"] == cold_submit["model"]["analysis"]
    assert (
        warm_submit["model"]["signals"] == cold_submit["model"]["signals"]
    )

    warm_simulate = warm_service.simulate(warm_submit["fingerprint"], SIMULATE_BODY)
    assert warm_simulate["results"] == cold_simulate["results"]


def test_store_less_service_matches_stored_one(tmp_path, submit_body):
    plain = _service(None)
    stored = _service(ArtifactStore(str(tmp_path)))
    plain_submit = plain.submit(submit_body)
    stored_submit = stored.submit(submit_body)
    assert stored_submit["fingerprint"] == plain_submit["fingerprint"]
    assert stored_submit["model"]["analysis"] == plain_submit["model"]["analysis"]
    plain_sim = plain.simulate(plain_submit["fingerprint"], SIMULATE_BODY)
    stored_sim = stored.simulate(stored_submit["fingerprint"], SIMULATE_BODY)
    assert stored_sim["results"] == plain_sim["results"]


def test_stats_surface_the_store(tmp_path, submit_body):
    stored = _service(ArtifactStore(str(tmp_path)))
    stored.submit(submit_body)
    stats = stored.stats()
    assert stats["store"] is not None
    assert stats["store"]["entries"] > 0
    assert stats["store"]["writes"] > 0

    plain = _service(None)
    assert plain.stats()["store"] is None


def test_service_config_store_true_resolves_default(tmp_path, monkeypatch, submit_body):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "svc"))
    service = _service(True)
    assert isinstance(service.store, ArtifactStore)
    assert service.store.root == str(tmp_path / "svc")
    service.submit(submit_body)
    assert service.store.stats()["entries"] > 0
