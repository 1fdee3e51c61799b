"""Chaos tests: the campaign service under injected distributed faults.

The headline invariant: a campaign driven through
:class:`~repro.service.CampaignService` with worker kills, hangs, lease
expiries, stalled heartbeats, duplicate delivery, and store corruption
injected must **complete** and produce results **bit-identical** to a
fault-free serial run.  The simulation is a pure function of
(config, seeded trace), the store is content-addressed, and completion
is idempotent — so no amount of retrying, re-delivery, or orphaned
execution can change a single statistic.
"""

from __future__ import annotations

import pytest

from repro.analysis.policy import RunPolicy
from repro.analysis.runner import ExperimentRunner
from repro.analysis.workloads import workload_by_name
from repro.common import faults
from repro.common.errors import QueueFull
from repro.model.config import base_config
from repro.model.stats import sim_result_from_dict
from repro.service import CampaignService, JobQueue, make_spec, spec_key
from repro.service.queue import DEAD, DONE, PENDING

WARM = 2_000
TIMED = 800


@pytest.fixture(autouse=True)
def _clean_faults():
    """No fault spec may leak into other tests (or their workers)."""
    yield
    faults.install_spec(None)
    faults.reset()


def _service(tmp_path, **kwargs) -> CampaignService:
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault(
        "policy", RunPolicy(retries=3, backoff_base=0.01, backoff_max=0.05)
    )
    return CampaignService(
        tmp_path / "queue.jsonl", cache_dir=str(tmp_path / "cache"), **kwargs
    )


def _serial_stats(workload_name: str) -> dict:
    """Fault-free serial reference statistics for one point."""
    result = ExperimentRunner().run(
        base_config(), workload_by_name(workload_name, warm=WARM, timed=TIMED)
    )
    return result.as_dict(include_speed=False)


def _service_stats(service: CampaignService, key: str) -> dict:
    payload = service.result(key)
    assert payload is not None, "service result missing from store"
    return sim_result_from_dict(payload).as_dict(include_speed=False)


class TestChaosBitIdentity:
    def test_combined_fault_storm_converges_bit_identically(self, tmp_path):
        """Worker kill + hang + store corruption in one campaign.

        The acceptance criterion of the service: chaos-injected
        campaigns complete with results bit-identical to a fault-free
        serial run.
        """
        expected = {
            name: _serial_stats(name) for name in ("SPECint95", "SPECfp95")
        }

        faults.install_spec(
            "worker-crash,times=1,match=SPECint95;"
            "worker-hang,times=1,hang=60,match=SPECfp95;"
            "store-corrupt,times=1"
        )
        service = _service(
            tmp_path,
            policy=RunPolicy(
                timeout=3.0, retries=3, backoff_base=0.01, backoff_max=0.05
            ),
        )
        keys = {
            name: service.submit_point(name, warm=WARM, timed=TIMED)
            for name in expected
        }
        service.run()
        counts = service.queue.counts()
        assert counts["done"] == 2 and counts["dead"] == 0
        # The storm actually happened: the crash and the watchdog's
        # kill of the hung worker each charged a failure.
        assert service.queue.stats.failures >= 2
        assert service.stats.pool_restarts >= 1
        for name, key in keys.items():
            assert _service_stats(service, key) == expected[name]
        # Every injected failure was recovered from, with latency recorded.
        assert service.stats.recovery_seconds
        service.close()

    def test_hung_worker_hits_watchdog_and_recovers(self, tmp_path):
        """A wedged worker cannot be cancelled: the watchdog kills the
        pool, charges the run, and the spared retry completes."""
        expected = _serial_stats("SPECint95")
        faults.install_spec("worker-hang,times=1,hang=60")
        service = _service(
            tmp_path,
            policy=RunPolicy(
                timeout=2.0, retries=2, backoff_base=0.01, backoff_max=0.05
            ),
        )
        key = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        service.run()
        assert service.stats.timeouts == 1
        assert service.stats.pool_restarts >= 1
        assert service.queue.counts()["done"] == 1
        assert _service_stats(service, key) == expected
        service.close()

    def test_store_corruption_is_recomputed(self, tmp_path):
        """store-corrupt damages the first stored result post-rename; the
        coordinator's read-back detects it and recomputes."""
        expected = _serial_stats("SPECint95")
        faults.install_spec("store-corrupt,times=1")
        service = _service(tmp_path)
        key = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        service.run()
        assert service.queue.counts()["done"] == 1
        assert service.queue.stats.failures == 1  # the corrupt round
        assert _service_stats(service, key) == expected
        service.close()

    def test_kill_mid_write_never_exposes_a_torn_entry(self, tmp_path):
        """kill-mid-write dies between temp-write and rename: the store
        must show *no* entry (not a torn one) and the retry must land."""
        expected = _serial_stats("SPECint95")
        faults.install_spec("kill-mid-write,times=1")
        service = _service(tmp_path)
        key = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        service.run()
        assert service.queue.counts()["done"] == 1
        assert service.stats.pool_restarts >= 1  # the kill broke the pool
        assert _service_stats(service, key) == expected
        # The atomic protocol leaves no half-written .json entries ever;
        # at most an orphaned temp file from the killed worker remains.
        assert service.cache.stats.corrupt == 0
        service.close()


class TestLaneIsolation:
    def test_one_crashed_worker_is_charged_alone(self, tmp_path):
        """Each in-flight job runs on its own lane, so a worker crash
        breaks only that lane: the sibling job finishes on its first
        attempt and exactly one failure is charged."""
        faults.install_spec("worker-crash,times=1,match=SPECint95")
        service = _service(tmp_path)
        crashed = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        sibling = service.submit_point("SPECfp95", warm=WARM, timed=TIMED)
        service.run()
        assert service.stats.dispatched == 3
        assert service.queue.stats.failures == 1
        assert service.queue.jobs[crashed].attempts == 1
        assert service.queue.jobs[sibling].attempts == 0
        assert service.queue.counts()["done"] == 2
        assert _service_stats(service, crashed) == _serial_stats("SPECint95")
        assert _service_stats(service, sibling) == _serial_stats("SPECfp95")
        service.close()


class TestLeaseChaos:
    def test_forced_lease_expiry_orphan_still_completes(self, tmp_path):
        """lease-expiry requeues a healthy running job; either the orphan
        or the redispatch completes it — exactly once."""
        expected = _serial_stats("SPECint95")
        faults.install_spec("lease-expiry,times=1")
        # Fast ticks so lease upkeep observes the run in flight even on
        # a machine where the simulation itself is quick.
        service = _service(tmp_path, poll_interval=0.02)
        key = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        service.run()
        assert service.queue.stats.lease_expiries == 1
        assert service.queue.counts()["done"] == 1
        assert _service_stats(service, key) == expected
        service.close()

    def test_stalled_heartbeats_starve_lease_but_campaign_completes(
        self, tmp_path
    ):
        """heartbeat-stall swallows every renewal: the lease lapses while
        the worker still computes.  The orphaned run's result is accepted
        idempotently (or the redispatch wins); either way the point
        completes bit-identically."""
        expected = _serial_stats("TPC-C")
        faults.install_spec("heartbeat-stall,times=1000")
        service = _service(tmp_path, lease_seconds=0.25, poll_interval=0.02)
        key = service.submit_point("TPC-C", warm=WARM, timed=TIMED)
        service.run()
        assert service.queue.stats.lease_expiries >= 1
        assert service.queue.counts()["done"] == 1
        assert service.queue.stats.completions == 1
        assert _service_stats(service, key) == expected
        service.close()

    def test_duplicate_delivery_simulates_once_effectively(self, tmp_path):
        """duplicate-delivery hands the same job to a second worker; the
        idempotent completion keeps exactly one result."""
        expected = _serial_stats("SPECint95")
        faults.install_spec("duplicate-delivery,times=1")
        service = _service(tmp_path)
        key = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        service.run()
        assert service.queue.stats.duplicate_deliveries == 1
        assert service.stats.dispatched == 2  # both deliveries executed
        assert service.queue.stats.completions == 1  # but one completion
        assert service.queue.stats.duplicate_completions == 1
        assert service.queue.counts()["done"] == 1
        assert _service_stats(service, key) == expected
        service.close()


class TestSingleFlight:
    def test_n_duplicate_submissions_one_simulation(self, tmp_path):
        """Acceptance criterion: N submissions, exactly one simulation."""
        service = _service(tmp_path)
        keys = {
            service.submit_point("SPECint95", warm=WARM, timed=TIMED)
            for _ in range(5)
        }
        assert len(keys) == 1
        service.run()
        assert service.queue.stats.submitted == 5
        assert service.queue.stats.deduped == 4
        assert service.stats.dispatched == 1  # exactly one simulation
        assert service.queue.counts()["done"] == 1
        service.close()

    def test_resubmission_after_completion_hits_cache(self, tmp_path):
        service = _service(tmp_path)
        key = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        service.run()
        assert service.stats.dispatched == 1
        service.close()
        # Same journal: the replay already knows the job is done.
        service2 = _service(tmp_path)
        assert service2.submit_point("SPECint95", warm=WARM, timed=TIMED) == key
        service2.run()
        assert service2.stats.dispatched == 0
        assert service2.queue.stats.deduped == 1
        service2.close()
        # Fresh journal, same result store: the point completes straight
        # from the cache at submit time, never reaching the pool.
        service3 = CampaignService(
            tmp_path / "queue2.jsonl", cache_dir=str(tmp_path / "cache")
        )
        assert service3.submit_point("SPECint95", warm=WARM, timed=TIMED) == key
        service3.run()
        assert service3.stats.dispatched == 0
        assert service3.stats.cache_hits == 1
        assert service3.queue.jobs[key].source == "cache"
        service3.close()


class TestCrashRecovery:
    def test_new_instance_recovers_a_died_services_leases(self, tmp_path):
        """A service that died holding claims: its successor replays the
        journal, expires the stale leases, and finishes the campaign."""
        cache_dir = str(tmp_path / "cache")
        dead_service = CampaignService(
            tmp_path / "queue.jsonl", cache_dir=cache_dir, lease_seconds=0.3
        )
        key_a = dead_service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        key_b = dead_service.submit_point("SPECfp95", warm=WARM, timed=TIMED)
        # Claim one job, then "crash" without completing or renewing —
        # the journal now shows a RUNNING job under a soon-stale lease.
        claimed = dead_service.queue.claim(dead_service.worker_id)
        assert claimed is not None
        dead_service.queue.close()  # no pool was ever started

        service = CampaignService(
            tmp_path / "queue.jsonl",
            cache_dir=cache_dir,
            lease_seconds=5.0,
            policy=RunPolicy(retries=2, backoff_base=0.01, backoff_max=0.05),
            poll_interval=0.1,
        )
        assert service.queue.resumed
        service.run()
        counts = service.queue.counts()
        assert counts["done"] == 2 and counts["pending"] == 0
        assert service.queue.stats.lease_expiries >= 1
        for key, name in ((key_a, "SPECint95"), (key_b, "SPECfp95")):
            assert _service_stats(service, key) == _serial_stats(name)
        service.close()


class TestDegradation:
    def test_bounded_queue_sheds_local_submissions(self, tmp_path):
        service = _service(tmp_path, capacity=1)
        service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        with pytest.raises(QueueFull, match="capacity"):
            service.submit_point("SPECfp95", warm=WARM, timed=TIMED)
        # Duplicates of the existing backlog still single-flight fine.
        service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        service.close()

    def test_serve_stale_when_store_goes_unreadable(self, tmp_path):
        """After a result is served once, destroying its store entry
        degrades to the remembered copy and schedules a recompute."""
        service = _service(tmp_path)
        key = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        service.run()
        first = service.result(key)
        assert first is not None
        # Bitrot the stored entry beyond recognition.
        service.cache.path(key).write_text("garbage", encoding="utf-8")
        stale = service.result(key)
        assert stale == first  # served from memory, bit-identical
        assert service.stats.stale_serves == 1
        # The job was reopened so the store heals on the next cycle.
        assert service.queue.jobs[key].state == PENDING
        service.run()
        assert service.queue.jobs[key].state == DONE
        assert service.cache.load(key) is not None
        service.close()

    def test_on_failure_skip_marks_dead_and_continues(self, tmp_path):
        """A persistently failing job goes dead without sinking the
        campaign; healthy jobs still complete."""
        faults.install_spec("worker-raise,times=100,match=SPECint95")
        service = _service(
            tmp_path,
            policy=RunPolicy(
                retries=1,
                on_failure="skip",
                backoff_base=0.01,
                backoff_max=0.05,
            ),
        )
        bad = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        good = service.submit_point("SPECfp95", warm=WARM, timed=TIMED)
        service.run()
        assert service.queue.jobs[bad].state == DEAD
        assert service.queue.jobs[good].state == DONE
        assert service.stats.skipped == ["SPECint95@SPARC64-V"]
        assert _service_stats(service, good) == _serial_stats("SPECfp95")
        service.close()

    def test_on_failure_retry_falls_back_in_process(self, tmp_path):
        """The default policy's last resort: rerun in the service
        process, where injected worker faults do not fire."""
        expected = _serial_stats("SPECint95")
        faults.install_spec("worker-raise,times=100")
        service = _service(
            tmp_path,
            policy=RunPolicy(retries=1, backoff_base=0.01, backoff_max=0.05),
        )
        key = service.submit_point("SPECint95", warm=WARM, timed=TIMED)
        service.run()
        assert service.stats.in_process_fallbacks == 1
        assert service.queue.counts()["done"] == 1
        assert _service_stats(service, key) == expected
        service.close()
