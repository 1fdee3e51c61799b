"""Fault-injection tests: every failure class recovers or fails loudly.

Uses :mod:`repro.common.faults` to deterministically inject the four
failure classes the pipeline claims to survive —

1. a worker process that *crashes* (``os._exit``, like a SIGKILL/OOM),
2. a worker that *hangs* (caught by the wall-clock watchdog),
3. a *corrupt result-cache entry* (detected, deleted, recomputed),
4. a *damaged trace file* (truncation and bit-flips; typed errors or
   counted drops in ``skip_corrupt`` mode)

— and asserts that the recovered statistics are bit-identical to a
clean serial run, plus that an interrupted sweep campaign rerun on the
same result cache reproduces the uninterrupted sweep exactly.
"""

from __future__ import annotations

import pytest

from repro.analysis.policy import RunPolicy
from repro.analysis.runner import ExperimentRunner, ParallelRunner
from repro.analysis.sweeps import l2_size_sweep
from repro.analysis.workloads import workload_by_name
from repro.common import faults
from repro.common.errors import ConfigError, InjectedFault, TraceError
from repro.model.config import base_config
from repro.trace.io import last_read_report, read_trace, write_trace
from repro.trace.record import make_load
from repro.trace.stream import Trace

WARM = 2_000
TIMED = 800


@pytest.fixture(autouse=True)
def _clean_faults():
    """No fault spec may leak into other tests (or their workers)."""
    yield
    faults.install_spec(None)
    faults.reset()


def _workload(name="SPECint95"):
    return workload_by_name(name, warm=WARM, timed=TIMED)


def _stats(result):
    return result.as_dict(include_speed=False)


def _fast_policy(**kwargs) -> RunPolicy:
    return RunPolicy(backoff_base=0.01, backoff_max=0.05, **kwargs)


class TestSpecParsing:
    def test_parse_full_grammar(self):
        specs = faults.parse_spec(
            "worker-hang,times=2,hang=5,match=TPC;cache-corrupt,p=0.5,seed=7"
        )
        assert [s.kind for s in specs] == ["worker-hang", "cache-corrupt"]
        assert specs[0].times == 2 and specs[0].hang == 5.0
        assert specs[0].match == "TPC"
        assert specs[1].probability == 0.5 and specs[1].seed == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            faults.parse_spec("worker-explode")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault parameters"):
            faults.parse_spec("worker-crash,bogus=1")

    def test_malformed_value_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            faults.parse_spec("worker-crash,times=lots")

    def test_probability_draws_are_cross_process_stable(self):
        """Two injectors from the same spec make identical decisions."""
        spec = "worker-raise,p=0.5,times=100"
        decisions = []
        for _ in range(2):
            injector = faults.FaultInjector.from_spec(spec)
            outcome = []
            for attempt in range(20):
                try:
                    injector.worker_fault("site", attempt)
                    outcome.append(False)
                except InjectedFault:
                    outcome.append(True)
            decisions.append(outcome)
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_match_filters_sites(self):
        injector = faults.FaultInjector.from_spec("worker-raise,match=TPC-C")
        injector.worker_fault("SPECint95@SPARC64-V", 0)  # no match: no fault
        with pytest.raises(InjectedFault):
            injector.worker_fault("TPC-C@SPARC64-V", 0)


class TestWorkerCrash:
    def test_crashed_worker_is_retried_bit_identically(self, tmp_path):
        """Failure class 1: hard worker death (os._exit, like an OOM kill).

        The crash breaks the pool; the runner must respawn it, charge
        the run one attempt, and converge to the serial statistics.
        """
        config, workload = base_config(), _workload()
        expected = _stats(ExperimentRunner().run(config, workload))

        faults.install_spec("worker-crash,times=1")
        runner = ParallelRunner(
            jobs=2, cache_dir=str(tmp_path), policy=_fast_policy(retries=1)
        )
        runner.prefetch(up=[(config, workload)])
        assert runner.stats.retries == 1
        assert runner.stats.pool_restarts >= 1
        assert runner.stats.runs_in_workers == 1  # retry stayed in the pool
        assert _stats(runner.run(config, workload)) == expected


class TestWorkerHang:
    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        """Failure class 2: a wedged worker, reclaimed by the watchdog.

        ``shutdown()`` cannot cancel a running task, so the watchdog
        must kill the pool outright; the hang is charged as a timeout
        and the retry (attempt 1, past ``times=1``) runs clean.
        """
        config, workload = base_config(), _workload()
        expected = _stats(ExperimentRunner().run(config, workload))

        faults.install_spec("worker-hang,times=1,hang=60")
        runner = ParallelRunner(
            jobs=2,
            cache_dir=str(tmp_path),
            policy=_fast_policy(timeout=0.75, retries=1),
        )
        runner.prefetch(up=[(config, workload)])
        assert runner.stats.timeouts == 1
        assert runner.stats.retries == 1
        assert runner.stats.pool_restarts >= 1
        assert _stats(runner.run(config, workload)) == expected


class TestCorruptCache:
    def test_corrupt_entry_is_detected_and_recomputed(self, tmp_path):
        """Failure class 3: a scribbled cache entry must read as a miss."""
        config, workload = base_config(), _workload()

        faults.install_spec("cache-corrupt,times=1")
        writer = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        first = writer.run(config, workload)
        faults.install_spec(None)

        reader = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        recomputed = reader.run(config, workload)
        assert reader.stats.disk_hits == 0
        assert reader.stats.misses == 1
        assert reader.cache.stats.corrupt >= 1
        assert _stats(recomputed) == _stats(first)

        # The recompute healed the entry: a third runner hits disk.
        third = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        assert _stats(third.run(config, workload)) == _stats(first)
        assert third.stats.disk_hits == 1


def _sample_trace(n=200) -> Trace:
    records = [
        make_load(0x1000 + 4 * i, dest=8, addr_srcs=(1,), ea=0x9000 + 8 * i)
        for i in range(n)
    ]
    return Trace(records, name="fault-sample", cpu=0)


class TestDamagedTraces:
    def test_truncated_trace_fails_loudly(self, tmp_path):
        """Failure class 4a: truncation (full disk, torn copy)."""
        path = tmp_path / "t.trc"
        faults.install_spec("trace-truncate,times=1")
        write_trace(_sample_trace(), path)
        faults.install_spec(None)
        with pytest.raises(TraceError, match=r"truncated|mismatch"):
            read_trace(path)

    def test_truncated_trace_salvage_counts_drops(self, tmp_path):
        path = tmp_path / "t.trc"
        faults.install_spec("trace-truncate,times=1")
        write_trace(_sample_trace(200), path)
        faults.install_spec(None)
        salvaged = read_trace(path, skip_corrupt=True)
        report = last_read_report()
        assert 0 < len(salvaged) < 200
        assert report.dropped == 200 - len(salvaged)
        assert not report.clean

    def test_bitflipped_trace_fails_loudly(self, tmp_path):
        """Failure class 4b: a single flipped bit anywhere past the magic."""
        path = tmp_path / "t.trc"
        faults.install_spec("trace-bitflip,times=1")
        write_trace(_sample_trace(), path)
        faults.install_spec(None)
        with pytest.raises(TraceError, match=r"corrupt|truncated|mismatch"):
            read_trace(path)

    def test_unfaulted_writes_are_untouched(self, tmp_path):
        path = tmp_path / "t.trc"
        write_trace(_sample_trace(), path)
        loaded = read_trace(path)
        assert len(loaded) == 200
        assert last_read_report().clean


class TestResumableCampaign:
    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path):
        """An interrupted campaign, rerun on the same cache directory,
        replays what finished and reproduces the uninterrupted sweep
        exactly (acceptance criterion).
        """
        workload = _workload("TPC-C")
        sizes = (1, 2, 4)
        expected = l2_size_sweep(
            sizes_mb=sizes, workload=workload, runner=ExperimentRunner()
        )

        cache_dir = str(tmp_path / "cache")

        # "Interrupted" campaign: only the first point completes before
        # the (simulated) kill.
        first = ParallelRunner(jobs=1, cache_dir=cache_dir)
        l2_size_sweep(sizes_mb=sizes[:1], workload=workload, runner=first)
        first.close()

        second = ParallelRunner(jobs=2, cache_dir=cache_dir)
        got = l2_size_sweep(sizes_mb=sizes, workload=workload, runner=second)
        second.close()
        assert second.stats.disk_hits == 1  # finished point replayed, not rerun
        assert second.stats.misses == len(sizes) - 1
        assert got.series == expected.series
        assert not got.is_partial


class TestServiceFaultKinds:
    """The five service fault classes added for repro.service."""

    def test_new_kinds_parse(self):
        specs = faults.parse_spec(
            "lease-expiry,times=2;heartbeat-stall,match=TPC;"
            "kill-mid-write;duplicate-delivery;store-corrupt,times=3"
        )
        assert [s.kind for s in specs] == [
            "lease-expiry",
            "heartbeat-stall",
            "kill-mid-write",
            "duplicate-delivery",
            "store-corrupt",
        ]

    def test_lease_expiry_counts_down_times(self):
        injector = faults.FaultInjector.from_spec("lease-expiry,times=2")
        assert injector.lease_expired("a@base") is True
        assert injector.lease_expired("a@base") is True
        assert injector.lease_expired("a@base") is False  # budget spent
        assert injector.fired["lease-expiry"] == 2

    def test_heartbeat_stall_respects_match(self):
        injector = faults.FaultInjector.from_spec("heartbeat-stall,match=TPC-C")
        assert injector.stall_heartbeat("SPECint95@SPARC64-V") is False
        assert injector.stall_heartbeat("TPC-C@SPARC64-V") is True

    def test_duplicate_delivery_fires_once_by_default(self):
        injector = faults.FaultInjector.from_spec("duplicate-delivery")
        assert injector.duplicate_delivery("a@base") is True
        assert injector.duplicate_delivery("a@base") is False

    def test_store_corrupt_truncates_final_file(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_text("x" * 100, encoding="utf-8")
        injector = faults.FaultInjector.from_spec("store-corrupt,times=1")
        faults.install(injector)
        faults.corrupt_store_file(target)
        assert target.stat().st_size == 50
        faults.corrupt_store_file(target)  # budget spent: untouched
        assert target.stat().st_size == 50

    def test_attempt_scope_spares_store_faults_on_retry(self, tmp_path):
        """Store-side sites have no natural attempt number; attempt_scope
        supplies one so `times=N` spares attempts >= N, letting retries
        converge even though the counter would otherwise be per-process."""
        target = tmp_path / "entry.json"
        injector = faults.FaultInjector.from_spec("store-corrupt,times=1")
        faults.install(injector)
        # Retry attempt (1) is spared even though the site never fired.
        target.write_text("x" * 100, encoding="utf-8")
        with faults.attempt_scope(1):
            faults.corrupt_store_file(target)
        assert target.stat().st_size == 100
        # First attempt (0) fires.
        with faults.attempt_scope(0):
            faults.corrupt_store_file(target)
        assert target.stat().st_size == 50

    def test_kill_mid_write_dies_without_exposing_entry(self, tmp_path):
        """Subprocess proof of the store's atomicity: a writer killed
        between temp write and rename exits with CRASH_EXIT_CODE and
        leaves no entry visible (only temp debris at worst)."""
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "from repro.common import faults\n"
            "from repro.analysis.cache import ResultCache\n"
            "faults.install_spec('kill-mid-write,times=1')\n"
            f"cache = ResultCache({str(tmp_path)!r})\n"
            "key = cache.key('up', 'cfg', 'wl')\n"
            "open('key.txt', 'w').write(key)\n"
            "cache.store(key, {'ipc': 1.0})\n"
            "raise SystemExit('store unexpectedly survived')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=str(tmp_path),
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == faults.CRASH_EXIT_CODE
        key = (tmp_path / "key.txt").read_text()
        cache = __import__(
            "repro.analysis.cache", fromlist=["ResultCache"]
        ).ResultCache(str(tmp_path))
        assert cache.load(key) is None  # miss, never a torn entry
        assert cache.stats.corrupt == 0
        # The fsync'd temp file is the only trace of the dead writer.
        assert list(tmp_path.glob("*.tmp"))
