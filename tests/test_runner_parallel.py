"""Determinism and robustness tests for :class:`ParallelRunner`.

The parallel runner is only trustworthy if (1) fanning runs out over
worker processes produces *bit-identical* statistics to serial
execution, (2) cache keys cannot alias distinct configurations, and
(3) worker crashes and corrupt cache entries degrade to fresh in-process
runs instead of aborting a sweep.  Each property gets a test here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.analysis.runner import ExperimentRunner, ParallelRunner, _deal_lanes
from repro.analysis.workloads import (
    Workload,
    smp_workload,
    standard_workloads,
    workload_by_name,
)
from repro.model.config import base_config, l2_off_8m_1w, l2_off_8m_2w

#: Tiny windows so each simulation finishes in well under a second.
WARM = 2_000
TIMED = 800


def _mini_workloads():
    return standard_workloads(warm=WARM, timed=TIMED)


def _stats(result):
    """Deterministic architectural statistics (no wall-clock fields)."""
    return result.as_dict(include_speed=False)


class TestDeterminism:
    def test_serial_vs_jobs1_vs_jobs4(self, tmp_path):
        """Same seed => same stats, regardless of worker scheduling."""
        config = base_config()
        serial = ExperimentRunner()
        expected = {
            w.name: _stats(serial.run(config, w)) for w in _mini_workloads()
        }

        for jobs in (1, 4):
            runner = ParallelRunner(
                jobs=jobs, cache_dir=str(tmp_path / f"cache-{jobs}")
            )
            workloads = _mini_workloads()
            runner.prefetch(up=[(config, w) for w in workloads])
            got = {w.name: _stats(runner.run(config, w)) for w in workloads}
            assert got == expected, f"jobs={jobs} diverged from serial"

    def test_disk_cache_roundtrip_preserves_stats(self, tmp_path):
        """A result served from disk equals the freshly computed one."""
        config = base_config()
        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        first = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        fresh = first.run(config, workload)

        second = ParallelRunner(jobs=1, cache_dir=str(tmp_path))
        cached = second.run(config, workload)
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        assert _stats(cached) == _stats(fresh)


class TestSmpPath:
    def test_smp_prefetch_matches_serial_and_replays_from_disk(self, tmp_path):
        """An SMP point run in a worker equals the serial run, and a
        second runner on the same cache dir replays it from disk."""
        config = base_config()
        workload = smp_workload(2, warm=WARM, timed=TIMED)
        expected = ExperimentRunner().run_smp(config, workload, 2)

        first = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
        try:
            first.prefetch(smp=[(config, workload, 2)])
        finally:
            first.close()
        assert first.stats.runs_in_workers == 1
        assert first.run_smp(config, workload, 2).as_dict() == expected.as_dict()

        second = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
        second.prefetch(smp=[(config, workload, 2)])
        replayed = second.run_smp(config, workload, 2)
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        assert replayed.as_dict() == expected.as_dict()
        assert [_stats(cpu) for cpu in replayed.per_cpu] == [
            _stats(cpu) for cpu in expected.per_cpu
        ]


class TestPlacement:
    """Which worker runs which point is fixed by the batch, not by timing."""

    def test_deal_groups_workloads_into_balanced_lanes(self):
        spec, tpcc, fp = (
            workload_by_name(name, warm=WARM, timed=TIMED)
            for name in ("SPECint95", "TPC-C", "SPECfp95")
        )
        batch = [
            ("up", (f"k{i}", f"c{i}", workload))
            for i, workload in enumerate([spec, tpcc, spec, tpcc, fp, spec, tpcc])
        ]
        lanes = _deal_lanes(batch, jobs=2)
        names = [[entry[1][2].name for entry in lane] for lane in lanes]
        assert names == [
            ["SPECint95", "SPECint95", "SPECint95", "TPC-C"],
            ["TPC-C", "TPC-C", "SPECfp95"],
        ]
        # Request order survives within a workload; every lane entry
        # starts at attempt 0; a batch smaller than jobs uses fewer lanes.
        assert [entry[1][0] for entry in lanes[0]] == ["k0", "k2", "k5", "k1"]
        assert all(entry[2] == 0 for lane in lanes for entry in lane)
        assert len(_deal_lanes(batch[:1], jobs=4)) == 1

    def test_each_workload_stays_on_one_worker(self, tmp_path):
        """The L2-study shape: two workloads x three configs on two jobs.

        Each worker generates one trace and reuses it, whichever run
        finishes first.
        """
        configs = [base_config(), l2_off_8m_2w(), l2_off_8m_1w()]
        workloads = [
            workload_by_name(name, warm=WARM, timed=TIMED)
            for name in ("SPECint95", "TPC-C")
        ]
        runner = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
        try:
            runner.prefetch(up=[(c, w) for c in configs for w in workloads])
        finally:
            runner.close()
        workers = {}
        for label, _seconds, pid in runner.stats.timings:
            workers.setdefault(label.split("@")[0], set()).add(pid)
        assert sorted(workers) == ["SPECint95", "TPC-C"]
        assert all(len(pids) == 1 for pids in workers.values())
        assert workers["SPECint95"] != workers["TPC-C"]


class TestCacheKeys:
    def test_same_name_different_content_no_alias(self):
        """Regression: two configs sharing a *name* must not alias.

        The old runner keyed its memo on ``config.name`` alone, so a
        derived config reusing a name silently returned the other
        config's result.  Content-hash keys make them distinct.
        """
        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        base = base_config()
        impostor = base.derived(base.name, core=base.core.derived(window_size=8))
        assert impostor.name == base.name
        assert impostor.content_hash() != base.content_hash()

        runner = ExperimentRunner()
        real = runner.run(base, workload)
        shrunk = runner.run(impostor, workload)
        assert len(runner.cached_results()) == 2
        # An 8-entry window cannot keep up with the 64-entry machine.
        assert shrunk.cycles > real.cycles

    def test_same_content_hash_for_equal_configs(self):
        assert base_config().content_hash() == base_config().content_hash()

    def test_transient_configs_never_alias(self):
        """Regression: keys must come from content, not object identity.

        CPython reuses object addresses, so a memo keyed on
        ``id(config)`` can hand a freshly allocated config the hash of
        a dead one.  Churning through transient configs between runs
        reproduces the aliasing when identity leaks into the key.
        """
        import gc

        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        runner = ExperimentRunner()
        expected = ExperimentRunner().run(base_config(), workload).cycles

        for index in range(30):
            # Allocate, run, and drop a distinct transient config.
            transient = base_config().derived(
                f"transient-{index}",
                core=base_config().core.derived(window_size=8 + index),
            )
            runner.run(transient, workload)
            del transient
            gc.collect()
            fresh = runner.run(base_config(), workload)
            assert fresh.cycles == expected, f"aliased after {index} configs"

    def test_workload_cache_key_tracks_parameters(self):
        short = workload_by_name("SPECint95", warm=1_000, timed=500)
        long = workload_by_name("SPECint95", warm=2_000, timed=500)
        assert short.cache_key() != long.cache_key()
        again = workload_by_name("SPECint95", warm=1_000, timed=500)
        assert short.cache_key() == again.cache_key()


@dataclass
class _WorkerPoisonedWorkload(Workload):
    """Raises from :meth:`trace` only after crossing a pickle boundary.

    The runner pickles workloads into its worker processes; this class
    notices the unpickling (``__setstate__``) and fails there, so a
    prefetch sees a crashing worker while the parent's in-process
    fallback still succeeds.
    """

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._poisoned = True

    def trace(self):
        if getattr(self, "_poisoned", False):
            raise RuntimeError("poisoned in worker")
        return super().trace()


class TestGracefulDegradation:
    def test_worker_crash_falls_back_in_process(self, tmp_path):
        healthy = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        poisoned = _WorkerPoisonedWorkload(
            name=healthy.name,
            profile=healthy.profile,
            seed=healthy.seed,
            warm_instructions=healthy.warm_instructions,
            timed_instructions=healthy.timed_instructions,
        )
        config = base_config()
        runner = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
        runner.prefetch(up=[(config, poisoned)])
        assert runner.stats.worker_fallbacks == 1
        assert runner.stats.runs_in_process == 1

        result = runner.run(config, poisoned)
        expected = ExperimentRunner().run(config, healthy)
        assert _stats(result) == _stats(expected)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)


class TestObservability:
    def test_hit_miss_counters_and_timings(self, tmp_path):
        config = base_config()
        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        runner = ParallelRunner(jobs=1, cache_dir=str(tmp_path))

        runner.run(config, workload)
        assert runner.stats.misses == 1
        assert runner.stats.runs_in_process == 1
        assert len(runner.stats.timings) == 1
        label, seconds, pid = runner.stats.timings[0]
        assert "SPECint95" in label and seconds > 0 and pid is None

        runner.run(config, workload)
        assert runner.stats.memory_hits == 1
        assert "misses 1" in runner.summary()

    def test_prefetch_skips_satisfied_requests(self, tmp_path):
        config = base_config()
        workload = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        runner = ParallelRunner(jobs=2, cache_dir=str(tmp_path))
        runner.prefetch(up=[(config, workload), (config, workload)])
        assert runner.stats.misses == 1
        runner.prefetch(up=[(config, workload)])
        assert runner.stats.misses == 1


class TestWorkloadPickling:
    def test_pickle_drops_generated_traces(self):
        import pickle

        workload = workload_by_name("SPECfp95", warm=WARM, timed=TIMED)
        original = workload.trace()
        clone = pickle.loads(pickle.dumps(workload))
        assert clone._trace is None and clone._generator is None
        regenerated = clone.trace()
        assert len(regenerated) == len(original)
        assert [r.pc for r in regenerated.records[:200]] == [
            r.pc for r in original.records[:200]
        ]
