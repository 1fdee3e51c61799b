"""Tests for :class:`RunPolicy` and the runner's failure policies.

Covers the pure policy object (validation, deterministic backoff) and
the end-to-end ``fail`` / ``skip`` behaviours of
:class:`~repro.analysis.runner.ParallelRunner` when a run keeps dying.
Timeout and crash *recovery* paths live in ``test_fault_injection.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.analysis.policy import RunPolicy
from repro.analysis.runner import ParallelRunner
from repro.analysis.workloads import Workload, workload_by_name
from repro.common.errors import ConfigError, ExperimentError, SimulationError
from repro.model.config import base_config, l2_off_8m_1w, l2_off_8m_2w

WARM = 2_000
TIMED = 800


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = RunPolicy()
        assert policy.retries == 1 and policy.on_failure == "retry"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"timeout": 0.0}, "timeout"),
            ({"timeout": -1.0}, "timeout"),
            ({"retries": -1}, "retries"),
            ({"backoff_base": -0.1}, "backoff"),
            ({"backoff_max": -1.0}, "backoff"),
            ({"backoff_factor": 0.5}, "backoff_factor"),
            ({"jitter": 1.5}, "jitter"),
            ({"jitter": -0.1}, "jitter"),
            ({"on_failure": "explode"}, "on_failure"),
        ],
    )
    def test_rejections(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            RunPolicy(**kwargs)


class TestBackoff:
    def test_no_delay_before_first_retry(self):
        assert RunPolicy().backoff_delay("x", 0) == 0.0

    def test_exponential_growth_without_jitter(self):
        policy = RunPolicy(backoff_base=0.1, backoff_factor=2.0, jitter=0.0)
        assert policy.backoff_delay("x", 1) == pytest.approx(0.1)
        assert policy.backoff_delay("x", 2) == pytest.approx(0.2)
        assert policy.backoff_delay("x", 3) == pytest.approx(0.4)

    def test_clamped_by_backoff_max(self):
        policy = RunPolicy(backoff_base=1.0, backoff_factor=10.0, backoff_max=2.5)
        assert policy.backoff_delay("x", 5) <= 2.5

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RunPolicy(backoff_base=1.0, backoff_factor=1.0, jitter=0.25)
        first = policy.backoff_delay("SPECint95@SPARC64-V", 1)
        again = policy.backoff_delay("SPECint95@SPARC64-V", 1)
        assert first == again  # replays sleep identically
        assert 0.75 <= first <= 1.25
        # Different labels and attempts draw different (still bounded) jitter.
        other = policy.backoff_delay("TPC-C@SPARC64-V", 1)
        assert 0.75 <= other <= 1.25

    def test_zero_base_means_no_sleeping(self):
        policy = RunPolicy(backoff_base=0.0)
        assert policy.backoff_delay("x", 3) == 0.0


@dataclass
class _AlwaysFailsInWorker(Workload):
    """Raises from :meth:`trace` after crossing a pickle boundary.

    Unlike an injected fault, this failure never goes away, so it
    exercises the exhausted-retries endgame of each ``on_failure``
    policy.
    """

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._poisoned = True

    def trace(self):
        if getattr(self, "_poisoned", False):
            raise RuntimeError("poisoned in worker")
        return super().trace()


def _poisoned_workload():
    healthy = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
    return _AlwaysFailsInWorker(
        name=healthy.name,
        profile=healthy.profile,
        seed=healthy.seed,
        warm_instructions=healthy.warm_instructions,
        timed_instructions=healthy.timed_instructions,
    )


#: Pids that called :meth:`_AlwaysRaises.trace`; workers append to
#: their own copy, so the parent's copy counts in-process attempts.
_raising_calls = []


@dataclass
class _AlwaysRaises(Workload):
    """Raises :class:`SimulationError` from :meth:`trace` in every process."""

    def trace(self):
        _raising_calls.append(os.getpid())
        raise SimulationError("simulation always fails")


def _fast_policy(**kwargs) -> RunPolicy:
    return RunPolicy(backoff_base=0.01, backoff_max=0.05, **kwargs)


class TestFailurePolicies:
    def test_fail_policy_aborts_loudly(self, tmp_path):
        runner = ParallelRunner(
            jobs=2,
            cache_dir=str(tmp_path),
            policy=_fast_policy(retries=1, on_failure="fail"),
        )
        with pytest.raises(ExperimentError, match="SPECint95.*after 2 attempts"):
            runner.prefetch(up=[(base_config(), _poisoned_workload())])
        assert runner.stats.retries == 1

    def test_skip_policy_records_and_continues(self, tmp_path):
        config = base_config()
        poisoned = _poisoned_workload()
        healthy = workload_by_name("SPECfp95", warm=WARM, timed=TIMED)
        runner = ParallelRunner(
            jobs=2,
            cache_dir=str(tmp_path),
            policy=_fast_policy(retries=0, on_failure="skip"),
        )
        # The healthy sibling in the same batch must still complete.
        runner.prefetch(up=[(config, poisoned), (config, healthy)])
        assert runner.stats.skipped == [f"{poisoned.name}@{config.name}"]
        assert runner.run(config, healthy) is not None

        # try_run degrades to None; run() refuses with a typed error.
        assert runner.try_run(config, poisoned) is None
        with pytest.raises(ExperimentError, match="abandoned"):
            runner.run(config, poisoned)
        assert "skipped 1" in runner.summary()

    def test_retry_policy_falls_back_in_process(self, tmp_path):
        """Default policy: budget spent => one observable in-process rerun.

        The poisoned workload only fails across the pickle boundary, so
        the parent-process fallback succeeds — same contract the PR-1
        crash test pinned, now with an explicit retry budget.
        """
        runner = ParallelRunner(
            jobs=2,
            cache_dir=str(tmp_path),
            policy=_fast_policy(retries=2, on_failure="retry"),
        )
        runner.prefetch(up=[(base_config(), _poisoned_workload())])
        assert runner.stats.retries == 2
        assert runner.stats.worker_fallbacks == 1
        assert runner.stats.runs_in_process == 1

    def test_failed_in_process_fallback_names_the_run(self, tmp_path):
        """A last-resort rerun that fails too ends the batch with a typed
        error naming the run: one worker attempt, one in-process rerun,
        and no second pass over the batch as if the pool had broken."""
        healthy = workload_by_name("SPECint95", warm=WARM, timed=TIMED)
        poisoned = _AlwaysRaises(
            name="poisoned",
            profile=healthy.profile,
            seed=healthy.seed,
            warm_instructions=healthy.warm_instructions,
            timed_instructions=healthy.timed_instructions,
        )
        workloads = [healthy, workload_by_name("TPC-C", warm=WARM, timed=TIMED)]
        configs = [base_config(), l2_off_8m_2w(), l2_off_8m_1w()]
        batch = [(c, w) for c in configs for w in workloads]
        batch[-1] = (base_config(), poisoned)
        _raising_calls.clear()
        runner = ParallelRunner(
            jobs=2,
            cache_dir=str(tmp_path),
            policy=_fast_policy(retries=0, on_failure="retry"),
        )
        try:
            with pytest.raises(
                ExperimentError,
                match=r"poisoned@SPARC64-V failed in-process after 1 worker attempts",
            ):
                runner.prefetch(up=batch)
        finally:
            runner.close()
        assert _raising_calls == [os.getpid()]
        assert runner.stats.worker_fallbacks == 1
