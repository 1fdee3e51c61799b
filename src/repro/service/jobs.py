"""Job specs: the JSON contract between submitters, journal, and workers.

A campaign-service job names one ``(configuration, workload[, cpus])``
simulation point with nothing but JSON scalars, so it can be appended to
the durable journal by one process (``repro submit``), replayed by
another (``repro serve`` after a crash), and executed by a third (a pool
worker) — all agreeing on the same identity:

- configurations are referenced by their registry name
  (:func:`repro.model.config.named_configs`); the *content hash* of the
  built configuration, not the name, feeds the dedup/cache key, so two
  code versions that change a parameter never alias;
- workloads are referenced by their paper name plus generation
  parameters (seed, warm, timed) — the same identity
  :meth:`~repro.analysis.workloads.Workload.cache_key` uses;
- :func:`spec_key` is exactly the :class:`~repro.analysis.cache.ResultCache`
  key of the run, so "the service finished this job" and "any runner
  gets a cache hit for it" are the same statement, and duplicate
  submissions of the same content single-flight by construction.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.analysis.cache import ResultCache
from repro.analysis.runner import (
    result_meta,
    run_key,
    run_label,
    simulate,
    store_key,
)
from repro.analysis.workloads import (
    DEFAULT_SEED,
    DEFAULT_TIMED,
    DEFAULT_WARM,
    Workload,
    workload_by_name,
)
from repro.common.errors import ConfigError, ServiceError
from repro.model.config import MachineConfig, named_configs

#: Spec schema version, embedded in every journal record.
SPEC_FORMAT = 1


def make_spec(
    workload: str,
    config: str = "base",
    warm: int = DEFAULT_WARM,
    timed: int = DEFAULT_TIMED,
    seed: int = DEFAULT_SEED,
    cpus: Optional[int] = None,
) -> dict:
    """Build (and validate) a job spec.  Raises :class:`ConfigError`."""
    if config not in named_configs():
        raise ConfigError(
            f"unknown config {config!r}; choose from: "
            f"{', '.join(named_configs())}"
        )
    if cpus is not None and cpus < 1:
        raise ConfigError(f"cpus must be >= 1, got {cpus}")
    spec = {
        "v": SPEC_FORMAT,
        "kind": "smp" if cpus else "up",
        "workload": workload,
        "config": config,
        "warm": int(warm),
        "timed": int(timed),
        "seed": int(seed),
    }
    if cpus:
        spec["cpus"] = int(cpus)
    spec_workload(spec)  # rejects unknown workload names at submit time
    return spec


def spec_config(spec: dict) -> MachineConfig:
    """The machine configuration a spec names (built fresh)."""
    registry = named_configs()
    name = spec.get("config", "base")
    try:
        return registry[name]()
    except KeyError:
        raise ConfigError(f"job spec names unknown config {name!r}") from None


def spec_workload(spec: dict) -> Workload:
    """The workload a spec names (traces regenerated from the seed)."""
    return workload_by_name(
        spec["workload"],
        warm=int(spec.get("warm", DEFAULT_WARM)),
        timed=int(spec.get("timed", DEFAULT_TIMED)),
        seed=int(spec.get("seed", DEFAULT_SEED)),
    )


def spec_cpus(spec: dict) -> Optional[int]:
    """The CPU count of an SMP spec; None for a uniprocessor spec."""
    kind = spec.get("kind", "up")
    if kind not in ("up", "smp"):
        raise ServiceError(f"job spec has unknown kind {kind!r}")
    return int(spec["cpus"]) if kind == "smp" else None


def spec_label(spec: dict) -> str:
    """The run label :class:`ParallelRunner` gives the same point, so
    ``REPRO_FAULTS`` ``match=`` patterns target service runs and runner
    runs alike."""
    return run_label(spec["workload"], spec_config(spec).name, spec_cpus(spec))


def spec_key(spec: dict, cache: ResultCache) -> str:
    """The job's identity: exactly the result-cache key of the run."""
    key = run_key(spec_config(spec), spec_workload(spec), spec_cpus(spec))
    return store_key(cache, key)


def execute_spec(spec: dict) -> Tuple[dict, dict]:
    """Run the simulation a spec names; returns ``(payload, meta)``.

    The payload/meta shapes match what :class:`ParallelRunner` stores,
    so entries produced by the service are indistinguishable from
    entries produced by a local sweep — ``repro analyze`` renders both.
    """
    cpus = spec_cpus(spec)
    workload = spec_workload(spec)
    result = simulate(spec_config(spec), workload, cpus)
    return result.to_dict(), result_meta(result, workload.name, cpus)
