"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``table1`` — print the production machine configuration.
- ``run`` — simulate one workload on one configuration.
- ``figures`` — regenerate one or all of the paper's figures
  (``--jobs N`` fans independent runs over worker processes; results
  persist in ``.repro_cache/``).
- ``sweeps`` — run the supplemental parameter sweeps (same knobs).
- ``analyze`` — render analyses (e.g. CPI stacks) from cached results
  without re-simulating.
- ``cache`` — inspect or clear the persistent result cache.
- ``trace`` — generate a synthetic trace to a file.
- ``verify`` — run the Reverse-Tracer/logic-simulator cross-check.
- ``smp`` — run the TPC-C SMP study.
- ``submit`` — append (config, workload) jobs to a durable campaign
  queue (duplicates single-flight onto the same job).
- ``serve`` — drain a campaign queue through a lease-based worker pool
  into the result cache, surviving worker crashes and restarts.
- ``status`` — read-only view of a campaign queue's journal.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.model.config import MachineConfig, named_configs

#: Name -> factory registry, shared with the campaign service so a job
#: submitted by name resolves to the same configuration everywhere.
_CONFIGS = named_configs()


def _config_by_name(name: str) -> MachineConfig:
    try:
        return _CONFIGS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown config {name!r}; choose from: {', '.join(_CONFIGS)}"
        )


def _cmd_table1(args: argparse.Namespace) -> None:
    print(_config_by_name(args.config).table1())


def _sampling_plan(args: argparse.Namespace):
    """Build a :class:`SamplingPlan` from CLI flags, or ``None``."""
    period = getattr(args, "sample_period", None)
    length = getattr(args, "sample_length", None)
    if period is None and length is None:
        return None
    if period is None or length is None:
        raise SystemExit(
            "sampled simulation needs both --sample-period and --sample-length"
        )
    from repro.common.errors import TraceError
    from repro.trace.sampling import SamplingPlan

    try:
        return SamplingPlan(
            period=period,
            sample_length=length,
            warmup=getattr(args, "sample_warmup", 0) or 0,
        )
    except TraceError as exc:
        raise SystemExit(f"bad sampling plan: {exc}")


def _add_sampling_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "sampling",
        "SMARTS-style sampled simulation: one detailed measurement window "
        "every --sample-period instructions, fast-forwarding in between. "
        "Results carry 95%% confidence intervals. (SMP runs ignore these.)",
    )
    group.add_argument(
        "--sample-period", type=_positive_int, default=None, metavar="N",
        help="instructions between the starts of consecutive windows",
    )
    group.add_argument(
        "--sample-length", type=_positive_int, default=None, metavar="N",
        help="measured instructions per window",
    )
    group.add_argument(
        "--sample-warmup", "--warmup", type=int, default=0, metavar="N",
        dest="sample_warmup",
        help="functional-warming instructions before each window's "
             "detailed region (default 0; caches/BHT/TLBs also persist "
             "across windows)",
    )


def _cmd_run(args: argparse.Namespace) -> None:
    from repro.analysis.workloads import workload_by_name
    from repro.model.simulator import PerformanceModel

    workload = workload_by_name(args.workload, warm=args.warm, timed=args.timed)
    config = _config_by_name(args.config)
    plan = _sampling_plan(args)

    tracer = None
    if args.trace_events:
        if plan is not None:
            raise SystemExit(
                "--trace-events captures a contiguous detailed run and is "
                "not supported with sampled simulation"
            )
        from repro.observe import PipelineTracer

        tracer = PipelineTracer(capacity=args.trace_ring)

    if plan is not None:
        print(
            f"sampling {workload.name} ({len(workload.trace()):,} instructions, "
            f"plan {plan.key()}) on {config.name} ..."
        )
        result = PerformanceModel(config).run_sampled(
            workload.trace(), plan, regions=workload.regions()
        )
        print(result.summary())
        print()
        print("estimates (95% confidence intervals):")
        print(result.estimates_report())
        stack = result.cpi_stack_report()
        if stack:
            print()
            print("CPI stack (cycle attribution, measured windows):")
            print(stack)
        return

    print(f"simulating {workload.name} ({args.timed:,} timed instructions) "
          f"on {config.name} ...")
    result = PerformanceModel(config).run(
        workload.trace(),
        warmup_fraction=workload.warmup_fraction,
        regions=workload.regions(),
        tracer=tracer,
    )
    print(result.summary())
    stack = result.cpi_stack_report()
    if stack:
        print()
        print("CPI stack (cycle attribution):")
        print(stack)

    if tracer is not None:
        if args.trace_format == "chrome":
            written = tracer.write_chrome_trace(args.trace_events)
        else:
            written = tracer.write_jsonl(args.trace_events)
        suffix = (
            f" (ring kept last {len(tracer)} of {tracer.emitted:,} emitted)"
            if tracer.dropped
            else ""
        )
        print()
        print(
            f"wrote {written:,} {args.trace_format} events to "
            f"{args.trace_events}{suffix}"
        )


def _cmd_profile(args: argparse.Namespace) -> None:
    """Hot-spot hunt: cProfile the timed core loop, print the top functions.

    Warm-up (region pre-warm + trace-prefix warming) runs outside the
    profiler, exactly as it runs outside the simulation-speed timer, so
    the report shows the loop that ``sim_speed`` measures.
    """
    import cProfile
    import io
    import pstats
    import time

    from repro.analysis.workloads import workload_by_name
    from repro.core.pipeline import ProcessorCore
    from repro.model.simulator import build_hierarchy, prewarm_regions, warm_structures

    workload = workload_by_name(args.workload, warm=args.warm, timed=args.timed)
    config = _config_by_name(args.config)
    trace = workload.trace()
    regions = workload.regions()
    split = int(len(trace) * workload.warmup_fraction)
    warm_part = trace.head(split) if split else None
    timed_part = trace[split:] if split else trace

    hierarchy = build_hierarchy(config)
    core = ProcessorCore(
        timed_part, hierarchy, config.core, config.frontend, config.bht
    )
    if regions:
        prewarm_regions(hierarchy, regions)
    if warm_part is not None:
        warm_structures(hierarchy, core.fetch.bht, warm_part)

    print(
        f"profiling {workload.name} ({len(timed_part):,} timed instructions) "
        f"on {config.name} ..."
    )
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    stats = core.run()
    profiler.disable()
    elapsed = max(time.perf_counter() - started, 1e-9)

    stream = io.StringIO()
    report = pstats.Stats(profiler, stream=stream)
    report.sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue().rstrip())
    print(
        f"\n{stats.instructions / elapsed:,.0f} trace-instructions/s "
        f"under the profiler (expect ~3x faster without it)"
    )
    if args.out:
        report.dump_stats(args.out)
        print(f"wrote {args.out} (inspect with `python -m pstats {args.out}`)")


def _make_runner(args: argparse.Namespace):
    """Build the runner the figures/sweeps commands share."""
    from repro.analysis import ParallelRunner
    from repro.analysis.policy import RunPolicy
    from repro.common import faults

    if getattr(args, "inject_faults", None):
        faults.install_spec(args.inject_faults)

    policy = RunPolicy(
        timeout=args.timeout,
        retries=args.retries,
        on_failure=args.on_failure,
    )

    return ParallelRunner(
        jobs=args.jobs,
        verbose=not args.quiet,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        policy=policy,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for independent runs (default 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default .repro_cache or $REPRO_CACHE_DIR); "
             "rerunning with the same directory resumes a campaign",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-run progress lines",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock limit for worker runs; a hung worker "
             "pool is killed and respawned (default: no limit)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="worker-side retries per failed or timed-out run, with "
             "exponential jittered backoff (default 1)",
    )
    parser.add_argument(
        "--on-failure", choices=("retry", "fail", "skip"), default="retry",
        help="after retries are spent: 'retry' reruns once in-process, "
             "'fail' aborts the campaign, 'skip' records the run as "
             "missing and marks reports partial (default retry)",
    )
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection for testing, e.g. "
             "'worker-hang,times=1,hang=30;cache-corrupt,times=1' "
             "(see repro.common.faults)",
    )


def _cmd_figures(args: argparse.Namespace) -> None:
    from repro.analysis import (
        fig_cpistack,
        fig07_characteristics,
        fig08_issue_width,
        fig09_10_bht,
        fig11_12_13_l1,
        fig14_15_l2,
        fig16_17_prefetch,
        fig18_reservation,
        standard_workloads,
    )

    workloads = standard_workloads(warm=args.warm, timed=args.timed)
    plan = _sampling_plan(args)
    if plan is not None:
        for workload in workloads:
            workload.sampling = plan
    runner = _make_runner(args)
    figure_map = {
        "7": lambda: fig07_characteristics(workloads, runner=runner),
        "8": lambda: fig08_issue_width(workloads, runner),
        "9": lambda: fig09_10_bht(workloads, runner),
        "11": lambda: fig11_12_13_l1(workloads, runner),
        "14": lambda: fig14_15_l2(
            workloads,
            runner,
            smp_cpus=args.smp_cpus,
            # SMP runs use shorter per-CPU traces to stay tractable.
            smp_workload_override=__import__(
                "repro.analysis.workloads", fromlist=["smp_workload"]
            ).smp_workload(
                args.smp_cpus,
                warm=min(args.warm, 20_000),
                timed=min(args.timed, 6_000),
            ),
        ),
        "16": lambda: fig16_17_prefetch(workloads, runner),
        "18": lambda: fig18_reservation(workloads, runner),
        "cpistack": lambda: fig_cpistack(workloads, runner=runner),
    }
    wanted = figure_map.keys() if args.figure == "all" else [args.figure]
    for key in wanted:
        if key not in figure_map:
            raise SystemExit(
                f"unknown figure {key!r}; choose from: "
                f"{', '.join(figure_map)} or 'all'"
            )
        result = figure_map[key]()
        print()
        print(result.format_table())
    if not args.quiet:
        print()
        print(f"runner: {runner.summary()}")


def _cmd_sweeps(args: argparse.Namespace) -> None:
    from repro.analysis import (
        bht_size_sweep,
        l2_size_sweep,
        smp_scaling_sweep,
        window_size_sweep,
        workload_by_name,
    )

    runner = _make_runner(args)
    plan = _sampling_plan(args)

    def sized(name):
        workload = workload_by_name(name, warm=args.warm, timed=args.timed)
        workload.sampling = plan
        return workload

    sweep_map = {
        "l2": lambda: l2_size_sweep(runner=runner, workload=sized("TPC-C")),
        "window": lambda: window_size_sweep(
            runner=runner, workload=sized("SPECint95")
        ),
        "bht": lambda: bht_size_sweep(runner=runner, workload=sized("TPC-C")),
        "smp": lambda: smp_scaling_sweep(
            runner=runner,
            cpu_counts=tuple(args.cpus),
            warm=min(args.warm, 20_000),
            timed=min(args.timed, 6_000),
        ),
    }
    wanted = sweep_map.keys() if args.sweep == "all" else [args.sweep]
    for key in wanted:
        if key not in sweep_map:
            raise SystemExit(
                f"unknown sweep {key!r}; choose from: "
                f"{', '.join(sweep_map)} or 'all'"
            )
        print()
        print(sweep_map[key]().format_table())
    if not args.quiet:
        print()
        print(f"runner: {runner.summary()}")


def _cmd_cache(args: argparse.Namespace) -> None:
    from repro.analysis import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return
    print(f"directory    {cache.directory}")
    print(f"entries      {cache.entries()}")
    print(f"size         {cache.size_bytes():,} bytes")
    print(f"code version {cache.code_hash}")


def _cmd_analyze(args: argparse.Namespace) -> None:
    """Render analyses from cached results without re-simulating."""
    from repro.analysis import ResultCache
    from repro.model.stats import SimResult
    from repro.observe import render_stack_table

    if args.what != "cpistack":  # future-proofing; argparse already limits
        raise SystemExit(f"unknown analysis {args.what!r}")

    cache = ResultCache(args.cache_dir)
    stacks = {}
    for meta, payload in cache.scan():
        try:
            result = SimResult.from_dict(payload)
        except (ValueError, TypeError, KeyError):
            continue  # an SMP or foreign payload; only UP runs render here
        if not result.core.cpi_stack:
            continue
        workload = meta.get("workload", result.trace_name)
        config = meta.get("config", result.config_name)
        if args.workload and workload != args.workload:
            continue
        if args.config and config != args.config:
            continue
        stacks[f"{workload}@{config}"] = result.core.cpi_stack
    if not stacks:
        raise SystemExit(
            f"no cached CPI stacks under {cache.directory} "
            "(populate with 'repro figures' or 'repro run' via the runner, "
            "or relax --workload/--config filters)"
        )
    print(f"{len(stacks)} cached run(s) from {cache.directory}:")
    print()
    print(render_stack_table(stacks, fig7=args.fig7))


def _cmd_trace(args: argparse.Namespace) -> None:
    from repro.trace.io import write_trace
    from repro.trace.synth import TraceGenerator, standard_profiles

    profiles = standard_profiles()
    if args.workload not in profiles:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from: "
            f"{', '.join(profiles)}"
        )
    generator = TraceGenerator(profiles[args.workload], seed=args.seed)
    trace = generator.generate(args.length, name=args.workload)
    write_trace(trace, args.output)
    stats = trace.stats()
    print(f"wrote {len(trace):,} records to {args.output}")
    print(
        f"mix: loads {stats.load_fraction:.1%}, stores {stats.store_fraction:.1%},"
        f" branches {stats.branch_fraction:.1%}, kernel {stats.privileged_fraction:.1%}"
    )


def _cmd_verify(args: argparse.Namespace) -> None:
    from repro.trace.synth import generate_trace, standard_profiles
    from repro.verify import ReverseTracer, cross_check

    trace = generate_trace(
        standard_profiles()[args.workload], args.length, seed=args.seed
    )
    program, fidelity = ReverseTracer().generate(trace)
    print(f"test program: {len(program):,} static instructions")
    print(f"fidelity: {fidelity.as_dict()}")
    result = cross_check(program, max_steps=4 * args.length)
    print(
        f"cross-check OK: both paths report {result.cycles:,} cycles for "
        f"{result.instructions:,} instructions"
    )


def _cmd_smp(args: argparse.Namespace) -> None:
    from repro.smp.system import run_smp
    from repro.trace.synth import build_smp_generators, standard_profiles

    generators = build_smp_generators(
        standard_profiles()["TPC-C"], args.cpus, seed=args.seed
    )
    total = args.warm + args.timed
    traces = [generator.generate(total) for generator in generators]
    regions = [generator.memory_regions() for generator in generators]
    print(f"simulating TPC-C ({args.cpus}P) ...")
    result = run_smp(
        _config_by_name(args.config),
        traces,
        warmup_fraction=args.warm / total,
        regions_per_cpu=regions,
    )
    for key, value in result.as_dict().items():
        print(f"{key:24s} {value}")


def _cmd_submit(args: argparse.Namespace) -> None:
    """Append jobs to a durable campaign queue (no simulation here)."""
    from repro.analysis.cache import ResultCache
    from repro.common.errors import ConfigError, QueueFull
    from repro.service import JobQueue, make_spec, spec_key, spec_label

    cache = ResultCache(args.cache_dir)  # key derivation only; no I/O
    with JobQueue(args.queue, capacity=args.capacity) as queue:
        for workload in args.workloads:
            for config in args.config:
                try:
                    spec = make_spec(
                        workload,
                        config=config,
                        warm=args.warm,
                        timed=args.timed,
                        seed=args.seed,
                        cpus=args.cpus,
                    )
                except ConfigError as exc:
                    raise SystemExit(str(exc))
                key = spec_key(spec, cache)
                for _ in range(args.repeat):
                    try:
                        job = queue.submit(spec["kind"], spec, spec_label(spec), key)
                    except QueueFull as exc:
                        raise SystemExit(f"submission shed: {exc}")
                note = (
                    f" ({job.submissions} submissions, single-flighted)"
                    if job.submissions > 1
                    else ""
                )
                print(f"queued {spec_label(spec)} -> {key}{note}")
        print(queue.summary())


def _cmd_serve(args: argparse.Namespace) -> None:
    """Drain a campaign queue through the lease-based worker pool."""
    from repro.analysis.policy import RunPolicy
    from repro.common import faults
    from repro.common.errors import ExperimentError
    from repro.service import CampaignService

    if args.inject_faults:
        faults.install_spec(args.inject_faults)
    policy = RunPolicy(
        timeout=args.timeout,
        retries=args.retries,
        on_failure=args.on_failure,
    )
    service = CampaignService(
        args.queue,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        lease_seconds=args.lease,
        capacity=args.capacity,
        policy=policy,
        verbose=not args.quiet,
    )
    try:
        try:
            service.run(follow_idle=args.max_idle)
        except ExperimentError as exc:
            print(f"campaign aborted: {exc}", file=sys.stderr)
            raise SystemExit(1)
        print(service.summary())
        dead = service.queue.counts()["dead"]
        if dead:
            print(f"{dead} job(s) exhausted their retry budget", file=sys.stderr)
            raise SystemExit(1)
    finally:
        service.close()


def _cmd_status(args: argparse.Namespace) -> None:
    """Read-only replay of a campaign queue's journal."""
    from pathlib import Path

    from repro.analysis.cache import ResultCache
    from repro.service import JobQueue

    if not Path(args.queue).exists():
        raise SystemExit(f"no queue journal at {args.queue}")
    queue = JobQueue(args.queue)
    print(queue.summary())
    cache = ResultCache(args.cache_dir)
    for job in queue.jobs.values():
        stored = "stored" if cache.load(job.key) is not None else "no result"
        extra = f", attempts {job.attempts}" if job.attempts else ""
        extra += f", submissions {job.submissions}" if job.submissions > 1 else ""
        extra += f" [{job.error}]" if job.error else ""
        print(f"  {job.state:8s} {job.label}  ({stored}{extra})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SPARC64 V performance model (HPCA 2003)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="print the machine configuration")
    p_table.add_argument("--config", default="base", choices=_CONFIGS)
    p_table.set_defaults(func=_cmd_table1)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("workload", help="e.g. SPECint95, TPC-C")
    p_run.add_argument("--config", default="base", choices=_CONFIGS)
    p_run.add_argument("--warm", type=int, default=100_000)
    p_run.add_argument("--timed", type=int, default=25_000)
    p_run.add_argument(
        "--trace-events", default=None, metavar="PATH",
        help="capture per-cycle pipeline events and write them to PATH",
    )
    p_run.add_argument(
        "--trace-format", choices=("jsonl", "chrome"), default="jsonl",
        help="event-trace format: jsonl (grep-friendly) or chrome "
             "(load in about:tracing / Perfetto)",
    )
    p_run.add_argument(
        "--trace-ring", type=_positive_int, default=None, metavar="N",
        help="ring-buffer mode: keep only the last N events "
             "(default: keep everything)",
    )
    _add_sampling_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_profile = sub.add_parser(
        "profile", help="cProfile a short run and print the hot spots"
    )
    p_profile.add_argument("workload", nargs="?", default="TPC-C",
                           help="e.g. SPECint95, TPC-C (default TPC-C)")
    p_profile.add_argument("--config", default="base", choices=_CONFIGS)
    p_profile.add_argument("--warm", type=int, default=30_000)
    p_profile.add_argument("--timed", type=int, default=20_000)
    p_profile.add_argument("--top", type=_positive_int, default=25,
                           help="how many functions to print (default 25)")
    p_profile.add_argument("--sort", choices=("cumulative", "tottime", "calls"),
                           default="cumulative",
                           help="pstats sort key (default cumulative)")
    p_profile.add_argument("--out", default=None, metavar="PATH",
                           help="also dump raw pstats data to PATH")
    p_profile.set_defaults(func=_cmd_profile)

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("figure", nargs="?", default="all",
                       help="7, 8, 9, 11, 14, 16, 18, cpistack, or 'all'")
    p_fig.add_argument("--warm", type=int, default=100_000)
    p_fig.add_argument("--timed", type=int, default=25_000)
    p_fig.add_argument("--smp-cpus", type=int, default=16)
    _add_runner_options(p_fig)
    _add_sampling_options(p_fig)
    p_fig.set_defaults(func=_cmd_figures)

    p_sweeps = sub.add_parser("sweeps", help="run supplemental parameter sweeps")
    p_sweeps.add_argument("sweep", nargs="?", default="all",
                          help="l2, window, bht, smp, or 'all'")
    p_sweeps.add_argument("--cpus", type=int, nargs="+", default=[1, 2, 4],
                          help="CPU counts for the smp sweep")
    p_sweeps.add_argument("--warm", type=int, default=100_000)
    p_sweeps.add_argument("--timed", type=int, default=25_000)
    _add_runner_options(p_sweeps)
    _add_sampling_options(p_sweeps)
    p_sweeps.set_defaults(func=_cmd_sweeps)

    p_analyze = sub.add_parser(
        "analyze", help="render analyses from cached results (no simulation)"
    )
    p_analyze.add_argument("what", choices=("cpistack",),
                           help="analysis to render")
    p_analyze.add_argument("--cache-dir", default=None, metavar="DIR")
    p_analyze.add_argument("--workload", default=None,
                           help="only this workload (e.g. TPC-C)")
    p_analyze.add_argument("--config", default=None,
                           help="only this configuration (e.g. SPARC64-V)")
    p_analyze.add_argument("--fig7", action="store_true",
                           help="collapse onto the paper's Figure 7 buckets")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_cache = sub.add_parser("cache", help="inspect or clear the result cache")
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete all cached results")
    p_cache.set_defaults(func=_cmd_cache)

    p_trace = sub.add_parser("trace", help="generate a synthetic trace file")
    p_trace.add_argument("workload")
    p_trace.add_argument("output", help=".jsonl or .trc path")
    p_trace.add_argument("--length", type=int, default=100_000)
    p_trace.add_argument("--seed", type=int, default=2003)
    p_trace.set_defaults(func=_cmd_trace)

    p_verify = sub.add_parser("verify", help="model vs logic-sim cross-check")
    p_verify.add_argument("--workload", default="SPECint95")
    p_verify.add_argument("--length", type=int, default=3000)
    p_verify.add_argument("--seed", type=int, default=2003)
    p_verify.set_defaults(func=_cmd_verify)

    p_smp = sub.add_parser("smp", help="TPC-C SMP run")
    p_smp.add_argument("--cpus", type=int, default=4)
    p_smp.add_argument("--config", default="base", choices=_CONFIGS)
    p_smp.add_argument("--warm", type=int, default=20_000)
    p_smp.add_argument("--timed", type=int, default=6_000)
    p_smp.add_argument("--seed", type=int, default=2003)
    p_smp.set_defaults(func=_cmd_smp)

    p_submit = sub.add_parser(
        "submit", help="append jobs to a durable campaign queue"
    )
    p_submit.add_argument("workloads", nargs="+",
                          help="workload names, e.g. SPECint95 TPC-C")
    p_submit.add_argument("--queue", default="campaign-queue.jsonl",
                          metavar="PATH", help="journal path (shared with serve)")
    p_submit.add_argument("--config", nargs="+", default=["base"],
                          choices=_CONFIGS, help="configurations to pair with")
    p_submit.add_argument("--warm", type=int, default=100_000)
    p_submit.add_argument("--timed", type=int, default=25_000)
    p_submit.add_argument("--seed", type=int, default=2003)
    p_submit.add_argument("--cpus", type=_positive_int, default=None,
                          help="submit SMP runs with this many CPUs")
    p_submit.add_argument("--cache-dir", default=None, metavar="DIR")
    p_submit.add_argument("--capacity", type=_positive_int, default=None,
                          help="refuse submissions beyond this backlog")
    p_submit.add_argument("--repeat", type=_positive_int, default=1,
                          help="submit each point N times (dedup demo; "
                               "still exactly one simulation)")
    p_submit.set_defaults(func=_cmd_submit)

    p_serve = sub.add_parser(
        "serve", help="drain a campaign queue with crash-safe workers"
    )
    p_serve.add_argument("--queue", default="campaign-queue.jsonl",
                         metavar="PATH", help="journal path (shared with submit)")
    p_serve.add_argument("--jobs", type=_positive_int, default=2, metavar="N",
                         help="worker processes (default 2)")
    p_serve.add_argument("--lease", type=float, default=30.0, metavar="SECONDS",
                         help="claim-lease length; an expired lease requeues "
                              "the job (default 30)")
    p_serve.add_argument("--capacity", type=_positive_int, default=None,
                         help="shed pending jobs beyond this backlog")
    p_serve.add_argument("--max-idle", type=float, default=0.0, metavar="SECONDS",
                         help="keep polling this long after the queue drains "
                              "(0: exit when drained)")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR")
    p_serve.add_argument("--quiet", action="store_true")
    p_serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                         help="per-run wall-clock limit; hung workers are "
                              "killed and the job requeued")
    p_serve.add_argument("--retries", type=int, default=1, metavar="N",
                         help="attempts beyond the first per job (default 1)")
    p_serve.add_argument("--on-failure", choices=("retry", "fail", "skip"),
                         default="retry",
                         help="after retries: rerun in-process / abort / "
                              "mark dead and continue")
    p_serve.add_argument("--inject-faults", default=None, metavar="SPEC",
                         help="deterministic fault injection for testing "
                              "(see repro.common.faults)")
    p_serve.set_defaults(func=_cmd_serve)

    p_status = sub.add_parser(
        "status", help="read-only view of a campaign queue"
    )
    p_status.add_argument("--queue", default="campaign-queue.jsonl",
                          metavar="PATH")
    p_status.add_argument("--cache-dir", default=None, metavar="DIR")
    p_status.set_defaults(func=_cmd_status)

    return parser


def main(argv: Optional[List[str]] = None) -> None:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":  # pragma: no cover
    main()
