"""Host-time benchmark of the SPARC64 V performance model.

Run from the root of a checkout::

    python3 perfbench/run.py --workload up-tpcc --seed 2003 --seconds 25 --trace 0

Each operation runs in a fresh interpreter (``op.py``), so no in-process
memo of the program turns a repetition into a cache hit.  Operations are
repeated until the next one would end after ``--seconds``; at least one
always runs.  With ``--trace 0`` the end-to-end metrics are reported as
medians over the operations; with ``--trace 1`` untraced and traced
operations alternate and the per-layer metrics of the traced ones are
reported, with the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Host speed on a shared machine drifts by a third over minutes, so every
operation samples it with ``calibrate.tick`` and the reported times are
*calibrated* to a fixed host speed.  Raw times are printed beside them.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OP_SCRIPT = os.path.join(HERE, "op.py")

WORKLOADS = ("up-tpcc", "up-specint95", "smp-tpcc-4p", "sweep-l2")
DEFAULT_SEED = 2003  # the program's DEFAULT_SEED
#: Set-up samples per run; operations short of it are topped up with
#: set-up-only interpreters, so a one-operation run still has a median.
SETUP_SAMPLES = 8
#: No operation may run longer than this; the run must end within 180 s.
OP_TIMEOUT_S = 170
#: Never start another operation past this point of a run.
RUN_LIMIT_S = 120

#: Unit of every per-layer metric, by name; names not listed are seconds.
_LAYER_UNITS = {
    "trace_overhead_ratio": "ratio",
    "raw.e2e_ips": "instr/s",
    "hooks.missing": "count",
    "stats_digest": "hash",
    "trace.records": "count",
    "trace.gen_rps": "records/s",
    "trace.region_lines": "count",
    "warm.prewarm_lines": "count",
    "warm.functional_records": "count",
    "core.ips": "instr/s",
    "core.cycles_per_s": "cycles/s",
    "core.instructions": "count",
    "core.cycles": "count",
    "core.ipc": "instr/cycle",
    "mem.accesses": "count",
    "mem.l1i_miss_ratio": "ratio",
    "mem.l1d_miss_ratio": "ratio",
    "mem.l2_miss_ratio": "ratio",
    "mem.prefetches": "count",
    "mem.bus_util": "ratio",
    "smp.coherence_calls": "count",
    "smp.cache_to_cache": "count",
    "smp.invalidations": "count",
    "smp.multi_owner_lines_warm": "count",
    "smp.multi_owner_lines": "count",
    "runner.points": "count",
    "runner.misses": "count",
    "runner.disk_hits": "count",
    "runner.parallel_eff": "ratio",
    "cache.bytes": "bytes",
}


#: Per-layer self times; with ``unattributed_s`` they sum to the traced wall.
SELF_TIMES = (
    "trace.gen_s",
    "warm.build_s",
    "warm.prewarm_s",
    "warm.functional_s",
    "core.loop_s",
    "mem.access_s",
    "smp.loop_s",
    "smp.coherence_s",
    "runner.prefetch_s",
    "cache.load_s",
    "cache.store_s",
    "unattributed_s",
)


def layer_unit(name: str) -> str:
    if name.startswith("cpi."):
        return "share"
    return _LAYER_UNITS.get(name, "s")


# -- one operation ---------------------------------------------------------


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                kids.extend(int(token) for token in handle.read().split())
    except OSError:
        pass
    return kids


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


def _tree_rss_bytes(pid: int) -> int:
    """Resident bytes of ``pid`` and all its descendants right now."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        total += _rss_bytes(current)
        pending.extend(_children(current))
    return total


class _RssSampler(threading.Thread):
    """Samples the resident memory of a process tree until stopped."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(0.05):
            self.peak = max(self.peak, _tree_rss_bytes(self.pid))

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def run_op(workload: str, seed: int, op_id: int, trace: bool = False,
           setup_only: bool = False) -> dict:
    """Run one operation in a fresh interpreter and return its report."""
    args = ["--workload", workload, "--seed", str(seed), "--op", str(op_id)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    spawned = time.monotonic()
    command = [sys.executable, OP_SCRIPT, *args, "--spawned", repr(spawned)]
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    sampler = _RssSampler(process.pid)
    sampler.start()
    try:
        out, err = process.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        out, err = process.communicate()
        err += f"\noperation killed after {OP_TIMEOUT_S} s"
    finally:
        sampler.stop()
    lines = out.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if process.returncode == 0 else None
    except (IndexError, ValueError):
        report = None
    if report is None:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"crashed": f"exit {process.returncode}: {tail}"}
    if not setup_only:
        report["peak_rss_mb"] = max(sampler.peak / 2**20, report["self_rss_mb"])
    return report


# -- fingerprint -------------------------------------------------------------


def fingerprint() -> Dict[str, object]:
    """Where a result came from, so rows of different machines never mix."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src", "repro")
    paths = sorted(
        os.path.join(folder, name)
        for folder, _, files in os.walk(source)
        for name in files
        if name.endswith(".py")
    )
    for path in paths:
        digest.update(os.path.relpath(path, source).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# -- the run -------------------------------------------------------------------


def _spread(values: List[float]) -> str:
    if not values:
        return "n=0"
    return (
        f"n={len(values):<3d} median {statistics.median(values):<12.6g} "
        f"min {min(values):<12.6g} max {max(values):.6g}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no model source under {ROOT}/src/repro", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("fingerprint: " + json.dumps(fingerprint(), sort_keys=True))

    plain: List[dict] = []
    layered: List[dict] = []
    started = time.monotonic()
    rounds = 0
    while True:
        plain.append(run_op(args.workload, args.seed, len(plain) + len(layered)))
        if traced:
            layered.append(
                run_op(args.workload, args.seed, len(plain) + len(layered), trace=True)
            )
        rounds += 1
        elapsed = time.monotonic() - started
        if elapsed + elapsed / rounds > min(args.seconds, RUN_LIMIT_S):
            break

    reports = plain + layered
    crashed = [report for report in reports if "crashed" in report]
    good = [report for report in plain if "crashed" not in report]
    good_traced = [report for report in layered if "crashed" not in report]
    for report in crashed:
        print(f"operation crashed: {report['crashed']}")
    if not good or (traced and not good_traced):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    points = good[0]["attempted"]
    attempted = sum(report["attempted"] for report in reports if "crashed" not in report)
    failed = sum(report["failed"] for report in reports if "crashed" not in report)
    attempted += points * len(crashed)
    failed += points * len(crashed)
    for report in good + good_traced:
        for error in report["errors"]:
            print(f"check failed: {error}")
    digests = {report["stats_digest"] for report in good + good_traced}
    if len(digests) > 1:
        print(f"check failed: statistics differ between operations: {sorted(digests)}")
    correct = failed == 0 and not crashed and len(digests) == 1
    digest = sorted(digests)[0]

    print(f"operations: {len(plain)} untraced + {len(layered)} traced, "
          f"each in a fresh interpreter; attempted {attempted}, failed {failed}")
    print(f"stats_digest: {digest}")

    print(f"  {'tick_s':12s} {'s':8s} {_spread([r['tick_s'] for r in good])}")
    if traced:
        metrics = _layer_metrics(good_traced, good, digest)
        for name, value in metrics.items():
            print(f"  {name:32s} {value['value']:<14.6g} {value['unit']}")
    else:
        setups = list(good)
        while len(setups) < SETUP_SAMPLES:
            report = run_op(args.workload, args.seed, len(setups), setup_only=True)
            if "crashed" in report:
                print(f"set-up-only operation crashed: {report['crashed']}")
                break
            setups.append(report)
        walls = [report["wall_s"] for report in good]
        cal_walls = [report["wall_s"] * report["scale"] for report in good]
        instructions = [report["instructions"] for report in good]
        # (name, unit, samples, reported in the JSON); raw times are shown
        # beside the calibrated ones.
        rows = [
            ("wall_cal_s", "s", cal_walls, True),
            ("wall_s", "s", walls, False),
            ("e2e_cal_ips", "instr/s", [n / t for n, t in zip(instructions, cal_walls)], True),
            ("e2e_ips", "instr/s", [n / t for n, t in zip(instructions, walls)], False),
            ("setup_s", "s", [r["setup_s"] * r["scale"] for r in setups], True),
            ("setup_raw_s", "s", [r["setup_s"] for r in setups], False),
            ("peak_rss_mb", "MB", [report["peak_rss_mb"] for report in good], True),
        ]
        metrics = {}
        for name, unit, values, reported in rows:
            print(f"  {name:12s} {unit:8s} {_spread(values)}")
            if reported:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {'fail_ratio':12s} {'-':8s} n={attempted:<3d} "
              f"{failed / attempted:.6g} ({failed} of {attempted} operations)")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _layer_metrics(traced: List[dict], untraced: List[dict], digest: str) -> dict:
    """Median of every per-layer metric over the traced operations.

    Layer times are raw seconds; the run's untraced operations add the raw
    end-to-end figures and, calibrated on both sides, the tracing overhead.
    """
    names = list(traced[0]["layers"])
    metrics = {
        name: statistics.median(report["layers"][name] for report in traced)
        for name in names
    }

    def calibrated(reports: List[dict], wall: str) -> float:
        return statistics.median(report[wall] * report["scale"] for report in reports)

    metrics["trace_overhead_ratio"] = calibrated(
        [{**report, **report["layers"]} for report in traced], "traced.wall_s"
    ) / calibrated(untraced, "wall_s")
    metrics["raw.wall_s"] = statistics.median(report["wall_s"] for report in untraced)
    metrics["raw.e2e_ips"] = statistics.median(
        report["instructions"] / report["wall_s"] for report in untraced
    )
    metrics["host.tick_s"] = statistics.median(report["tick_s"] for report in untraced)
    # The digest's first 48 bits, exact in a JSON number.
    metrics["stats_digest"] = int(digest[:12], 16) if digest != "none" else 0
    missing = sorted({hook for report in traced for hook in report["missing_hooks"]})
    if missing:
        print("missing hooks (their metrics read 0): " + ", ".join(missing))
    print("spans: " + ", ".join(report["spans_file"] for report in traced))
    wall = metrics["traced.wall_s"]
    print(f"self time of {wall:.4g} s traced wall (n={len(traced)}):")
    for name in SELF_TIMES:
        print(f"  {name:20s} {metrics[name]:10.4f} s  {metrics[name] / wall:6.1%}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
