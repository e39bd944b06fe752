"""Benchmark for pathfollow: seeded mission workloads, end to end and per layer.

    python3 perfbench/run.py --workload tuned_stock --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload
    python3 perfbench/run.py --make-reference                 # rewrite reference.json

Run from the repository root; the library is imported from ./src.  The load
is a closed loop: one caller, one thread, missions back to back.

--trace 0 runs missions from the workload's stream until --seconds pass
(the first mission always finishes; a mission still running at the
deadline is stopped and neither checked nor counted) and reports the
end-to-end metrics, with times in reference seconds (hostspeed.py).  --trace 1 runs the workload's first round of
missions untraced, then again with a span around every layer call, then
probes the layers the missions never call, and reports the per-layer
metrics.  Either way the last stdout line is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_FILE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (pure Python; numpy and the library are imported later)

SETUP_SAMPLES = 3


def _require_library() -> None:
    """Import pathfollow from this checkout's src/ and nowhere else."""
    if not (SRC / "pathfollow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC}")
    sys.path.insert(0, str(SRC))


def _references(name: str, seed: int) -> list[dict]:
    if seed != workloads.DEFAULT_SEED:
        return []
    return json.loads(REFERENCE_FILE.read_text())[name]


# ----------------------------------------------------------------------
# Mission loop shared by both modes
# ----------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    stepping_s: float = 0.0
    stopped: int = 0
    first: object = None
    block_rates: list = field(default_factory=list)


def run_missions(specs, refs: list[dict], deadline: float | None = None, updates=None, gauge=None) -> Tally:
    """Build, fly and check missions in order; with a deadline, stop there.

    ``updates`` is a tracer holding optimize_gains spans; with it the
    finished missions' block rates are collected.  ``gauge`` is a list that
    gets host speed samples after each mission, one per half second flown."""
    import hostspeed
    import missions
    import spans

    tally = Tally()
    paths = missions.PathCache()
    for i, spec in enumerate(specs):
        if deadline is not None and tally.attempted and perf_counter() >= deadline:
            break
        try:
            m = missions.build(spec, paths)
            if tally.first is None:
                tally.first = m
            stamps, stopped = missions.fly(m, deadline if tally.attempted else None)
            if stopped:
                tally.stopped += 1
                break
            tally.steps += len(stamps) - 1
            tally.stepping_s += stamps[-1] - stamps[0]
            if gauge is not None:
                gauge.extend(hostspeed.kernel() for _ in range(1 + int((stamps[-1] - stamps[0]) / 0.5)))
            if updates is not None:
                starts = spans.span_starts(updates, "optimizer.optimize_gains")
                tally.block_rates.extend(missions.block_rates(stamps, starts[starts > stamps[0]]))
            problems = missions.check(m, refs[i] if i < len(refs) else None)
        except Exception as exc:  # a mission that raises is a failed mission
            problems = [f"{type(exc).__name__}: {exc}"]
        tally.attempted += 1
        if problems:
            tally.failed += 1
            print(f"  mission {i} FAILED: {'; '.join(problems)}")
    return tally


def _result(tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": tally.attempted > 0 and tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def _machine_line() -> str:
    from importlib.metadata import version

    src_lines = sum(len(f.read_text().splitlines()) for f in sorted((SRC / "pathfollow").glob("*.py")))
    return (
        f"machine: {platform.machine()}, nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {version('numpy')}, scipy {version('scipy')}, src lines {src_lines}"
    )


# ----------------------------------------------------------------------
# End-to-end run (--trace 0)
# ----------------------------------------------------------------------


def setup_child(name: str, seed: int) -> None:
    """Time a cold start: import, parsing, path building, Mission construction."""
    specs = workloads.first_round(name, seed)
    t0 = perf_counter()
    import missions

    paths = missions.PathCache()
    for spec in specs:
        missions.build(spec, paths)
    setup = perf_counter() - t0
    import hostspeed

    print(repr(setup), repr(hostspeed.factor([hostspeed.kernel() for _ in range(20)])))


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(measured seconds, host factor) of cold starts in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--workload", name, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        setup, host = map(float, proc.stdout.split()[-2:])
        out.append((setup, host))
    return out


def end_to_end(name: str, seed: int, seconds: float) -> str:
    setup = setup_seconds(name, seed)
    import hostspeed
    import spans

    refs = _references(name, seed)
    updates = spans.Tracer()
    gauge = [hostspeed.kernel() for _ in range(20)]
    with spans.patched(updates, only={"optimizer.optimize_gains"}):
        tally = run_missions(workloads.scenarios(name, seed), refs, perf_counter() + seconds, updates, gauge)
    update_ms = spans.layer_stats(updates)["optimizer.optimize_gains"].durations * 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Times in reference seconds: measured time / host factor (hostspeed.py).
    host = hostspeed.factor(gauge)
    rate = statistics.median(tally.block_rates) if tally.block_rates else 0.0
    metrics = {
        "steps_per_s": (rate * host, "steps/s"),
        "setup_s": (statistics.median(s / h for s, h in setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(_machine_line())
    print(
        f"workload {name}, seed {seed}: {tally.attempted} missions checked"
        f" (+{tally.stopped} stopped at the deadline), {tally.steps} steps;"
        f" host ran {host:.3f}x the reference time (n={len(gauge)} gauge samples)"
    )
    print(
        f"  setup_s            {metrics['setup_s'][0]:12.4f} s        n={len(setup)} cold starts (median);"
        f" measured {statistics.median(s for s, _ in setup):.4f} s"
    )
    print(
        f"  steps_per_s        {metrics['steps_per_s'][0]:12.1f} steps/s  n={len(tally.block_rates)} blocks (median);"
        f" measured {rate:.1f}; all {tally.steps} steps in {tally.stepping_s:.2f} s"
    )
    if update_ms.size:
        p50 = float(statistics.median(update_ms))
        print(f"  gain_update_ms_p50 {p50 / host:12.2f} ms       n={update_ms.size} optimize_gains calls; measured {p50:.2f} ms")
    else:
        print("  gain_update_ms_p50          n/a          n=0 (no gain updates on this workload)")
    print(f"  peak_rss_mb        {rss_mb:12.1f} MB       n=1 (this process)")
    print(f"  fail_frac          {tally.failed / max(tally.attempted, 1):12.4f}          n={tally.attempted} missions")
    return _result(tally, metrics)


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------


def traced(name: str, seed: int) -> str:
    import missions
    import spans
    from pathfollow import config

    w = workloads.WORKLOADS[name]
    specs = workloads.first_round(name, seed)
    refs = _references(name, seed)
    missions.build(specs[0], missions.PathCache())  # lazy imports stay out of both passes

    t0 = perf_counter()
    plain = run_missions(specs, refs)
    untraced_s = perf_counter() - t0
    tracer = spans.Tracer()
    with spans.patched(tracer):
        t0 = perf_counter()
        tally = run_missions(specs, refs)
        traced_s = perf_counter() - t0
    tally.attempted += plain.attempted
    tally.failed += plain.failed

    problems = spans.coverage_problems(w.tuned, tracer)
    if problems:
        sys.exit(f"perfbench: layer coverage lost on {name}: {'; '.join(problems)}")
    probe = spans.run_probes(tracer, tally.first, config.parse_scenario(specs[0]).optimizer)
    metrics, from_probe = spans.layer_metrics(tracer, probe, traced_s / untraced_s - 1.0)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.npz")
    stats = spans.layer_stats(tracer)
    (OUT_DIR / f"layers-{name}-seed{seed}.json").write_text(
        json.dumps(
            {
                "spans": {k: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s} for k, s in stats.items()},
                "metrics": metrics,
                "from_probe": sorted(from_probe),
            },
            indent=1,
        )
    )

    print(_machine_line())
    print(f"workload {name}, seed {seed}: {len(specs)} missions, untraced {untraced_s:.2f} s, traced {traced_s:.2f} s")
    print(f"  {'span':34} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self_us':>10}")
    for k, s in sorted(stats.items()):
        if s.calls:
            print(f"  {k:34} {s.calls:9d} {s.total_s:10.4f} {s.self_s:10.4f} {s.self_s / s.calls * 1e6:10.2f}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:40} {v:14.6g} {unit:6}{'  (probe)' if k in from_probe else ''}")
    return _result(tally, metrics)


# ----------------------------------------------------------------------
# Reference outcomes and the all-workloads command
# ----------------------------------------------------------------------


def make_reference() -> None:
    from itertools import islice

    import missions

    ref = {}
    for name, w in workloads.WORKLOADS.items():
        paths = missions.PathCache()
        ref[name] = []
        for spec in islice(workloads.scenarios(name, workloads.DEFAULT_SEED), w.reference_count):
            m = missions.build(spec, paths)
            missions.fly(m)
            problems = missions.invariant_problems(m)
            if problems:
                sys.exit(f"perfbench: reference mission of {name} fails its invariants: {problems}")
            ref[name].append(missions.outcome(m))
        print(f"{name}: {len(ref[name])} reference missions", flush=True)
    REFERENCE_FILE.write_text(json.dumps(ref, indent=0) + "\n")


def run_all(args) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _require_library()
    if args.setup_child:
        setup_child(args.workload, args.seed)
    elif args.make_reference:
        make_reference()
    elif args.workload == "all":
        return run_all(args)
    elif args.trace:
        print(traced(args.workload, args.seed))
    else:
        print(end_to_end(args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
