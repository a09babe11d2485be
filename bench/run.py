"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify|sample|cli --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from the `src` directory next to
this one.  Every job's output is checked.  Human-readable lines come first
(raw and drift-scaled times, the calibration kernel, per-command medians);
the last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, whose names and units are those listed in BENCHMARK.json:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import measure
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_job(workload, state, job, clock, tracer=None):
    """Run one job; a job that raises fails every check it would have made."""
    first = len(clock.steps)
    try:
        outcome = workload.run(state, job, clock, tracer)
    except Exception:
        traceback.print_exc()
        outcome = workloads.Outcome(
            workload.checks_per_job, ["raised"] * workload.checks_per_job
        )
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return first, len(clock.steps), outcome


def job_seconds(jobs, per_step):
    return [sum(per_step[a:b]) for a, b, _ in jobs]


def tally(jobs):
    attempted = sum(o.checked for _, _, o in jobs)
    failed = sum(len(o.failures) for _, _, o in jobs)
    return attempted, failed


def measured_run(workload, seed: int, seconds: float):
    """Set up several times, then run jobs for `seconds`; end-to-end metrics."""
    workloads.fresh_import()  # loads third-party dependencies, untimed
    clock = measure.Clock(workload.kernel_reps)
    for _ in range(workload.setup_reps):
        state = clock.time(lambda: workload.prepare(workloads.fresh_import()))
    if workload.warmup:
        run_job(workload, state, workload.job(state, seed, 0), measure.Clock())

    jobs = []
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        jobs.append(run_job(workload, state, workload.job(state, seed, len(jobs)), clock))

    attempted, failed = tally(jobs)
    steps = clock.scaled()
    setup = steps[: workload.setup_reps]
    setup_raw = [s.raw_s for s in clock.steps[: workload.setup_reps]]
    scaled = job_seconds(jobs, steps)
    raw = job_seconds(jobs, [s.raw_s for s in clock.steps])
    units = sum(o.units for _, _, o in jobs)
    tail_s, pct, beyond = measure.tail(scaled)
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(workload.rss_of).ru_maxrss / 1024,
        "ok_frac": 1 - failed / attempted,
        "throughput_per_s": units / sum(scaled),
        "job_p50_ms": statistics.median(scaled) * 1e3,
        "job_tail_ms": tail_s * 1e3,
    }
    lines = [
        f"{workload.name} seed {seed}: {len(jobs)} jobs, {attempted} checks, {failed} failed",
        f"calib.ref_ms {clock.ref_ms():.4f} (nominal {measure.NOMINAL_REF_MS})",
        f"setup_s raw {statistics.median(setup_raw):.4f} (median of {len(setup)})",
        f"throughput_per_s raw {units / sum(raw):.4f}",
        f"job_p50_ms raw {statistics.median(raw) * 1e3:.3f}",
        f"job_tail_ms raw {measure.tail(raw)[0] * 1e3:.3f}; percentile p{pct:.2f},"
        f" {beyond} of {len(jobs)} jobs beyond it",
    ]
    by_label: dict[str, list[tuple[float, float]]] = {}
    for step, s in zip(clock.steps, steps):
        if step.label:
            by_label.setdefault(step.label, []).append((s, step.raw_s))
    for label, values in by_label.items():
        lines.append(
            f"{label}_ms {statistics.median(v for v, _ in values) * 1e3:.3f}"
            f" raw {statistics.median(r for _, r in values) * 1e3:.3f}"
            f" (median of {len(values)})"
        )
    return attempted, failed, metrics, lines


def traced_run(workload, seed: int, seconds: float, spans_out: Path):
    """Set up once and run a fixed list of jobs in rounds until `seconds`
    have passed, each job untraced and then traced; per-layer metrics.

    Every round repeats the same jobs, so the counts per round are exact for
    a given seed.  A metric is its setup part plus its per-round mean.  The
    spans are written to `spans_out` at the end.
    """
    tracer = spans.Tracer()
    clock = measure.Clock(workload.kernel_reps, on_step=tracer.set_step)
    vs = workloads.fresh_import()
    tracer.install()
    state = clock.time(lambda: workload.prepare(vs))
    setup_steps = len(clock.steps)
    jobs = [workload.job(state, seed, i) for i in range(workload.trace_jobs)]
    if workload.warmup:
        tracer.uninstall()
        run_job(workload, state, jobs[0], measure.Clock())

    plain, traced = [], []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for job in jobs:
            tracer.uninstall()
            plain.append(run_job(workload, state, job, clock))
            tracer.install()
            traced.append(run_job(workload, state, job, clock, tracer))
        rounds += 1
    tracer.uninstall()
    spans_out.parent.mkdir(exist_ok=True)
    spans_out.write_text(json.dumps(tracer.dump()), encoding="utf-8")

    factor = clock.factor()
    in_setup = spans.layer_totals(tracer.spans, factor, lambda s: s.step < setup_steps)
    in_jobs = spans.layer_totals(tracer.spans, factor, lambda s: s.step >= setup_steps)

    def total(layer: str, key: str) -> float:
        return in_setup[layer][key] + in_jobs[layer][key] / rounds

    metrics = {}
    for module, names in spans.LAYERS.items():
        for name in names:
            layer = f"{module}.{name}"
            metrics[f"{layer}.calls"] = total(layer, "calls")
            metrics[f"{layer}.self_s"] = total(layer, "self_s")
    stab = "sandpile.stabilize"
    metrics[f"{stab}.topplings"] = total(stab, "topplings")
    metrics[f"{stab}.sink_particles"] = total(stab, "sink_particles")
    metrics[f"{stab}.ns_per_toppling"] = (
        metrics[f"{stab}.self_s"] * 1e9 / metrics[f"{stab}.topplings"]
        if metrics[f"{stab}.topplings"] else 0.0
    )
    mc = "chain.monte_carlo_stabilization"
    metrics[f"{mc}.trials_per_s"] = (
        total(mc, "trials") / metrics[f"{mc}.self_s"] if metrics[f"{mc}.self_s"] else 0.0
    )
    imports = total("cli.import", "calls")
    metrics["cli.import_s"] = total("cli.import", "self_s") / imports if imports else 0.0
    scaled = clock.scaled()
    plain_s = sum(job_seconds(plain, scaled))
    metrics["trace.overhead_frac"] = sum(job_seconds(traced, scaled)) / plain_s - 1
    metrics["calib.ref_ms"] = clock.ref_ms()

    attempted, failed = tally(plain + traced)
    lines = [
        f"{workload.name} seed {seed} traced: {rounds} rounds of {len(jobs)} jobs,"
        f" {attempted} checks, {failed} failed; values are setup plus per-round mean",
        f"{len(tracer.spans)} spans written to {spans_out}",
    ] + [f"{name} {value:.6g}" for name, value in sorted(metrics.items())]
    return attempted, failed, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.environ.pop("SANDPILE_LEVEL_CAP", None)
    # One CPU for this process and the commands it starts, so that the
    # calibration kernel and the work it calibrates run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = workloads.make(args.workload, ROOT, tmp)
        if args.trace:
            spans_out = ROOT / ".bench_spans" / f"{args.workload}-seed{args.seed}.json"
            attempted, failed, metrics, lines = traced_run(
                workload, args.seed, args.seconds, spans_out
            )
        else:
            attempted, failed, metrics, lines = measured_run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(tmp)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    for line in lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
