"""The benchmark's three workloads: inputs from the seed, jobs, output checks.

Each workload is a closed loop with one caller and one job in flight.  Jobs
are generated from the workload seed; the library receives only the
generated inputs (graph levels, vertices, particle counts and 63-bit seeds).

- verify: level-2 identity verification in-process, the path of
  `identity --level 2 --verify`; stabilizing 4*eta dominates.
- sample: uniform recurrent sampling (Wilson plus the burning bijection),
  Dhar's burning test and small avalanches at level 3, in-process.
- cli: a fixed mix of seven shell commands, each in a fresh interpreter,
  so import cost and cold caches are paid as a shell user pays them.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

PACKAGE = "vicsek_sandpile"
HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 120


@dataclass
class Outcome:
    """What one job produced: outputs checked, failed checks, and the units
    of work (configurations or commands) that throughput counts."""

    checked: int
    failures: list[str] = field(default_factory=list)
    units: int = 0


def fresh_import():
    """Import the library anew, so that its module-level caches start cold."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


def _job_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


class Verify:
    """Each job is verify_identity(build(2), identity(2), samples=5)."""

    name = "verify"
    level = 2
    samples = 5
    setup_reps = 11
    kernel_reps = 1
    warmup = True
    trace_jobs = 8
    checks_per_job = 1
    rss_of = resource.RUSAGE_SELF

    def __init__(self, candidate=None):
        # The configuration checked as the identity; tests pass a wrong one.
        self.candidate = candidate or (lambda vs: vs.identity(self.level))

    def prepare(self, vs):
        vs.build(self.level)
        return vs

    def job(self, vs, seed: int, index: int) -> int:
        return _draw_seed(_job_rng(seed, index))

    def run(self, vs, job: int, clock, tracer) -> Outcome:
        def call():
            g = vs.build(self.level)
            return vs.verify_identity(g, self.candidate(vs), samples=self.samples, rng=job)

        try:
            report = clock.time(call)
        except vs.VerificationError as exc:
            return Outcome(1, [str(exc)], self.samples)
        failed = report.failed()
        return Outcome(1, [f"clauses {failed} are false"] if failed else [], self.samples)


class Sample:
    """Each job samples one recurrent configuration, checks it with the
    burning test, and estimates a sink-hit probability from four more."""

    name = "sample"
    level = 3
    samples = 4
    setup_reps = 11
    kernel_reps = 1
    warmup = True
    trace_jobs = 16
    checks_per_job = 1
    rss_of = resource.RUSAGE_SELF

    def prepare(self, vs):
        g = vs.build(self.level)
        nonsink = sorted(v for v in g.vertices if v != g.sink)
        return SimpleNamespace(vs=vs, g=g, nonsink=nonsink)

    def job(self, state, seed: int, index: int) -> tuple:
        rng = _job_rng(seed, index)
        x = state.nonsink[int(rng.integers(len(state.nonsink)))]
        return _draw_seed(rng), x, int(rng.integers(1, 4)), _draw_seed(rng)

    def run(self, state, job: tuple, clock, tracer) -> Outcome:
        vs, g = state.vs, state.g
        config_seed, x, k, hit_seed = job

        def call():
            eta = vs.sample_recurrent(g, config_seed)
            recurrent = vs.is_recurrent(g, eta)
            return recurrent, vs.sink_hit_probability(g, x, k, samples=self.samples, rng=hit_seed)

        recurrent, est = clock.time(call)
        failures = []
        if not recurrent:
            failures.append("sampled configuration fails the burning test")
        if est.samples != self.samples or not 0 <= est.hits <= est.samples:
            failures.append(f"{est.hits} hits in {est.samples} samples")
        return Outcome(1, failures, 1 + self.samples)


# The paper's fixed facts the command outputs are checked against.
PAPER_ABSORPTION = ("1", "3/4", "1/2", "1/4", "0")
PAPER_STABILIZATION = 0.75
MC_SIGMAS = 5


def vertices(level: int) -> int:
    return 3 * 5**level + 1


def _has_ternary_two(n: int) -> bool:
    while n:
        if n % 3 == 2:
            return True
        n //= 3
    return False


def check_absorb(state, out: str) -> str | None:
    got = out.strip().split(",")
    if tuple(got) != PAPER_ABSORPTION or tuple(map(Fraction, got)) != state.absorb:
        return f"absorption probabilities {out.strip()!r}"
    return None


def check_graph(state, out: str) -> str | None:
    data = json.loads(out)
    if (data["vertices"], data["edges"]) != (vertices(6), 6 * 5**6):
        return f"level-6 graph has {data['vertices']} vertices, {data['edges']} edges"
    return None


def check_group(state, out: str) -> str | None:
    # The reduced Laplacian is 3*5^n square and the group is (Z/4)^(2*5^n),
    # so the other 5^n invariant factors are ones.
    if json.loads(out) != ["1"] * 5**3 + ["4"] * (2 * 5**3):
        return "level-3 invariant factors are not 125 ones and 250 fours"
    return None


def check_pmf(state, out: str) -> str | None:
    rows = [line.split(",") for line in out.splitlines()]
    table = [(int(n), Fraction(int(num), int(den))) for n, num, den, _ in rows]
    if table != state.pmf:
        return "radius pmf rows differ from radius_pmf_table(1000)"
    if any(q != 0 for n, q in table if _has_ternary_two(n)):
        return "non-zero radius mass at a radius with ternary digit 2"
    return None


def check_mc(trials: int):
    def check(state, out: str) -> str | None:
        r = json.loads(out)["result"]
        if r["trials"] != trials or r["stabilized"] + r["exploded"] + r["truncated"] != trials:
            return f"monte carlo counts do not sum to {trials} trials"
        if abs(r["estimate"] - PAPER_STABILIZATION) > MC_SIGMAS * r["stderr"]:
            return f"estimate {r['estimate']} is beyond {MC_SIGMAS} stderr of 3/4"
        return None

    return check


def identity_histogram(level: int) -> dict[int, int]:
    """Heights of the identity: 2 off the cutpoints, 5 on the 4*5^(n-1)
    block-scale cutpoints, 4 on the other 5^(n-1) - 1 cutpoints."""
    return {2: 2 * 5**level + 1, 5: 4 * 5 ** (level - 1), 4: 5 ** (level - 1) - 1}


def check_identity(svg: Path):
    def check(state, out: str) -> str | None:
        heights = json.loads(out)["heights"]
        if heights != state.identity5:
            return "level-5 identity heights differ from identity(5)"
        if Counter(heights) != identity_histogram(5):
            return f"level-5 identity height histogram {dict(Counter(heights))}"
        rects = svg.read_text(encoding="utf-8").count("<rect ")
        svg.unlink()
        if rects != vertices(5):
            return f"svg has {rects} rects for {vertices(5)} vertices"
        return None

    return check


class Cli:
    """Each job runs the seven commands once, one at a time, with --workers 1."""

    name = "cli"
    setup_reps = 3
    # commands take about a second each: more readings for the same share
    kernel_reps = 8
    warmup = False
    trace_jobs = 1
    checks_per_job = 7
    rss_of = resource.RUSAGE_CHILDREN

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def prepare(self, vs):
        """Exact values the command outputs must equal, computed in-process."""
        return SimpleNamespace(
            absorb=tuple(vs.absorption_probabilities()),
            pmf=vs.radius_pmf_table(1000),
            identity5=vs.identity(5).heights.tolist(),
        )

    def job(self, state, seed: int, index: int) -> tuple[int, int]:
        rng = _job_rng(seed, index)
        return _draw_seed(rng), _draw_seed(rng)

    def commands(self, job: tuple[int, int]) -> list[tuple[str, list[str], object]]:
        chain_seed, sandpile_seed = job
        svg = self.tmp / "identity5.svg"
        return [
            ("cold_start", ["chain", "absorb"], check_absorb),
            ("graph", ["graph", "--level", "6"], check_graph),
            ("group", ["group", "--level", "3"], check_group),
            ("chain_pmf", ["chain", "pmf", "--max-n", "1000"], check_pmf),
            (
                "mc_chain",
                ["mc", "--mode", "chain", "--level", "6", "--trials", "1000000",
                 "--seed", str(chain_seed), "--workers", "1"],
                check_mc(1000000),
            ),
            (
                "mc_sandpile",
                ["mc", "--mode", "sandpile", "--level", "4", "--trials", "2000",
                 "--seed", str(sandpile_seed), "--workers", "1"],
                check_mc(2000),
            ),
            ("identity_render", ["identity", "--level", "5", "--render", str(svg)], check_identity(svg)),
        ]

    def run(self, state, job: tuple[int, int], clock, tracer) -> Outcome:
        spans_path = self.tmp / "spans.json"
        failures = []
        for label, args, check in self.commands(job):
            if tracer is None:
                argv = [sys.executable, "-m", f"{PACKAGE}.cli", *args]
            else:
                argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *args]
            try:
                proc = clock.time(
                    lambda: subprocess.run(
                        argv, cwd=self.root, env=self.env, capture_output=True,
                        text=True, timeout=COMMAND_TIMEOUT_S,
                    ),
                    label,
                )
            except subprocess.TimeoutExpired:
                failures.append(f"{label}: no exit within {COMMAND_TIMEOUT_S} s")
                continue
            if tracer is not None:
                tracer.extend(json.loads(spans_path.read_text(encoding="utf-8")), len(clock.steps) - 1)
                spans_path.unlink()
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            try:
                problem = check(state, proc.stdout)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                failures.append(f"{label}: {problem}")
        return Outcome(self.checks_per_job, failures, self.checks_per_job)


def make(name: str, root: Path, tmp: Path):
    if name == "verify":
        return Verify()
    if name == "sample":
        return Sample()
    if name == "cli":
        return Cli(root, tmp)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("verify", "sample", "cli")
