"""The benchmark's own tests: statistics, spans, calibration, and a small
run of every workload with all output checks on.

    python3 -m pytest bench/tests
"""

import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import measure
import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert measure.tail(values) == (90.0, 90.0, 10)
    value, pct, beyond = measure.tail(values[:11])
    assert (value, beyond) == (1.0, 10)
    assert pct == pytest.approx(100 / 11)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_covered_part_of_children():
    s = [
        spans.Span("root", 0.0, 10.0, None, 0),
        spans.Span("a", 1.0, 4.0, 0, 0),
        spans.Span("leaf", 2.0, 3.0, 1, 0),
        spans.Span("b", 3.0, 6.0, 0, 1),  # overlaps a: covered once
        spans.Span("c", 9.0, 12.0, 0, 1),  # runs past its parent: clipped
    ]
    assert spans.self_times(s) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])
    totals = spans.layer_totals(s, 2.0, lambda span: span.name != "leaf")
    assert totals["root"]["self_s"] == pytest.approx(8.0)
    assert totals["b"]["calls"] == 1
    assert totals["leaf"]["calls"] == 0


def test_calibration_scales_to_nominal_kernel_speed():
    nominal = measure.NOMINAL_REF_MS
    clock = measure.Clock(
        steps=[measure.Step("", 1.0), measure.Step("", 2.0)],
        readings=[nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal, 9 * nominal],
    )
    # the reference is the mean of the run's readings
    assert clock.ref_ms() == pytest.approx(17 / 6 * nominal)
    assert clock.scaled() == pytest.approx([6 / 17, 12 / 17])


def test_clock_takes_kernel_readings_before_each_step():
    clock = measure.Clock(kernel_reps=3)
    clock.time(lambda: None)
    assert len(clock.readings) == 3 and clock.ref_ms() > 0
    assert len(clock.steps) == 1


def test_clock_records_a_step_that_raises():
    clock = measure.Clock()
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0, "boom")
    assert [s.label for s in clock.steps] == ["boom"]
    assert len(clock.readings) == 1


def smoke(name, tmp_path):
    workload = workloads.make(name, run.ROOT, tmp_path)
    attempted, failed, metrics, lines = run.measured_run(workload, seed=5, seconds=0)
    assert failed == 0, lines
    assert attempted == workload.checks_per_job
    assert set(metrics) == names("end_to_end")
    assert all(v > 0 for v in metrics.values()), metrics
    assert metrics["ok_frac"] == 1.0


@pytest.mark.parametrize("name", ["verify", "sample"])
def test_in_process_workload_smoke(name, tmp_path):
    smoke(name, tmp_path)


def test_cli_workload_smoke(tmp_path):
    smoke("cli", tmp_path)
    assert not list(tmp_path.iterdir())


def test_jobs_follow_the_seed():
    vs = workloads.fresh_import()
    sample = workloads.Sample()
    state = sample.prepare(vs)
    assert sample.job(state, 3, 7) == sample.job(state, 3, 7)
    assert sample.job(state, 3, 7) != sample.job(state, 4, 7)


def test_traced_counts_repeat_exactly_for_a_seed(tmp_path):
    exact = [n for n in names("per_layer") if n.endswith((".calls", ".topplings", ".sink_particles"))]
    out = tmp_path / "spans.json"
    first = run.traced_run(workloads.make("verify", run.ROOT, tmp_path), 2, 0, out)
    second = run.traced_run(workloads.make("verify", run.ROOT, tmp_path), 2, 0, out)
    assert first[1] == second[1] == 0
    assert {n: first[2][n] for n in exact} == {n: second[2][n] for n in exact}
    metrics = first[2]
    assert names("per_layer") <= set(metrics)
    assert metrics["sandpile.stabilize.topplings"] > 0
    assert metrics["identity.verify_identity.self_s"] > 0
    assert metrics["calib.ref_ms"] > 0
    dumped = json.loads(out.read_text(encoding="utf-8"))
    assert {d["name"] for d in dumped} >= {"identity.verify_identity", "sandpile.stabilize"}


def test_traced_cli_reaches_every_module(tmp_path):
    cli = workloads.make("cli", run.ROOT, tmp_path)
    attempted, failed, metrics, _ = run.traced_run(cli, 2, 0, tmp_path / "spans.json")
    assert failed == 0
    for module in spans.LAYERS:
        assert any(
            metrics[f"{module}.{fn}.self_s"] > 0 for fn in spans.LAYERS[module]
        ), module
    assert metrics["cli.import_s"] > 0
    assert metrics["chain.monte_carlo_stabilization.trials_per_s"] > 0


def test_tracer_uninstall_restores_originals():
    vs = workloads.fresh_import()
    original = vs.stabilize
    g = vs.build(0)
    tracer = spans.Tracer()
    tracer.install()
    assert vs.stabilize is not original
    assert vs.recurrence.stabilize is vs.stabilize
    vs.stabilize(g, vs.SandpileConfig([3, 0, 0]))
    assert [s.name for s in tracer.spans] == ["sandpile.stabilize"]
    assert tracer.spans[0].counts == {"topplings": 1, "sink_particles": 1}
    tracer.uninstall()
    assert vs.stabilize is original and vs.recurrence.stabilize is original


def test_wrong_identity_candidate_counts_as_a_failure():
    vs = workloads.fresh_import()
    wrong = workloads.Verify(candidate=lambda vs: vs.SandpileConfig.constant(vs.build(2), 2))
    _, _, outcome = run.run_job(wrong, wrong.prepare(vs), 1, measure.Clock())
    assert outcome.checked == 1 and len(outcome.failures) == 1


def test_job_that_raises_fails_every_check_it_would_make(tmp_path):
    cli = workloads.make("cli", run.ROOT, tmp_path)
    _, _, outcome = run.run_job(cli, None, None, measure.Clock())
    assert outcome.checked == len(outcome.failures) == 7


def test_cli_checks_reject_wrong_outputs():
    state = workloads.fresh_import()
    exact = workloads.Cli(run.ROOT, Path(".")).prepare(state)
    assert workloads.check_absorb(exact, "1,3/4,1/2,1/4,0\n") is None
    assert workloads.check_absorb(exact, "1,3/4,1/2,1/3,0\n")
    assert workloads.check_group(exact, json.dumps(["1"] * 125 + ["4"] * 250)) is None
    assert workloads.check_group(exact, json.dumps(["1"] * 124 + ["4"] * 250))
    assert workloads.check_graph(exact, '{"vertices": 46876, "edges": 93751}')
    rows = [f"{n},{q.numerator},{q.denominator},{float(q)!r}" for n, q in exact.pmf]
    assert workloads.check_pmf(exact, "\n".join(rows)) is None
    rows[2] = "2,1,7,0.14"
    assert workloads.check_pmf(exact, "\n".join(rows))
    far = {"result": {"trials": 100, "stabilized": 50, "exploded": 50, "truncated": 0,
                      "estimate": 0.5, "stderr": 0.01}}
    assert workloads.check_mc(100)(exact, json.dumps(far))
    short = dict(far["result"], stabilized=74, exploded=25, estimate=0.75)
    assert workloads.check_mc(100)(exact, json.dumps({"result": short}))


def test_identity_check_holds_the_paper_histogram(tmp_path):
    vs = workloads.fresh_import()
    assert Counter(vs.identity(3).heights.tolist()) == workloads.identity_histogram(3)
    svg = tmp_path / "id.svg"
    svg.write_text("<rect />" * workloads.vertices(5), encoding="utf-8")
    exact = SimpleNamespace(identity5=[2] * (3 * 5**5))
    assert "differ" in workloads.check_identity(svg)(exact, json.dumps({"heights": [3]}))
    svg.write_text("<rect />" * workloads.vertices(5), encoding="utf-8")
    out = json.dumps({"heights": exact.identity5})
    assert "histogram" in workloads.check_identity(svg)(exact, out)


def test_benchmark_json_matches_the_contract():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.NAMES)
    assert "setup_s" in names("end_to_end")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )
