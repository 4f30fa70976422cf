"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench

They cover seeded input generation, the output checkers and their
reference, which outcomes make a run wrong, the closed loop's per-slot
figures, the tracer, BENCHMARK.json, and a smoke-length run of every
workload.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Outcome, Runner, closed_loop  # noqa: E402

import wmpath.cli  # noqa: E402


@pytest.fixture
def scratch():
    """A temporary directory inside the checkout, removed afterwards."""
    base = os.path.join(ROOT, run.TEMP_ROOT)
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=base)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(base)
    except OSError:
        pass


def _generate(workload, seed, directory):
    plan = workloads.generate(workload, seed, directory)
    return json.loads(json.dumps(plan).replace(directory, "<dir>"))


def _requests(workload, seed, directory):
    return [r for variant in workloads.generate(workload, seed, directory) for r in variant]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload, scratch):
    dirs = [os.path.join(scratch, name) for name in ("a", "b", "c")]
    first = _generate(workload, 7, dirs[0])
    again = _generate(workload, 7, dirs[1])
    other = _generate(workload, 8, dirs[2])
    assert first == again
    assert first != other
    files = sorted(f for f in os.listdir(dirs[0]) if f.endswith(".json"))
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
    assert mismatch == [] and errors == [] and len(match) == len(files)
    assert len(first) == workloads.VARIANTS[workload]
    assert all(len(variant) == len(workloads.SLOTS[workload]) for variant in first)


def _without_paths(value):
    """A request with every generated file path dropped."""
    if isinstance(value, dict):
        return {k: _without_paths(v) for k, v in value.items() if k != "out"}
    if isinstance(value, list):
        return [_without_paths(v) for v in value if not str(v).startswith("<dir>")]
    return value


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_variants_share_a_slot_s_cost_class_but_not_its_inputs(workload, scratch):
    plan = _generate(workload, 7, scratch)
    for slot in range(len(plan[0])):
        variants = [variant[slot] for variant in plan]
        kind = variants[0]["kind"]
        assert {v["kind"] for v in variants} == {kind}
        if kind in ("sweep", "run", "design"):
            assert len({v["check"]["rows"] for v in variants}) == 1
        if kind not in ("strong", "design"):   # these take no drawn values inline
            inputs = {json.dumps(_without_paths(v)) for v in variants}
            assert len(inputs) == len(variants)


def test_tunnel_draws_cover_the_stated_ranges_and_stay_transparent(scratch):
    from wmpath.tunneling import BarrierSpec, transmission_amplitude

    plan = workloads.generate("tunnel", 3, scratch)
    log_lo, log_hi = (math.log(w) for w in workloads.TUNNEL_WIDTH_RANGE)
    for variant in plan:
        params = [r["check"] for r in variant]
        strata = sorted(int(workloads.TUNNEL_STRATA * (math.log(p["barrier_width"]) - log_lo)
                            / (log_hi - log_lo)) for p in params)
        assert strata == list(range(workloads.TUNNEL_STRATA))
        for p in params:
            assert 0.2 <= p["momentum"] <= 1.3 and 200.0 <= p["packet_width"] <= 1000.0
            barrier = BarrierSpec(p["barrier_height"], p["barrier_width"], p["mass"])
            # GridError starts near |T| = 2e-10; keep two decades of margin
            assert abs(transmission_amplitude(barrier, p["momentum"])) > 2e-8


def _cli_output(request):
    code = wmpath.cli.main(request["argv"])
    with open(request["out"], "rb") as handle:
        return code, handle.read()


def _first(requests, kind):
    return next(r for r in requests if r["kind"] == kind)


def _sweep_request(scratch):
    requests = _requests("sweep", 5, scratch)
    return next(r for r in requests if r["kind"] == "sweep" and r["fmt"] == "csv")


def test_checker_accepts_a_correct_sweep(scratch):
    request = _sweep_request(scratch)
    code, data = _cli_output(request)
    assert checks.check_meter_rows(request, code, data) == []


def test_checker_rejects_a_perturbed_mean(scratch):
    request = _sweep_request(scratch)
    code, data = _cli_output(request)
    columns, rows = checks.parse_table(data, "csv")
    target = next(row for row in rows if 0.1 <= row["delta_f"] <= 10.0)
    target["mean_f_exact"] *= 1.0 + 1e-4
    lines = [",".join(columns)] + [",".join(f"{row[c]:.16e}" for c in columns)
                                   for row in rows]
    perturbed = ("\n".join(lines) + "\n").encode()
    problems = checks.check_meter_rows(request, code, perturbed)
    assert any("mean_f_exact" in p for p in problems)


def test_checker_rejects_a_dropped_row(scratch):
    request = _sweep_request(scratch)
    code, data = _cli_output(request)
    dropped = b"\n".join(data.splitlines()[:-1]) + b"\n"
    assert checks.check_meter_rows(request, code, dropped) != []


def test_checker_rejects_a_nonzero_exit(scratch):
    request = _sweep_request(scratch)
    _, data = _cli_output(request)
    assert checks.check_meter_rows(request, 3, data) == ["exit code 3"]


@pytest.mark.parametrize("workload,kind", [("sweep", "strong"), ("sweep", "run"),
                                           ("tomography", "design")])
def test_checker_accepts_other_correct_outputs(workload, kind, scratch):
    request = _first(_requests(workload, 5, scratch), kind)
    code, data = _cli_output(request)
    assert checks.CLI_CHECKS[kind](request, code, data) == []


def _tunnel_request(scratch, width, momentum, packet_width=709.5977272495318):
    params = {"barrier_height": 1.0, "barrier_width": width, "mass": 1.0,
              "momentum": momentum, "packet_width": packet_width}
    out = os.path.join(scratch, "tunnel.csv")
    argv = ["tunnel", "--out", out, "--no-header-meta"]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    return {"kind": "tunnel", "fmt": "csv", "out": out, "argv": argv, "check": params}


def _csv(columns, rows) -> bytes:
    lines = [",".join(columns)] + [",".join(f"{row[c]!r}" for c in columns)
                                   for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_tunnel_check_where_the_delay_crosses_zero(scratch):
    # thin barrier near threshold: delta_x is 3e-3 and the packet oracle
    # sits 2.2 % above it, a second-order effect, not a wrong output
    request = _tunnel_request(scratch, 2.6563589572390165, 1.2446701604857893)
    code, data = _cli_output(request)
    columns, rows = checks.parse_table(data, "csv")
    row = rows[0]
    phase = row["delta_x_phase"]
    assert abs(row["oracle_dx"] - phase) > checks.ORACLE_TOL * abs(phase)
    assert checks.oracle_floor_applies(row, request["check"]["barrier_width"])
    assert checks.check_tunnel(request, code, data) == []

    # the floor is d / 100, so an oracle 1e-3 off (2 % of 0.05) is wrong
    wrong_oracle = dict(row, oracle_dx=phase + 1e-3)
    assert any("oracle_dx" in p for p in
               checks.check_tunnel(request, 0, _csv(columns, [wrong_oracle])))
    # the integral-vs-phase relation has no floor: 1.5 % of |delta_x| is wrong
    wrong_integral = dict(row, delta_x_integral=phase * 1.015)
    assert any("delta_x_integral" in p for p in
               checks.check_tunnel(request, 0, _csv(columns, [wrong_integral])))


def test_reference_amplitudes_match_the_library(scratch):
    import wmpath as wm

    request = next(r for r in _requests("tomography", 5, scratch)
                   if r["kind"] == "tomography" and r["n"] >= 6)
    spec, basis, _ = checks.tomography_inputs(request)
    direct = checks.direct_amplitudes(
        spec.psi.amplitudes, spec.phi.amplitudes, spec.hamiltonian.entries,
        spec.total_time, basis.eigenvectors)
    library = wm.path_amplitudes(spec.with_observable(basis)).amplitudes
    assert abs(direct - library).max() < 1e-12


def test_an_error_or_a_failed_reference_fails_the_request(scratch):
    request = _sweep_request(scratch)
    refused = dict(request, argv=request["argv"] + ["--points", "0"])
    outcome = Runner([[refused]]).execute(0, 0)
    assert outcome.error == "ConfigError" and not outcome.ok

    broken_reference = dict(request, check=dict(request["check"], scenario="nonesuch"))
    outcome = Runner([[broken_reference]]).execute(0, 0)
    assert any("check could not run" in p for p in outcome.problems)


def test_grid_error_on_an_opaque_barrier_fails_the_request(scratch):
    request = _tunnel_request(scratch, 200.0, 0.6, packet_width=400.0)
    outcome = Runner([[request]]).execute(0, 0)
    assert outcome.error == "GridError" and not outcome.ok


class _StubRunner:
    """Slot s of pass k takes LATENCIES[k][s] seconds; slot 1 fails in pass 0."""

    LATENCIES = [[1.0, 5.0, 2.0], [3.0, 4.0, 0.5], [2.0, 6.0, 1.0]]

    def __init__(self):
        self.plan = [None] * 3
        self.slots = 3
        self.calls = []

    def execute(self, variant, slot):
        passes = len(self.calls) // self.slots
        self.calls.append((variant, slot))
        outcome = Outcome(index=variant * 3 + slot, slot=slot, kind="stub",
                          latency=self.LATENCIES[passes][slot])
        if (passes, slot) == (0, 1):
            outcome.problems.append("wrong")
        return outcome


def test_closed_loop_stops_on_time_and_takes_each_slot_s_median():
    runner = _StubRunner()
    loop = closed_loop(runner, seconds=12.0)
    # passes of 8 and 7.5 s: the clock passes 12 s in the second pass's
    # second request, and the loop stops there
    assert loop["passes"] == 5 / 3
    assert runner.calls == [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
    assert loop["slot_median_s"] == [2.0, 4.0, 2.0]   # slot 1's failure left out
    assert loop["latency_p50_s"] == 2.0
    assert loop["goodput_rps"] == pytest.approx(3 / 8.0)


def test_closed_loop_scales_by_the_kernel_times_around_each_request():
    from calibrate import REFERENCE_S

    # the machine runs at half the reference speed until the second pass;
    # request 3's window holds three slow and three fast kernel times
    times = iter([2 * REFERENCE_S] * 4 + [REFERENCE_S] * 3)
    loop = closed_loop(_StubRunner(), seconds=15.2, kernel=lambda: next(times))
    scales = [o.scale for o in loop["outcomes"]]
    assert scales == pytest.approx([0.5, 0.5, 0.5, 2 / 3, 1.0, 1.0])
    assert loop["slot_median_s"] == pytest.approx([1.25, 4.0, 0.75])


def test_the_kernel_window_takes_the_median_around_a_request():
    import calibrate

    times = [1.0, 9.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    assert calibrate.WINDOW == 3
    # request 0 sits between times[0] and times[1]; three after it
    assert calibrate.window(times, 0) == statistics.median([1.0, 9.0, 2.0, 3.0])
    # request 4: times[2..7]
    assert calibrate.window(times, 4) == statistics.median(times[2:8])
    assert calibrate.window(times, 8) == statistics.median(times[6:9])


def test_tracer_spans_nest_and_restore(scratch):
    import wmpath.paths

    request = _sweep_request(scratch)
    original = wmpath.paths.evolve
    tracer = Tracer()
    tracer.install()
    try:
        assert wmpath.paths.evolve is not original
        tracer.request(0, "sweep", lambda: wmpath.cli.main(request["argv"]))
    finally:
        tracer.uninstall()
    assert wmpath.paths.evolve is original

    by_id = {span.span_id: span for span in tracer.spans}
    root = next(s for s in tracer.spans if s.parent_id is None)
    assert root.name == "request.sweep"
    decompose = [s for s in tracer.spans if s.name == "hilbert.spectral_decompose"]
    assert len(decompose) >= 2 * request["check"]["rows"]
    chain, span = [], decompose[0]
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        chain.append(span.name)
    assert "cli.main" in chain and chain[-1] == "request.sweep"
    self_time = tracer.self_times()
    assert all(value >= -1e-9 for value in self_time.values())
    assert sum(self_time.values()) == pytest.approx(root.end - root.start, rel=1e-6)


def _metric_names(kind):
    return {m["name"] for m in workloads.benchmark_spec()[kind]}


def test_benchmark_json_names_the_generated_workloads():
    spec = workloads.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for table in (workloads.SLOTS, workloads.VARIANTS, workloads.WARMUP,
                  workloads.TRACE_SLOTS, workloads.MIX):
        assert set(table) == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "0.5",
                   "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["attempted"] % len(workloads.SLOTS[workload]) == 0
    assert set(result["metrics"]) == _metric_names("end_to_end")


def test_smoke_traced_run():
    proc = _bench(["--workload", "sweep", "--seed", "1", "--seconds", "0.5",
                   "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == _metric_names("per_layer")
    assert result["metrics"]["hilbert.decompositions_per_row"]["value"] > 1.9


def test_refuses_to_run_without_the_package(scratch):
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    proc = _bench(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
