"""One benchmark run inside a fresh process.

    python3 perfbench/worker.py --setup-probe
    python3 perfbench/worker.py --workload W --requests FILE --seconds S \
        --trace 0|1 [--spans FILE]

The setup probe times ``import wmpath``, building the CLI parser and
constructing (and so verifying) every built-in scenario, then the
calibration kernel, and prints the set-up time unscaled and scaled.  A
run executes the workload's warm-up requests untimed, then drives a
closed loop with one client: each request starts when the previous one
has finished and been checked.  Checks run outside the timed region.  With
``--trace 1`` it times a fixed prefix of the first pass untraced, then again
with the tracer installed, and reports per-layer metrics.  Either way the
first warm-up requests run once more at the end and must give the same
bytes.  The last line of stdout is one JSON object.

Only the standard library is imported at module level, so the probe's
clock starts before numpy and wmpath load.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

REPLAY_SLOTS = 6   # warm-up requests run again after the loop


def setup_probe() -> dict:
    """Set-up time, unscaled and scaled by the kernel timed in this process."""
    start = time.perf_counter()
    import wmpath  # noqa: F401
    from wmpath.cli import build_parser
    from wmpath.scenarios import SCENARIO_NAMES, get_scenario

    build_parser()
    for name in SCENARIO_NAMES:
        get_scenario(name)
    setup = time.perf_counter() - start

    from calibrate import REFERENCE_S, kernel_seconds

    kernel_seconds()   # the first call pays for LAPACK's lazy set-up
    kernel = statistics.median(kernel_seconds() for _ in range(5))
    return {"raw_s": setup, "setup_s": setup * REFERENCE_S / kernel}


@dataclass
class Outcome:
    index: int                    # variant * slots + slot
    slot: int
    kind: str
    latency: float
    problems: list[str] = field(default_factory=list)
    error: str | None = None       # exception class, or what the CLI printed
    signature: str = ""           # output digest, or the error, for replays
    rows: int = 0
    leakage: float | None = None
    floored: bool = False         # the tunnel oracle check used its d / 100 floor
    scale: float = 1.0            # REFERENCE_S / calibration kernel time

    @property
    def scaled(self) -> float:
        """The latency at the calibration's reference speed."""
        return self.latency * self.scale

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    """Executes and checks the requests of one plan, ``plan[variant][slot]``.

    Every input of every workload is valid by construction, so a request
    that raises, exits non-zero, fails its check or differs from an
    identical earlier request is a wrong output.
    """

    def __init__(self, plan: list[list[dict]]):
        import checks
        import wmpath
        import wmpath.cli

        self.plan = plan
        self.slots = len(plan[0])
        self.checks = checks
        self.wm = wmpath
        self.cli = wmpath.cli
        self.first_signature: dict[int, str] = {}
        self.mismatches = 0

    def _tomography(self, request: dict):
        wm = self.wm   # attributes are looked up per call, so traced if wrapped
        spec, basis, operators = self.checks.tomography_inputs(request)
        pointer = wm.GaussianPointer(request["delta_f"])
        battery = wm.projector_battery(basis, pointer)
        alphas = wm.reconstruct_alphas(wm.joint_weak_means(spec, battery), pointer)
        predicted = wm.predict_strong(alphas)
        family = wm.MeterBattery(operators, pointer)
        result = wm.reconstruct_from_operator_family(
            wm.joint_weak_means(spec, family), family, basis=basis)
        return alphas, predicted, result

    def execute(self, variant: int, slot: int, tracer=None) -> Outcome:
        request = self.plan[variant][slot]
        index = variant * self.slots + slot
        kind = request["kind"]
        if kind == "tomography":
            call = lambda: self._tomography(request)  # noqa: E731
        else:
            stderr = io.StringIO()

            def call():
                with contextlib.redirect_stderr(stderr):
                    return self.cli.main(request["argv"])

        start = time.perf_counter()
        try:
            result = tracer.request(index, kind, call) if tracer else call()
            raised = None
        except Exception as exc:   # a failed request; the loop goes on
            result, raised = None, type(exc).__name__
        latency = time.perf_counter() - start

        outcome = Outcome(index=index, slot=slot, kind=kind, latency=latency,
                          error=raised)
        if kind == "tomography":
            self._finish_tomography(request, result, outcome)
        else:
            self._finish_cli(request, result, stderr.getvalue(), outcome)
        self._compare_replay(index, outcome)
        return outcome

    def _finish_tomography(self, request, result, outcome: Outcome) -> None:
        if outcome.error:
            outcome.problems.append(f"raised {outcome.error}")
            outcome.signature = f"raised {outcome.error}"
            return
        try:
            outcome.problems += self.checks.check_tomography(request, result)
        except Exception as exc:   # the reference itself failed
            outcome.problems.append(f"check could not run: {exc!r}")
        alphas, predicted, family = result
        digest = hashlib.sha256()
        for array in (alphas.alphas, predicted.omegas, family.alphas.alphas,
                      family.predicted_omegas.omegas):
            digest.update(array.tobytes())
        digest.update(repr(family.condition_number).encode())
        outcome.signature = digest.hexdigest()

    def _finish_cli(self, request, code, stderr: str, outcome: Outcome) -> None:
        data = None
        if os.path.exists(request["out"]):
            with open(request["out"], "rb") as handle:
                data = handle.read()
            os.remove(request["out"])
        if outcome.error:
            outcome.problems.append(f"raised {outcome.error}")
            outcome.signature = f"raised {outcome.error}"
            return
        if code != 0:
            outcome.error = stderr.split(":", 1)[0].strip() or f"exit {code}"
            outcome.signature = f"exit {code} {outcome.error}"
        else:
            outcome.signature = hashlib.sha256(data or b"").hexdigest()
        try:
            outcome.problems += self.checks.CLI_CHECKS[request["kind"]](request, code, data)
        except Exception as exc:   # unreadable output, or the reference failed
            outcome.problems.append(f"check could not run: {exc!r}")
        if outcome.ok:
            _, rows = self.checks.parse_table(data, request["fmt"])
            outcome.rows = len(rows)
            if request["kind"] == "tunnel":
                outcome.leakage = rows[0]["leakage"]
                outcome.floored = self.checks.oracle_floor_applies(
                    rows[0], request["check"]["barrier_width"])

    def _compare_replay(self, index: int, outcome: Outcome) -> None:
        first = self.first_signature.setdefault(index, outcome.signature)
        if first != outcome.signature:
            self.mismatches += 1
            outcome.problems.append("output differs from an identical earlier request")


def _quantile(values: list[float], q: int) -> float | None:
    """The q-th percentile (inclusive method); None below 2 samples."""
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def closed_loop(runner: Runner, seconds: float, kernel=None) -> dict:
    """Passes over the slots until ``seconds`` of request time is spent.

    The loop stops at the first request that ends past ``seconds``, but
    not before one whole pass.  Pass k runs variant 1 + k (wrapping round),
    so every timed request is new to the process.  ``kernel()`` (see
    calibrate.py) is timed before the first request and after each one,
    and each latency is scaled by REFERENCE_S over the median kernel time
    around it.  A slot's figure is the median of its scaled latencies over
    the passes; the slots' costs are fixed, so the figures do not depend
    on the seed.
    """
    from calibrate import REFERENCE_S, window

    outcomes: list[Outcome] = []
    kernel_times = [kernel()] if kernel else []
    elapsed = 0.0
    passes = 0
    while elapsed < seconds or len(outcomes) < runner.slots:
        variant = 1 + passes % (len(runner.plan) - 1)
        slot = len(outcomes) % runner.slots
        outcome = runner.execute(variant, slot)
        if kernel:
            kernel_times.append(kernel())
        elapsed += outcome.latency
        outcomes.append(outcome)
        passes += slot == runner.slots - 1
    if kernel:
        for index, outcome in enumerate(outcomes):
            outcome.scale = REFERENCE_S / window(kernel_times, index)
    per_slot = [[o.scaled for o in outcomes if o.ok and o.slot == slot]
                for slot in range(runner.slots)]
    medians = [statistics.median(times) for times in per_slot if times]
    every = [o.latency for o in outcomes if o.ok]
    return {
        "outcomes": outcomes,
        "passes": len(outcomes) / runner.slots,
        "timed_s": elapsed,
        "slot_median_s": [statistics.median(t) if t else None for t in per_slot],
        "latency_p50_s": statistics.median(medians) if medians else None,
        "goodput_rps": len(medians) / sum(medians) if medians else None,
        "speed": statistics.median(o.scale for o in outcomes),
        "raw_p50_s": statistics.median(every) if every else None,
        "raw_p90_s": _quantile(every, 90),
        "raw_rps": len(every) / elapsed,
    }


def _layer_totals(tracer, outcomes: list[Outcome]) -> dict:
    """Calls and self time per layer and per function, plus counters.

    Keys are ``<layer>.<stat>`` and ``<layer>.<function>.<stat>``; the run
    reports the ones BENCHMARK.json lists, and 0 for any never seen.
    """
    self_time = tracer.self_times()
    kinds = {o.index: o.kind for o in outcomes}
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    cli_decompositions = 0
    for span in tracer.spans:
        if span.name.startswith("request."):
            continue
        layer = span.name.split(".", 1)[0]
        for key in (layer, span.name):
            add(f"{key}.calls", 1)
            add(f"{key}.self_s", self_time[span.span_id])
        if span.name == "hilbert.spectral_decompose" and kinds[span.request_id] != "tomography":
            cli_decompositions += 1
        if span.name == "tunneling.shift_amplitudes" and span.value is not None:
            add("tunneling.shift_grid_nodes", span.value)
        if span.name == "tunneling.transmission_amplitude":
            add("tunneling.transmission_amplitude.points", span.value)

    rows = sum(o.rows for o in outcomes if o.kind != "tomography")
    leakages = [o.leakage for o in outcomes if o.leakage is not None]
    totals["cli.rows"] = rows
    totals["hilbert.decompositions_per_row"] = cli_decompositions / rows if rows else 0.0
    totals["tunneling.leakage_max"] = max(leakages) if leakages else 0.0
    return totals


def _summary(outcomes: list[Outcome]) -> dict:
    kinds: dict[str, int] = {}
    errors: dict[str, int] = {}
    for o in outcomes:
        kinds[o.kind] = kinds.get(o.kind, 0) + 1
        if o.error:
            errors[o.error] = errors.get(o.error, 0) + 1
    failures = [{"index": o.index, "problems": o.problems} for o in outcomes if not o.ok]
    return {
        "attempted": len(outcomes),
        "failed": len(failures),
        "requests_by_kind": kinds,
        "errors_by_class": errors,
        "oracle_floor_hits": sum(o.floored for o in outcomes),
        "check_failures": failures,
    }


def run(args) -> dict:
    import numpy
    import workloads
    import wmpath

    source = os.path.realpath(os.path.join("src", "wmpath"))
    if os.path.dirname(os.path.realpath(wmpath.__file__)) != source:
        raise SystemExit(f"wmpath imported from {wmpath.__file__}, not {source}")
    with open(args.requests, encoding="utf-8") as handle:
        plan = json.load(handle)

    runner = Runner(plan)
    warmup_slots = range(workloads.WARMUP[args.workload])
    warmup = [runner.execute(0, slot) for slot in warmup_slots]
    result: dict = {"numpy": numpy.__version__}
    if not args.trace:
        from calibrate import kernel_seconds

        loop = closed_loop(runner, args.seconds, kernel_seconds)
        outcomes = loop.pop("outcomes")
        result.update(loop)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        leakages = [o.leakage for o in outcomes if o.leakage is not None]
        result["leakage_max"] = max(leakages) if leakages else None
    else:
        from tracer import Tracer

        slots = range(workloads.TRACE_SLOTS[args.workload])
        untraced = [runner.execute(1, slot) for slot in slots]
        tracer = Tracer()
        tracer.install()
        outcomes = [runner.execute(1, slot, tracer) for slot in slots]
        tracer.uninstall()
        layers = _layer_totals(tracer, outcomes)
        layers["trace_overhead_s"] = (sum(o.latency for o in outcomes)
                                      - sum(o.latency for o in untraced))
        result["per_layer"] = layers
        result["untraced"] = _summary(untraced)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    # the first warm-up requests again, now that the loop has run: same bytes
    replay = [runner.execute(0, slot) for slot in warmup_slots[:REPLAY_SLOTS]]
    result["warmup"] = _summary(warmup + replay)
    result.update(_summary(outcomes))
    result["replay_mismatches"] = runner.mismatches
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--requests")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.setup_probe:
        result = setup_probe()
    else:
        result = run(args)
    print(json.dumps(result, allow_nan=False, default=_finite))
    return 0


def _finite(value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value}")
    return value


if __name__ == "__main__":
    sys.exit(main())
