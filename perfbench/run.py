"""wmpath benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep|tomography|tunnel \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  The run generates the workload's
inputs from the seed, then hands them to a fresh worker process that
drives a closed loop with one client for S seconds of request time and
checks every output.  Untraced runs also time set-up in fresh processes,
half of them before the worker and half after it.  Request and set-up
times are scaled to a reference machine speed (see calibrate.py).
Human-readable lines come first; the last line of stdout is the JSON
result.  Full results, with run metadata, go to ``.perfbench_out/``, and
traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from tracer import LAYERS

SETUP_PROBES = 12
RUN_DEADLINE_S = 170.0
TEMP_ROOT = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")


def _worker_env() -> tuple[dict, int]:
    """PYTHONPATH at src/, and one BLAS thread (within the usable CPU count).

    The load is one client in one process; a second BLAS thread would
    compete with whatever else shares the CPUs and add noise, and the
    matrices here (N <= 16, and diagonal or zero at N = 1024) gain nothing
    from it.
    """
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env, nproc


def _run_worker(args: list[str], env: dict, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, WORKER, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_facts() -> dict:
    files = sorted(glob.glob(os.path.join("src", "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(path.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def _openblas_version() -> str | None:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        return None


def _per_layer(totals: dict, units: dict) -> dict:
    """The listed per-layer metrics; 0 for a layer or function never called."""
    for name in units:
        if name != "trace_overhead_s" and name.split(".", 1)[0] not in LAYERS:
            raise SystemExit(f"BENCHMARK.json names {name!r}, which no layer reports")
    return {name: totals.get(name, 0.0) for name in units}


def _print_report(workload: str, args, metrics: dict, units: dict, result: dict,
                  context: dict) -> None:
    print(f"workload {workload}: seed {args.seed}, {args.seconds} s of request time, "
          f"closed loop, 1 client, 1 worker process "
          f"(no queue, so no wait time is recorded)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    if not args.trace:
        slots, passes = len(result["slot_median_s"]), f"{result['passes']:.2f}"
        print(f"  latency_p50_s and goodput_rps: request times scaled to the calibration "
              f"kernel's reference speed (this run: {result['speed']:.3f} of it), each of "
              f"{slots} slots at its median over {passes} passes")
        raw_setup = statistics.median(p["raw_s"] for p in context["setup_probes"])
        print(f"  setup_s: median of {SETUP_PROBES} fresh processes, each scaled by the "
              f"kernel timed in it (unscaled median {raw_setup:.6g} s)")
        ok = result["attempted"] - result["failed"]
        print(f"  unscaled, every timed request (n={ok}, not gated): "
              f"p50 {result['raw_p50_s']:.6g} s, p90 {result['raw_p90_s']:.6g} s, "
              f"{result['raw_rps']:.6g} 1/s")
        print(f"  {'fail_ratio':40s} {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} attempted; "
              f"errors {result['errors_by_class']})")
        if result.get("leakage_max") is not None:
            print(f"  {'leakage_max (reported, not gated)':40s} {result['leakage_max']:.6g}")
            print(f"  oracle_dx checked against the d/100 floor in "
                  f"{result['oracle_floor_hits']} of {ok} successful requests")
    for failure in (result["check_failures"] + result["warmup"]["check_failures"])[:5]:
        print(f"  CHECK FAILED request {failure['index']}: {failure['problems']}")
    print("context: " + json.dumps(context, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wmpath benchmark, one run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "wmpath", "__init__.py")):
        print("error: run from the root of a wmpath checkout (src/wmpath missing)",
              file=sys.stderr)
        return 2

    spec = workloads.benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.monotonic() + RUN_DEADLINE_S
    env, nproc = _worker_env()
    os.makedirs(TEMP_ROOT, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    scratch = tempfile.mkdtemp(prefix="run-", dir=TEMP_ROOT)
    try:
        plan = workloads.generate(args.workload, args.seed, scratch)
        request_file = os.path.join(scratch, "requests.json")
        with open(request_file, "w", encoding="utf-8") as handle:
            json.dump(plan, handle)

        def probe_setup() -> list[dict]:
            return [_run_worker(["--setup-probe"], env, deadline)
                    for _ in range(0 if args.trace else SETUP_PROBES // 2)]

        setup_probes = probe_setup()
        worker_args = ["--workload", args.workload, "--requests", request_file,
                       "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            worker_args += ["--spans", stem + ".spans.json"]
        result = _run_worker(worker_args, env, deadline)
        setup_probes += probe_setup()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(TEMP_ROOT)
        except OSError:
            pass

    if not args.trace and result["latency_p50_s"] is None:
        print("error: no request succeeded, so there is no latency to report",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = _per_layer(result["per_layer"], units)
    else:
        measured = {
            "latency_p50_s": result["latency_p50_s"],
            "goodput_rps": result["goodput_rps"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(p["setup_s"] for p in setup_probes),
        }
        metrics = {name: measured[name] for name in units}
    correct = not result["failed"] and not result["warmup"]["failed"]
    if args.trace:
        correct = correct and not result["untraced"]["failed"]
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.why(args.workload),
        "mix": workloads.MIX[args.workload],
        "load": "closed loop, 1 client, 1 worker process",
        "python": platform.python_version(), "numpy": result["numpy"],
        "openblas": _openblas_version(), "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "nproc": nproc, "slots": len(workloads.SLOTS[args.workload]),
        "passes": result.get("passes"), "requests_by_kind": result["requests_by_kind"],
        "errors_by_class": result["errors_by_class"],
        "replay_mismatches": result["replay_mismatches"],
        "setup_probes": setup_probes,
        **_source_facts(),
    }
    _print_report(args.workload, args, metrics, units, result, context)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "result": result, "context": context,
                   "correct": correct}, handle, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
