"""Seeded request lists for the three benchmark workloads.

A workload is a fixed plan of *slots*.  A slot fixes everything that sets
a request's cost: its kind, scenario and observable, ladder length, N of a
custom transition, and the stratum of each tunnel parameter.  The seed
draws the values: ladder bounds, delta_f, random states, Hamiltonians,
bases and targets, and each tunnel parameter inside its stratum.

The closed loop runs the plan in passes, and every pass uses a fresh
*variant* of each slot (new values, same cost class), so no timed request
repeats an earlier one and a cache keyed on a request's inputs cannot
serve it.  Variant 0 is kept for the untimed warm-up and its replay, which
checks that identical requests give identical bytes.

Every request is a plain JSON-serialisable dict, and every input file a
request names (custom configs, ``--psi``/``--targets`` files) is written
here, before any timing starts.  The same seed gives byte-identical
requests and files; another seed gives other ones.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("sweep", "tomography", "tunnel")

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and the metric names, units and bounds."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def why(workload: str) -> str:
    """The one-line reason a workload exists, kept in BENCHMARK.json."""
    return next(w["why"] for w in benchmark_spec()["workloads"] if w["name"] == workload)


# (kind, scenario, observable or N of a custom transition, ladder, points).
# Built-in sweeps cover every observable; their 12 lengths are
# 50 * 20 ** ((i + 0.5) / 12), i = 0..11, and the 4 custom lengths
# 50 * 4 ** ((i + 0.5) / 4), spread over N = 2-8.  Custom transitions in
# slots 0-4 and 10-14 have a degenerate observable, half of the sweeps.
SWEEP_SLOTS = (
    ("sweep", "spin100", "sigma_z", "log", 93),
    ("sweep", "cheshire", "PL", "log", 536),
    ("sweep", "custom", 4, "log", 119),
    ("sweep", "threebox", "P1", "lin", 197),
    ("run", "threebox", "P2", None, 1),
    ("sweep", "spin100", "identity", "lin", 883),
    ("sweep", "threebox", "P2", "log", 57),
    ("sweep", "custom", 8, "lin", 59),
    ("sweep", "cheshire", "PR", "lin", 325),
    ("strong", "cheshire", "PL", None, 1),
    ("sweep", "spin100", "P1", "log", 417),
    ("sweep", "cheshire", "sigmaL", "log", 73),
    ("sweep", "custom", 2, "log", 168),
    ("sweep", "threebox", "P3", "lin", 688),
    ("run", "custom", 5, None, 1),
    ("sweep", "spin100", "P2", "lin", 154),
    ("sweep", "threebox", "P1", "log", 253),
    ("sweep", "custom", 6, "lin", 84),
    ("sweep", "cheshire", "sigmaR", "lin", 120),
    ("strong", "spin100", "sigma_z", None, 1),
)

# (kind, N).  Costs spread from 3 ms (N = 2) to 1 s (N = 16); N = 6 fills
# five of the twenty slots, ranks 9-13 by cost, so the median falls inside
# one class rather than on the edge between two.
TOMOGRAPHY_SLOTS = (
    ("library", 2), ("library", 8), ("library", 6), ("design", 16),
    ("library", 3), ("library", 12), ("library", 6), ("library", 4),
    ("design", 64), ("library", 6), ("library", 2), ("library", 16),
    ("library", 6), ("design", 256), ("library", 7), ("library", 4),
    ("library", 6), ("design", 1024), ("library", 8), ("library", 10),
)

# (stratum of log d, of p, of the packet width), each out of TUNNEL_STRATA;
# the three orders are permutations of one another, so each range is
# covered once per pass.
TUNNEL_STRATA = 5
TUNNEL_SLOTS = ((0, 2, 4), (3, 0, 1), (1, 4, 3), (4, 1, 0), (2, 3, 2))
# d stops at 12, where |T(p)| >= 2.8e-8 over the momentum range: the seed
# commit raises GridError on opaque barriers once |T(p)| falls to about
# 2-4e-10 (d >= 16 at p = 0.3), and a workload must not contain requests
# that fail.
TUNNEL_WIDTH_RANGE = (2.0, 12.0)
TUNNEL_MOMENTUM_RANGE = (0.2, 1.3)
TUNNEL_PACKET_RANGE = (200.0, 1000.0)

SLOTS = {"sweep": SWEEP_SLOTS, "tomography": TOMOGRAPHY_SLOTS, "tunnel": TUNNEL_SLOTS}

# What each workload sends, per pass.
MIX = {
    "sweep": (
        "20 slots: 12 built-in sweeps (spin100, cheshire, threebox, every "
        "observable; log and linear ladders of 57-883 points, H = 0), 4 custom "
        "sweeps (N = 2, 4, 6, 8, random Hermitian H, T > 0, half of them "
        "with a degenerate observable; 59-168 points), 2 run (one custom, "
        "N = 5) and 2 run --strong."),
    "tomography": (
        "20 slots: 16 library requests (N in {2,2,3,4,4,6,6,6,6,6,7,8,8,10,12,"
        "16}; projector_battery -> joint_weak_means -> reconstruct_alphas -> "
        "predict_strong, then one reconstruct_from_operator_family) and 4 "
        "wmpath design requests (N = 16, 64, 256, 1024; H = 0)."),
    "tunnel": (
        "5 slots of wmpath tunnel at V = mu = 1: barrier width d log-uniform "
        "in [2, 12], p uniform in [0.2, 1.3] (threshold sqrt 2), packet width "
        "uniform in [200, 1000], each range cut into 5 strata with one slot "
        "per stratum; flags and --config files alternate."),
}

# Variants generated per slot: variant 0 for warm-up, 1.. for the timed
# passes.  A loop that outruns them wraps round to variant 1.
VARIANTS = {"sweep": 40, "tomography": 24, "tunnel": 12}

# Slots replayed untimed (variant 0) before the clock starts and again
# after it stops: they warm caches and check determinism.
WARMUP = {"sweep": 20, "tomography": 20, "tunnel": 1}

# Slots in the traced run: the first pass's variants of a fixed prefix, so
# that counts repeat exactly between commits.
TRACE_SLOTS = {"sweep": 20, "tomography": 20, "tunnel": 5}


def _complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).ravel()]


def _complex_matrix(matrix) -> list:
    return [_complex_list(row) for row in np.asarray(matrix)]


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _exact_hermitian(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def _random_hamiltonian(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return _exact_hermitian(raw) / math.sqrt(n)


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Components of modulus in [0.5, 1.5] (never near zero)."""
    modulus = rng.uniform(0.5, 1.5, size=n)
    return modulus * np.exp(2j * np.pi * rng.random(n))


def _observable_values(rng: np.random.Generator, n: int,
                       degenerate: bool) -> np.ndarray:
    """Ascending eigenvalues in about [-3, 3], gaps >= 0.15, or a repeat."""
    values = np.cumsum(0.15 + rng.uniform(0.0, 0.85, size=n))
    values = values - values.mean()
    if degenerate:
        values[1] = values[0]
    return np.sort(values)


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _output_args(name: str, number: int, directory: str) -> tuple[str, str, list]:
    fmt = "json" if number % 4 == 3 else "csv"
    out = os.path.join(directory, "out", f"{name}.{fmt}")
    args = ["--out", out, "--format", fmt]
    if fmt == "csv":
        args.append("--no-header-meta")
    return fmt, out, args


def _ladder(rng: np.random.Generator, ladder: str) -> tuple[float, float]:
    if ladder == "log":
        return 10.0 ** rng.uniform(-2.5, -1.0), 10.0 ** rng.uniform(1.5, 4.0)
    return rng.uniform(0.1, 0.5), rng.uniform(3.0, 10.0)


def _custom_config(rng: np.random.Generator, n: int, degenerate: bool) -> dict:
    observable = _random_unitary(rng, n)
    values = _observable_values(rng, n, degenerate)
    obs_matrix = _exact_hermitian((observable * values) @ observable.conj().T)
    return {
        "name": "custom",
        "psi": _complex_list(_random_state(rng, n)),
        "phi": _complex_list(_random_state(rng, n)),
        "hamiltonian": _complex_matrix(_random_hamiltonian(rng, n)),
        "total_time": float(rng.uniform(0.5, 2.0)),
        "observable": _complex_matrix(obs_matrix),
    }


def _sweep_request(rng, slot: int, variant: int, directory: str) -> dict:
    kind, scenario, detail, ladder, points = SWEEP_SLOTS[slot]
    name = f"{slot}_{variant}"
    fmt, out, out_args = _output_args(name, slot + variant, directory)
    request = {"kind": kind, "fmt": fmt, "out": out}
    if kind == "strong":
        request["argv"] = ["run", "--scenario", scenario, "--strong", detail] + out_args
        request["check"] = {"scenario": scenario, "observable": detail}
        return request

    if scenario == "custom":
        config = _custom_config(rng, detail, degenerate=slot // 5 % 2 == 0)
        config_path = os.path.join(directory, f"config_{name}.json")
        _write_json(config_path, config)
        source = ["--config", config_path]
        check = {"scenario": "custom", "config": config}
    else:
        source = ["--scenario", scenario, "--observable", detail]
        check = {"scenario": scenario, "observable": detail}

    if kind == "run":
        delta_f = float(10.0 ** rng.uniform(-1.0, 1.0))
        request["argv"] = ["run"] + source + ["--delta-f", repr(delta_f)] + out_args
    else:
        lo, hi = _ladder(rng, ladder)
        request["argv"] = (["sweep"] + source
                           + ["--delta-f-min", repr(float(lo)),
                              "--delta-f-max", repr(float(hi)),
                              "--points", str(points)]
                           + (["--log"] if ladder == "log" else [])
                           + out_args)
    check["rows"] = points
    request["check"] = check
    return request


def _family_eigenvalues(rng: np.random.Generator, n: int) -> np.ndarray:
    """A well-conditioned N x N eigenvalue matrix S[j, i]."""
    return 2.0 * np.eye(n) + rng.uniform(-0.4, 0.4, size=(n, n))


def _tomography_request(rng, slot: int, variant: int, directory: str) -> dict:
    kind, n = TOMOGRAPHY_SLOTS[slot]
    if kind == "library":
        return {
            "kind": "tomography",
            "n": n,
            "psi": _complex_list(_random_state(rng, n)),
            "phi": _complex_list(_random_state(rng, n)),
            "hamiltonian": _complex_matrix(_random_hamiltonian(rng, n)),
            "total_time": float(rng.uniform(0.5, 2.0)),
            "basis": _complex_matrix(_random_unitary(rng, n)),
            "family": _family_eigenvalues(rng, n).tolist(),
            "delta_f": float(10.0 ** rng.uniform(1.0, 3.0)),
        }
    name = f"{slot}_{variant}"
    psi = _random_state(rng, n)
    targets = (rng.uniform(-2.0, 2.0, size=n)
               + 1j * rng.uniform(-2.0, 2.0, size=n)) / math.sqrt(n)
    targets[-1] += 1.0 - targets.sum()
    psi_path = os.path.join(directory, f"psi_{name}.json")
    targets_path = os.path.join(directory, f"targets_{name}.json")
    _write_json(psi_path, _complex_list(psi))
    _write_json(targets_path, _complex_list(targets))
    fmt, out, out_args = _output_args(name, slot // 4 + variant, directory)
    return {
        "kind": "design", "fmt": fmt, "out": out,
        "argv": ["design", "--psi", psi_path, "--targets", targets_path] + out_args,
        "check": {"psi_file": psi_path, "targets_file": targets_path, "rows": n},
    }


def _in_stratum(rng: np.random.Generator, stratum: int, lo: float, hi: float) -> float:
    return lo + (hi - lo) * (stratum + rng.random()) / TUNNEL_STRATA


def _tunnel_request(rng, slot: int, variant: int, directory: str) -> dict:
    s_width, s_momentum, s_packet = TUNNEL_SLOTS[slot]
    log_lo, log_hi = (math.log(w) for w in TUNNEL_WIDTH_RANGE)
    width = math.exp(_in_stratum(rng, s_width, log_lo, log_hi))
    momentum = _in_stratum(rng, s_momentum, *TUNNEL_MOMENTUM_RANGE)
    packet_width = _in_stratum(rng, s_packet, *TUNNEL_PACKET_RANGE)
    params = {"barrier_height": 1.0, "barrier_width": width, "mass": 1.0,
              "momentum": momentum, "packet_width": packet_width}
    name = f"{slot}_{variant}"
    fmt, out, out_args = _output_args(name, slot + variant, directory)
    if (slot + variant) % 2:
        config_path = os.path.join(directory, f"tunnel_{name}.json")
        _write_json(config_path, params)
        source = ["--config", config_path]
    else:
        source = ["--barrier-height", "1.0",
                  "--barrier-width", repr(width), "--mass", "1.0",
                  "--momentum", repr(momentum),
                  "--packet-width", repr(packet_width)]
    return {"kind": "tunnel", "fmt": fmt, "out": out,
            "argv": ["tunnel"] + source + out_args, "check": params}


_GENERATORS = {
    "sweep": _sweep_request,
    "tomography": _tomography_request,
    "tunnel": _tunnel_request,
}


def generate(workload: str, seed: int, directory: str) -> list[list[dict]]:
    """Write the workload's input files under ``directory``.

    Returns ``plan[variant][slot]``, one request per slot and variant.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(os.path.join(directory, "out"), exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = _GENERATORS[workload]
    return [[make(rng, slot, variant, directory) for slot in range(len(SLOTS[workload]))]
            for variant in range(VARIANTS[workload])]
