"""Command-line front end.

Grammar::

    wmpath run    [--scenario NAME | --config FILE] [--observable NAME]
                  [--delta-f X] [--strong NAME] [common options]
    wmpath sweep  [--scenario NAME | --config FILE] [--observable NAME]
                  --delta-f-min X --delta-f-max Y --points N [--log]
                  [common options]
    wmpath design --psi FILE --targets FILE [common options]
    wmpath tunnel [--config FILE] [--barrier-height V] [--barrier-width D]
                  [--mass MU] [--momentum P] [--packet-width DX] [--time T]
                  [common options]

    common options: [--format csv|json] [--out FILE] [--no-header-meta]

Exit codes: 0 success, 2 configuration/validation failure, 3 numeric
failure (the error class name is printed on stderr either way).  Output is
deterministic: numbers are emitted with 17 significant digits and the only
timestamp lives in a comment line that ``--no-header-meta`` removes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import (
    ConfigError,
    TargetSumViolation,
    UnreachableTarget,
    WmpathError,
)
from .hilbert import HermitianMatrix, Observable, StateVector
from .meter import GaussianPointer, _accuracy_terms, _kernel_moments, _weak_momentum
from .paths import (
    EigenvaluePartition,
    TransitionSpec,
    _project,
    group,
    path_amplitudes,
    relative_amplitudes,
    strong_mean,
    strong_probabilities,
    weak_value,
)
from .scenarios import (
    SCENARIO_NAMES,
    DiscreteScenario,
    TunnelingScenario,
    get_scenario,
)
from .tomography import design_postselection
from .tunneling import (
    BarrierSpec,
    PacketSpec,
    momentum_shift,
    shift_amplitudes,
    simulate_transmission,
    weak_shift,
)

__all__ = ["main", "RunRecord"]

SWEEP_COLUMNS = ("delta_f", "mean_f_exact", "mean_lambda_exact",
                 "mean_f_weak_asym", "mean_lambda_weak_asym",
                 "mean_f_strong_asym", "norm")
TUNNEL_COLUMNS = ("p", "delta_x_phase", "delta_x_integral", "delta_k",
                  "oracle_dx", "oracle_dk", "leakage")


@dataclass
class RunRecord:
    """One command's table: ``columns`` over a 2-D float array ``data``.

    Construction checks finiteness once per column (WmpathError names the
    column); CSV cells use '%.16e', the bytes of f"{x:.16e}".
    """

    scenario: str
    columns: tuple[str, ...]
    data: np.ndarray
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        finite = np.isfinite(self.data).all(axis=0)
        if not finite.all():
            raise WmpathError(
                f"non-finite output in column '{self.columns[finite.argmin()]}'")

    def render_csv(self, include_meta: bool = True) -> str:
        lines = []
        if include_meta:
            lines.append(f"# wmpath scenario={self.scenario} generated={self.timestamp}")
        lines.append(",".join(self.columns))
        row_format = ",".join(["%.16e"] * len(self.columns))
        lines.extend(row_format % tuple(row) for row in self.data.tolist())
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        rows = [dict(zip(self.columns, row)) for row in self.data.tolist()]
        return json.dumps(rows, indent=2) + "\n"


# ---------------------------------------------------------------------------
# config-file parsing

def _parse_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im], got {value!r}")


def _parse_state(values, where: str) -> StateVector:
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{where}: expected a non-empty array")
    try:
        return StateVector([_parse_complex(v, where) for v in values])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_matrix(rows, where: str) -> HermitianMatrix:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ConfigError(f"{where}: expected a nested array")
    parsed = [[_parse_complex(v, where) for v in row] for row in rows]
    try:
        return HermitianMatrix(parsed)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class LoadedScenario:
    """A discrete scenario after config/CLI merging."""

    name: str
    transition: TransitionSpec
    observable: Observable
    partition: EigenvaluePartition
    observables: dict[str, Observable]


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _discrete_from_args(args) -> tuple[LoadedScenario, dict]:
    """Resolve --scenario/--config into a transition + observable."""
    config: dict = {}
    if getattr(args, "config", None):
        config = _load_config(args.config)
    name = getattr(args, "scenario", None) or config.get("name")
    if name is None:
        raise ConfigError("specify --scenario NAME or a config file with a name")
    obs_name = getattr(args, "observable", None)

    if name != "custom":
        scenario = get_scenario(name)
        if isinstance(scenario, TunnelingScenario):
            raise ConfigError(
                "scenario 'tunneling' is driven by the 'tunnel' subcommand")
        assert isinstance(scenario, DiscreteScenario)
        observable = scenario.observable(obs_name)
        partition = EigenvaluePartition.from_observable(observable)
        return (LoadedScenario(name=name,
                               transition=scenario.transition,
                               observable=observable,
                               partition=partition,
                               observables=dict(scenario.observables)),
                config)

    for key in ("psi", "phi", "observable"):
        if key not in config:
            raise ConfigError(f"custom scenario config lacks '{key}'")
    psi = _parse_state(config["psi"], "psi")
    phi = _parse_state(config["phi"], "phi")
    n = psi.dimension
    if config.get("hamiltonian") is None:
        hamiltonian = HermitianMatrix.zero(n)
    else:
        hamiltonian = _parse_matrix(config["hamiltonian"], "hamiltonian")
    total_time = float(config.get("total_time", 0.0))
    observable = Observable.from_matrix(_parse_matrix(config["observable"],
                                                      "observable"))
    try:
        transition = TransitionSpec(psi, phi, hamiltonian, total_time)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if config.get("partition") is not None:
        groups = config["partition"]
        values = []
        for g in groups:
            idx = [int(i) for i in g]
            if not idx or not all(0 <= i < n for i in idx):
                raise ConfigError(f"partition group {g} is empty or out of range")
            values.append(float(observable.eigenvalues[idx[0]]))
        try:
            partition = EigenvaluePartition(groups, values)
            partition.validate_against(observable)
        except ValueError as exc:
            raise ConfigError(f"partition: {exc}") from exc
    else:
        partition = EigenvaluePartition.from_observable(observable)
    return (LoadedScenario(name="custom", transition=transition,
                           observable=observable, partition=partition,
                           observables={}),
            config)


# ---------------------------------------------------------------------------
# measurement rows

def _measurement_record(loaded: LoadedScenario, ladder) -> RunRecord:
    """One row per accuracy delta_f, all from one set of path amplitudes
    and one pass of the meter kernel over the whole ladder."""
    spec = loaded.transition.with_observable(loaded.observable)
    amps = path_amplitudes(spec)
    weak = weak_value(loaded.observable, relative_amplitudes(amps))
    grouped = group(amps, loaded.partition)
    strong = strong_mean(loaded.partition.group_values,
                         strong_probabilities(grouped))
    mean_f, mean_lambda, norm = _kernel_moments(amps, loaded.observable, ladder)
    weak_lambda = _weak_momentum(weak, _accuracy_terms(ladder)[1])
    columns = (ladder, mean_f, mean_lambda, weak.real, weak_lambda, strong, norm)
    return RunRecord(scenario=loaded.name, columns=SWEEP_COLUMNS,
                     data=np.column_stack(np.broadcast_arrays(*columns)))


def _strong_record(loaded: LoadedScenario, strong_name: str) -> RunRecord:
    observable = loaded.observables.get(strong_name)
    if observable is None:
        raise ConfigError(
            f"scenario '{loaded.name}' has no observable '{strong_name}'")
    partition = EigenvaluePartition.from_observable(observable)
    spec = loaded.transition.with_observable(observable)
    grouped = group(path_amplitudes(spec), partition)
    stats = strong_probabilities(grouped)
    mean = strong_mean(partition.group_values, stats)
    columns = [name for i in range(1, stats.omegas.size + 1)
               for name in (f"group_value_{i}", f"omega_{i}")]
    values = np.column_stack((partition.group_values, stats.omegas)).ravel()
    return RunRecord(scenario=f"{loaded.name}:strong:{strong_name}",
                     columns=(*columns, "strong_mean"),
                     data=[[*values, mean]])


# ---------------------------------------------------------------------------
# subcommands

def _cmd_run(args):
    loaded, config = _discrete_from_args(args)
    if getattr(args, "strong", None):
        return _strong_record(loaded, args.strong), config.get("output")
    delta_f = args.delta_f if args.delta_f is not None else config.get("delta_f")
    if delta_f is None:
        delta_f = 1.0
    pointer = GaussianPointer(float(delta_f))  # rejects a bad accuracy first
    return _measurement_record(loaded, [pointer.delta_f]), config.get("output")


def _sweep_ladder(args, config: dict) -> np.ndarray:
    sweep_cfg = config.get("sweep") or {}
    if not isinstance(sweep_cfg, dict):
        raise ConfigError("config 'sweep' must be an object")
    lo = args.delta_f_min if args.delta_f_min is not None else sweep_cfg.get("min")
    hi = args.delta_f_max if args.delta_f_max is not None else sweep_cfg.get("max")
    points = args.points if args.points is not None else sweep_cfg.get("points")
    log = args.log or bool(sweep_cfg.get("log", False))
    if lo is None or hi is None or points is None:
        raise ConfigError("sweep needs --delta-f-min, --delta-f-max and --points")
    lo, hi, points = float(lo), float(hi), int(points)
    if not (0 < lo < hi < np.inf) or points < 2:
        raise ConfigError("sweep ladder needs 0 < min < max < inf and points >= 2")
    if log:
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def _cmd_sweep(args):
    loaded, config = _discrete_from_args(args)
    ladder = _sweep_ladder(args, config)
    return _measurement_record(loaded, ladder), config.get("output")


def _read_complex_array(path: str, where: str) -> list[complex]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {where} file {path}: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ConfigError(f"{where} file must hold a non-empty JSON array")
    return [_parse_complex(v, where) for v in data]


def _cmd_design(args):
    try:
        psi = StateVector(_read_complex_array(args.psi, "psi"))
    except ValueError as exc:
        raise ConfigError(f"psi: {exc}") from exc
    targets = np.array(_read_complex_array(args.targets, "targets"))
    if targets.size != psi.dimension:
        raise ConfigError(
            f"{targets.size} targets for a {psi.dimension}-component state")
    phi = design_postselection(psi, targets)

    n = psi.dimension
    # H = 0 and T = 0: the half steps are the states themselves, and the
    # amplitudes in basis order are their standard-basis components
    realized = relative_amplitudes(
        _project((phi.amplitudes, psi.amplitudes))).alphas
    error = float(np.abs(realized - targets).max())

    columns = ("index", "phi_re", "phi_im", "alpha_re", "alpha_im",
               "round_trip_error")
    data = np.column_stack((np.arange(n), phi.amplitudes.real,
                            phi.amplitudes.imag, realized.real, realized.imag,
                            np.full(n, error)))
    return RunRecord(scenario="design", columns=columns, data=data), None


def _cmd_tunnel(args):
    config = _load_config(args.config) if args.config else {}
    defaults = get_scenario("tunneling")
    assert isinstance(defaults, TunnelingScenario)

    def pick(cli_value, key, fallback):
        if cli_value is not None:
            return float(cli_value)
        if key in config:
            return float(config[key])
        return float(fallback)

    height = pick(args.barrier_height, "barrier_height", defaults.barrier.height)
    width = pick(args.barrier_width, "barrier_width", defaults.barrier.width)
    mass = pick(args.mass, "mass", defaults.barrier.mass)
    momentum = pick(args.momentum, "momentum", defaults.packet.momentum)
    packet_width = pick(args.packet_width, "packet_width", defaults.packet.delta_x)
    try:
        barrier = BarrierSpec(height=height, width=width, mass=mass)
        packet = PacketSpec(momentum=momentum, delta_x=packet_width)
        packet.require_sub_barrier(barrier)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    velocity = momentum / mass
    min_time = (10.0 * packet_width + width) / velocity
    time = pick(args.time, "time", 1.05 * min_time)

    dist = shift_amplitudes(barrier, momentum)
    dx_integral, dx_phase = weak_shift(barrier, momentum)
    dk = momentum_shift(barrier, packet)
    sim = simulate_transmission(barrier, packet, time)

    row = (momentum, dx_phase, dx_integral, dk, sim.delay_shift,
           sim.momentum_gain, dist.leakage)
    return (RunRecord(scenario="tunneling", columns=TUNNEL_COLUMNS, data=[row]),
            config.get("output"))


# ---------------------------------------------------------------------------
# wiring

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv, or the config's)")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--no-header-meta", action="store_true",
                        help="suppress the timestamped CSV comment line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmpath",
        description="Virtual-path statistics of pre/post-selected systems")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="single measurement row")
    run.add_argument("--scenario", choices=[n for n in SCENARIO_NAMES
                                            if n != "tunneling"])
    run.add_argument("--config")
    run.add_argument("--observable")
    run.add_argument("--delta-f", type=float, dest="delta_f")
    run.add_argument("--strong", help="emit strong statistics of this observable")
    _add_common(run)
    run.set_defaults(handler=_cmd_run)

    sweep = sub.add_parser("sweep", help="accuracy ladder")
    sweep.add_argument("--scenario", choices=[n for n in SCENARIO_NAMES
                                              if n != "tunneling"])
    sweep.add_argument("--config")
    sweep.add_argument("--observable")
    sweep.add_argument("--delta-f-min", type=float, dest="delta_f_min")
    sweep.add_argument("--delta-f-max", type=float, dest="delta_f_max")
    sweep.add_argument("--points", type=int)
    sweep.add_argument("--log", action="store_true")
    _add_common(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    design = sub.add_parser("design", help="post-selection realizing target amplitudes")
    design.add_argument("--psi", required=True)
    design.add_argument("--targets", required=True)
    _add_common(design)
    design.set_defaults(handler=_cmd_design)

    tunnel = sub.add_parser("tunnel", help="tunneling delay analysis")
    tunnel.add_argument("--config")
    tunnel.add_argument("--barrier-height", type=float, dest="barrier_height")
    tunnel.add_argument("--barrier-width", type=float, dest="barrier_width")
    tunnel.add_argument("--mass", type=float)
    tunnel.add_argument("--momentum", type=float)
    tunnel.add_argument("--packet-width", type=float, dest="packet_width")
    tunnel.add_argument("--time", type=float)
    _add_common(tunnel)
    tunnel.set_defaults(handler=_cmd_tunnel)
    return parser


def _emit(record: RunRecord, args, config_output: dict | None = None) -> None:
    config_output = config_output or {}
    if not isinstance(config_output, dict):
        raise ConfigError("config 'output' must be an object")
    out_format = args.format or config_output.get("format") or "csv"
    if out_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format '{out_format}'")
    destination = args.out or config_output.get("path")
    if out_format == "json":
        text = record.render_json()
    else:
        text = record.render_csv(include_meta=not args.no_header_meta)
    if destination:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, config_output = args.handler(args)
        _emit(record, args, config_output)
    except (ConfigError, TargetSumViolation, UnreachableTarget, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except WmpathError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
