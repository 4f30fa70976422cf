"""Built-in scenario library for the command-line front end.

Each discrete scenario bundles a transition and a catalog of named
observables with a default selection; the catalog's observables are all
diagonal in the path basis, so any of them form one co-diagonal meter
battery.  The state pairs behind the named scenarios reproduce fixed
reference amplitudes (checked on every construction, so a corrupted build
fails loudly rather than emitting wrong tables):

* ``spin100``  -- two-path spin transition with relative amplitudes
  (50.5, -49.5); the weak meter for the z-component reads 100.
* ``cheshire`` -- four paths (left/right times spin up/down) with relative
  amplitudes (1/2, 1/2, 1/2, -1/2): the occupation meters read (1, 0) while
  the spin meters read (0, 1).
* ``threebox`` -- three paths with relative amplitudes (1, -1, 1): strong
  checks of path 1 and path 3 each succeed with certainty.
* ``tunneling`` -- opaque-barrier defaults (V=1, d=10, mu=1, p=0.8,
  packet width 500).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .hilbert import HermitianMatrix, Observable, StateVector
from .paths import TransitionSpec, _half_steps, _project, relative_amplitudes
from .tunneling import BarrierSpec, PacketSpec

__all__ = ["DiscreteScenario", "TunnelingScenario", "get_scenario",
           "SCENARIO_NAMES"]

SCENARIO_NAMES = ("spin100", "cheshire", "threebox", "tunneling")


@dataclass(frozen=True)
class DiscreteScenario:
    """A named transition plus its observable catalog."""

    name: str
    transition: TransitionSpec          # observable field unset
    observables: dict[str, Observable]
    default_observable: str
    reference_alphas: np.ndarray | None = None

    def observable(self, name: str | None = None) -> Observable:
        key = self.default_observable if name is None else name
        try:
            return self.observables[key]
        except KeyError:
            raise ConfigError(
                f"scenario '{self.name}' has no observable '{key}' "
                f"(choose from {sorted(self.observables)})") from None

    def verify(self):
        """Check the hard-coded state pair reproduces the reference alphas,
        projected onto the standard basis so they are indexed by path."""
        if self.reference_alphas is None:
            return
        alphas = relative_amplitudes(
            _project(_half_steps(self.transition))).alphas
        if np.abs(alphas - self.reference_alphas).max() > 1e-12:
            raise ConfigError(
                f"scenario '{self.name}' failed its startup verification: "
                f"alphas {alphas} != {self.reference_alphas}")


@dataclass(frozen=True)
class TunnelingScenario:
    name: str
    barrier: BarrierSpec
    packet: PacketSpec


def _spin100() -> DiscreteScenario:
    b = -99.0 / 101.0
    psi = StateVector([1.0, 1.0])
    phi = StateVector([1.0, b])
    transition = TransitionSpec(psi, phi, HermitianMatrix.zero(2))
    observables = {
        "sigma_z": Observable.from_matrix(np.diag([1.0, -1.0])),
        "identity": Observable.from_matrix(np.diag([1.0, 1.0])),
        "P1": Observable.from_matrix(np.diag([1.0, 0.0])),
        "P2": Observable.from_matrix(np.diag([0.0, 1.0])),
    }
    return DiscreteScenario(
        name="spin100",
        transition=transition,
        observables=observables,
        default_observable="sigma_z",
        reference_alphas=np.array([50.5, -49.5], dtype=complex),
    )


def _cheshire() -> DiscreteScenario:
    # basis order: (left,up), (left,down), (right,up), (right,down)
    psi = StateVector([1.0, 1.0, 1.0, 1.0])
    phi = StateVector([1.0, 1.0, 1.0, -1.0])
    transition = TransitionSpec(psi, phi, HermitianMatrix.zero(4))
    observables = {
        "PL": Observable.from_matrix(np.diag([1.0, 1.0, 0.0, 0.0])),
        "PR": Observable.from_matrix(np.diag([0.0, 0.0, 1.0, 1.0])),
        "sigmaL": Observable.from_matrix(np.diag([1.0, -1.0, 0.0, 0.0])),
        "sigmaR": Observable.from_matrix(np.diag([0.0, 0.0, 1.0, -1.0])),
    }
    return DiscreteScenario(
        name="cheshire",
        transition=transition,
        observables=observables,
        default_observable="sigmaR",
        reference_alphas=np.array([0.5, 0.5, 0.5, -0.5], dtype=complex),
    )


def _threebox() -> DiscreteScenario:
    psi = StateVector([1.0, 1.0, 1.0])
    phi = StateVector([1.0, -1.0, 1.0])
    transition = TransitionSpec(psi, phi, HermitianMatrix.zero(3))
    observables = {
        "P1": Observable.from_matrix(np.diag([1.0, 0.0, 0.0])),
        "P2": Observable.from_matrix(np.diag([0.0, 1.0, 0.0])),
        "P3": Observable.from_matrix(np.diag([0.0, 0.0, 1.0])),
    }
    return DiscreteScenario(
        name="threebox",
        transition=transition,
        observables=observables,
        default_observable="P1",
        reference_alphas=np.array([1.0, -1.0, 1.0], dtype=complex),
    )


def _tunneling() -> TunnelingScenario:
    return TunnelingScenario(
        name="tunneling",
        barrier=BarrierSpec(height=1.0, width=10.0, mass=1.0),
        packet=PacketSpec(momentum=0.8, delta_x=500.0),
    )


def get_scenario(name: str):
    """Look up a built-in scenario; discrete ones are verified on the spot."""
    builders = {
        "spin100": _spin100,
        "cheshire": _cheshire,
        "threebox": _threebox,
        "tunneling": _tunneling,
    }
    try:
        scenario = builders[name]()
    except KeyError:
        raise ConfigError(
            f"unknown scenario '{name}' (choose from {SCENARIO_NAMES})") from None
    if isinstance(scenario, DiscreteScenario):
        scenario.verify()
    return scenario
