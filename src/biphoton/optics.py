"""Two-photon interferometer: source states, optical elements, and the exact
joint detection distribution as a function of the local phase settings.

Conventions, fixed package-wide:

  * Symmetric lossless 50/50 splitters; reflection picks up a factor i:
        |1> -> (|+> + i|->)/sqrt2      |2> -> (i|+> + |->)/sqrt2
  * The variable phase shifter sits on path A2 for party A and on path B1
    for party B, so the two-photon fringe argument is phi_a - phi_b.
  * Party B's detector ports are labelled so that equal settings give
    perfectly matched outcomes (correlation +1 at phi_a = phi_b). The
    opposite labelling only flips the sign of the correlation.
  * Detector imperfection is a single visibility v: the ideal distribution
    is mixed with the flat one, p = v * p_ideal + (1 - v)/4, which leaves
    every single-detector marginal at exactly 1/2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    Operator,
    StateVector,
    apply,
    compose,
    tensor_operator,
)

TWO_PI = 2.0 * math.pi
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

A_PATHS = ("A1", "A2")
B_PATHS = ("B1", "B2")
A_PORTS = ("A+", "A-")
B_PORTS = ("B+", "B-")
PATH_MODES = A_PATHS + B_PATHS
PORT_MODES = A_PORTS + B_PORTS

# Canonical outcome order for joint tables and inverse-CDF sampling.
OUTCOMES = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))


def _wrap_angles(phi: np.ndarray) -> np.ndarray:
    """Phases normalized into [0, 2pi); every entry must be finite."""
    finite = np.isfinite(phi)
    if np.count_nonzero(finite) < phi.size:
        raise ValueError(f"phase must be finite, got {float(phi[~finite][0])!r}")
    # A tiny negative can round up to exactly 2pi under one %; the second
    # takes that to 0 and leaves every other result as it is.
    return phi % TWO_PI % TWO_PI


@dataclass(frozen=True)
class PhaseSettings:
    """Local phase-shifter settings, normalized into [0, 2pi)."""

    phi_a: float
    phi_b: float

    def __post_init__(self):
        phis = np.array([self.phi_a, self.phi_b], dtype=float)
        phi_a, phi_b = _wrap_angles(phis).tolist()
        object.__setattr__(self, "phi_a", phi_a)
        object.__setattr__(self, "phi_b", phi_b)

    @property
    def delta(self) -> float:
        """Fringe argument phi_a - phi_b."""
        return self.phi_a - self.phi_b


@dataclass(frozen=True)
class Visibility:
    """Fringe contrast v in [0, 1]; v = 1 is the ideal instrument."""

    v: float = 1.0

    def __post_init__(self):
        v = float(self.v)
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"visibility must lie in [0, 1], got {v!r}")
        object.__setattr__(self, "v", v)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability table over the four paired detector outcomes."""

    settings: PhaseSettings
    probs: dict[tuple[str, str], float]

    def __post_init__(self):
        if set(self.probs) != set(OUTCOMES):
            raise ValueError(f"need exactly the outcomes {OUTCOMES}")
        probs = {k: float(self.probs[k]) for k in OUTCOMES}
        for pair, p in probs.items():
            if not (-1e-15 <= p <= 1.0 + 1e-15):
                raise ValueError(f"probability {p!r} for {pair} outside [0, 1]")
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, pair: tuple[str, str]) -> float:
        return self.probs[pair]


def superposed_state(theta: float = 0.0) -> StateVector:
    """Single photon split evenly over paths A1, A2 with relative phase theta.

    theta = 0 is the plain 50-50 superposition; both path probabilities are
    1/2 for every theta.
    """
    amps = np.array([_INV_SQRT2, cmath.exp(1j * theta) * _INV_SQRT2])
    return StateVector((A_PATHS,), amps)


def biphoton_state() -> StateVector:
    """Momentum-entangled pair: (|A1 B1> + |A2 B2>)/sqrt2."""
    amps = np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex)
    return StateVector((A_PATHS, B_PATHS), amps)


def phase_shifter(mode: str, phi: float) -> Operator:
    """Diagonal unitary multiplying one path mode's amplitude by e^{i phi}.

    Acts on the owning party's two-path space; output-port modes are not
    valid targets.
    """
    if mode in A_PATHS:
        party_paths = A_PATHS
    elif mode in B_PATHS:
        party_paths = B_PATHS
    elif mode in PORT_MODES:
        raise ValueError(f"phase shifters sit on paths, not detector ports: {mode!r}")
    else:
        raise ValueError(f"unknown mode {mode!r}; paths are {PATH_MODES}")
    diag = np.ones(2, dtype=complex)
    diag[party_paths.index(mode)] = cmath.exp(1j * float(phi))
    return Operator((party_paths,), (party_paths,), np.diag(diag))


_BS_ENTRIES = np.array([[1.0, 1j], [1j, 1.0]], dtype=complex) * _INV_SQRT2


def beam_splitter(party: str) -> Operator:
    """Symmetric 50/50 splitter taking a party's paths to its detector ports."""
    if party == "A":
        return Operator((A_PATHS,), (A_PORTS,), _BS_ENTRIES)
    if party == "B":
        return Operator((B_PATHS,), (B_PORTS,), _BS_ENTRIES)
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")


def phase_shift_operator(settings: PhaseSettings) -> Operator:
    """Both shifters (phi_a on A2, phi_b on B1) as one 4x4 diagonal unitary."""
    return tensor_operator(
        phase_shifter("A2", settings.phi_a), phase_shifter("B1", settings.phi_b)
    )


def circuit_operator(settings: PhaseSettings) -> Operator:
    """Full interferometer (shifters, then both splitters) as one 4x4 unitary."""
    splitters = tensor_operator(beam_splitter("A"), beam_splitter("B"))
    return compose(splitters, phase_shift_operator(settings))


def phased_biphoton_state(settings: PhaseSettings) -> StateVector:
    """Entangled source state after the two phase shifters, before splitting."""
    return apply(phase_shift_operator(settings), biphoton_state())


# The labelled circuit's matrices, cached for joint_tables.
_BS4 = tensor_operator(beam_splitter("A"), beam_splitter("B")).entries
_SOURCE_AMPS = biphoton_state().amplitudes
# Matched-outcome labelling: B's physical ports are read out swapped.
_PORTS_OF_OUTCOMES = np.array([1, 0, 3, 2])


def joint_tables(phi_a, phi_b, vis: Visibility) -> np.ndarray:
    """Exact Born probabilities of the four coincidence outcomes.

    phi_a and phi_b are floats or arrays that broadcast together; the result
    has shape (4,) + their broadcast shape, axis 0 in OUTCOMES order.
    Evaluates source -> phase shifters -> per-party splitters, reads the
    port probabilities under the matched-outcome labelling of B, and mixes
    with the flat distribution according to the visibility. The result is
    p(same ports) = v (1 + cos d)/4 + (1-v)/4 per pairing and
    p(opposite)  = v (1 - cos d)/4 + (1-v)/4, with d = phi_a - phi_b.
    """
    # Phase on each path pair (A1B1, A1B2, A2B1, A2B2): phi_b on B1, phi_a on A2.
    phase = np.zeros((4,) + np.broadcast(phi_a, phi_b).shape)
    phase[0], phase[3] = phi_b, phi_a
    phase = _wrap_angles(phase)
    phase[2] = phase[0] + phase[3]
    shifted = _SOURCE_AMPS.reshape((4,) + (1,) * (phase.ndim - 1)) * np.exp(1j * phase)
    # einsum rounds each point like one matrix-vector product; a BLAS
    # matrix-matrix product over the grid would round differently.
    out = np.einsum("ij,j...->i...", _BS4, shifted)
    raw = (out * out.conj()).real
    v = vis.v
    return v * raw[_PORTS_OF_OUTCOMES] + (1.0 - v) * 0.25


def joint_distribution(settings: PhaseSettings, vis: Visibility) -> JointDistribution:
    """joint_tables at one pair of settings, as a labelled table."""
    table = joint_tables(settings.phi_a, settings.phi_b, vis)
    return JointDistribution(settings, dict(zip(OUTCOMES, table.tolist())))
