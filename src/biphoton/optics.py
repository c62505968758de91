"""Two-photon interferometer: source states, optical elements, and the exact
joint detection distribution as a function of the local phase settings.

``joint_tables`` is the one statement of the circuit (source -> phase
shifters -> splitters -> matched-outcome table), on arrays of settings, and
``joint_distribution`` is its table at one pair of settings. The source
amplitudes and the splitter entries are arrays of the constants in
``records``, from which the labelled model (``linalg``) builds its source
state and splitters, so both views hold the same numbers.

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

import math

import numpy as np

from .records import BS_ENTRIES, SOURCE_AMPS, checked_fields

TWO_PI = 2.0 * math.pi

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


class PhaseSettings(checked_fields("phi_a", "phi_b")):
    """Local phase-shifter settings, normalized into [0, 2pi)."""

    __slots__ = ()

    def __new__(cls, phi_a: float, phi_b: float):
        return super().__new__(cls, *_wrap_angles(np.array([phi_a, phi_b], dtype=float)).tolist())


class Visibility(checked_fields("v")):
    """Fringe contrast v in [0, 1]; v = 1 is the ideal instrument."""

    __slots__ = ()

    def __new__(cls, v: float = 1.0):
        v = float(v)
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"visibility must lie in [0, 1], got {v!r}")
        return super().__new__(cls, v)


_SOURCE_AMPS = np.array(SOURCE_AMPS, dtype=complex)
_BS_ENTRIES = np.array(BS_ENTRIES, dtype=complex)


def _shifted_source(phi_a, phi_b) -> np.ndarray:
    """Source amplitudes after the shifters (phi_a on A2, phi_b on B1), with
    shape (4,) + the broadcast shape of the settings."""
    # Phase on each path pair (A1B1, A1B2, A2B1, A2B2): phi_b on B1, phi_a on A2.
    phase = np.zeros((4,) + np.broadcast(phi_a, phi_b).shape)
    phase[0], phase[3] = phi_b, phi_a
    # Only the settings need wrapping: row 1 stays 0, and row 2 is set next.
    phase[::3] = _wrap_angles(phase[::3])
    phase[2] = phase[0] + phase[3]
    return _SOURCE_AMPS.reshape((4,) + (1,) * (phase.ndim - 1)) * np.exp(1j * phase)


# Both splitters on the path pairs, as beam_splitter("A") (x) beam_splitter("B").
_BS4 = np.kron(_BS_ENTRIES, _BS_ENTRIES)
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
    shifted = _shifted_source(phi_a, phi_b)
    # einsum rounds each point like one matrix-vector product; a BLAS
    # matrix-matrix product over the grid would round differently.
    out = np.einsum("ij,j...->i...", _BS4, shifted)
    raw = (out * out.conj()).real
    v = vis.v
    return v * raw[_PORTS_OF_OUTCOMES] + (1.0 - v) * 0.25


def joint_distribution(settings: PhaseSettings, vis: Visibility) -> np.ndarray:
    """joint_tables at one pair of settings: the (4,) table in OUTCOMES order."""
    return joint_tables(settings.phi_a, settings.phi_b, vis)
