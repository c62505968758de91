"""Two-photon interferometer: source states, optical elements, and the exact
joint detection distribution as a function of the local phase settings.

``fringe_tables`` is the one statement of the circuit (source -> phase
shifters -> splitters -> matched-outcome table), over a run of party A's
settings at one setting of B's, in Python floats: this module loads no numpy.
``joint_tables`` is its view at one pair of settings, ``joint_distribution``
its table at a ``PhaseSettings``, and ``ChshSettings.tables`` its tables at the
four CHSH pairs, in their one fixed order. It is built from the constants in
``records``, as the labelled model (``linalg``) builds its source state and
splitters, so both views hold the same numbers.

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
from typing import Iterable, NamedTuple

from .records import BS_ENTRIES, SOURCE_AMPS, checked_fields

TWO_PI = 2.0 * math.pi

# Canonical outcome order for joint tables and inverse-CDF sampling.
OUTCOMES = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
Table = tuple[float, float, float, float]  # a joint table, in OUTCOMES order


def _wrap_angle(phi: float) -> float:
    """The phase phi normalized into [0, 2pi); it must be finite."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi!r}")
    # A tiny negative can round up to exactly 2pi under one %; the second
    # takes that to 0 and leaves every other result as it is.
    return phi % TWO_PI % TWO_PI


class PhaseSettings(checked_fields("phi_a", "phi_b")):
    """Local phase-shifter settings, normalized into [0, 2pi)."""

    __slots__ = ()

    def __new__(cls, phi_a: float, phi_b: float):
        return super().__new__(cls, _wrap_angle(phi_a), _wrap_angle(phi_b))


class Visibility(checked_fields("v")):
    """Fringe contrast v in [0, 1]; v = 1 is the ideal instrument."""

    __slots__ = ()

    def __new__(cls, v: float = 1.0):
        v = float(v)
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"visibility must lie in [0, 1], got {v!r}")
        return super().__new__(cls, v)


class ChshSettings(NamedTuple):
    """Two phase settings per party for the four-correlation CHSH sum."""

    a: float
    a_prime: float
    b: float
    b_prime: float

    def tables(self, vis: Visibility) -> list[Table]:
        """joint_tables of the pairs (a,b), (a,b'), (a',b), (a',b'), in that order:
        the fringe_tables of (a, a') at b and at b', interleaved."""
        a, a_prime, b, b_prime = self
        at_b = fringe_tables((a, a_prime), b, vis)
        at_b_prime = fringe_tables((a, a_prime), b_prime, vis)
        return [at_b[0], at_b_prime[0], at_b[1], at_b_prime[1]]


# Settings maximizing S for this instrument: S = 2 sqrt2 at full visibility.
CHSH_OPTIMAL = ChshSettings(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)


# beam_splitter("A") (x) beam_splitter("B"), row r at OUTCOMES[r]: A port a, B port b of
# the r-th (a, b) below, as B's ports are read out swapped. Only its columns A1B1 and A2B2
# are live, as each row's pair: the source has no A1B2 or A2B1 term.
_SPLITTERS = tuple((BS_ENTRIES[a][0] * BS_ENTRIES[b][0], BS_ENTRIES[a][1] * BS_ENTRIES[b][1])
                   for a, b in ((0, 1), (0, 0), (1, 1), (1, 0)))


def fringe_tables(phis_a: Iterable[float], phi_b: float, vis: Visibility) -> list[Table]:
    """Exact Born probabilities of the four coincidence outcomes, in OUTCOMES order, at
    each phi_a of phis_a in turn, with party B's setting at phi_b: one table per phi_a.

    Evaluates source -> phase shifters -> per-party splitters, reads the port
    probabilities under the matched-outcome labelling of B, and mixes with the flat
    distribution according to the visibility. The result is
    p(same ports) = v (1 + cos d)/4 + (1-v)/4 per pairing and
    p(opposite)  = v (1 - cos d)/4 + (1-v)/4, with d = phi_a - phi_b.
    Each splitter row's B1 term is formed once; a setting of A adds only its A2 term.
    """
    # phi_b shifts path B1, of the A1B1 term; phi_a path A2, of A2B2. A splitter
    # entry is real or imaginary, so each part of a product rounds once.
    b1 = SOURCE_AMPS[0] * cmath.exp(1j * _wrap_angle(phi_b))
    rows = [(a1b1 * b1, a2b2) for a1b1, a2b2 in _SPLITTERS]
    v = vis.v
    flat = (1.0 - v) * 0.25
    tables = []
    for phi_a in phis_a:
        a2 = SOURCE_AMPS[3] * cmath.exp(1j * _wrap_angle(phi_a))
        table = []
        for b_term, a2b2 in rows:
            o = b_term + a2b2 * a2
            table.append(v * (o.real * o.real + o.imag * o.imag) + flat)
        tables.append(tuple(table))
    return tables


def joint_tables(phi_a: float, phi_b: float, vis: Visibility) -> Table:
    """fringe_tables at one pair of settings: the table in OUTCOMES order."""
    return fringe_tables((phi_a,), phi_b, vis)[0]


def joint_distribution(settings: PhaseSettings, vis: Visibility) -> Table:
    """joint_tables at one pair of settings: the table in OUTCOMES order."""
    return joint_tables(settings.phi_a, settings.phi_b, vis)
