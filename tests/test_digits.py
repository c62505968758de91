"""Faithful digits: the exact table's printed texts against an arbitrary-precision oracle.

The CLI prints 9 significant digits, and the other oracles check the
circuit in the same double arithmetic, so they cannot say whether those
digits are right. Here mpmath, at 40 digits, gives the exact table of each
double input: with phi_b = 0 and d the wrapped double phi_a, the matched
outcomes have probability (1 + v cos d)/4 and the opposite ones
(1 - v cos d)/4, and every single is 1/2. The grid mixes a spread of phase
differences with fringe minima (delta = -pi, pi, 3pi) approached to within
1e-6, where the smallest probabilities (~1e-13 at v = 1) carry their digits
through a cancellation.

Each %.9g text of the four probabilities and of the four singles must read
as the exact value rounded to 9 significant digits. E_exact is
pp + mm - pm - mp of entries near 1/4, so near a zero crossing its digits
below ~1e-15 are rounding noise (README, `sweep`); it is held to an
absolute bound of 2.5e-16 a term, 1e-15 in all, instead.
"""

import math
from decimal import Decimal

import mpmath
import numpy as np
import pytest

from biphoton.analysis import correlation, marginals
from biphoton.optics import Visibility, _wrap_angles, joint_tables

VISIBILITIES = (1.0, 0.83, 0.5, 1.0 / math.sqrt(2.0), 0.0)
# |E_exact - v cos d| may reach this much for each of the four terms of E (the
# worst over this grid is 8.1e-16 in all, at v = 1).
E_TERM_BOUND = 2.5e-16


def _deltas() -> np.ndarray:
    """600 phase differences: 420 spread over [-10, 10] and 180 near the fringe
    minima at -pi, pi and 3pi, |delta - minimum| from 1e-1 down to 1e-6."""
    rng = np.random.default_rng(20261019)
    spread = rng.uniform(-10.0, 10.0, 420)
    offsets = np.repeat(10.0 ** -np.arange(1, 7), 10) * rng.choice([-1.0, 1.0], 60)
    minima = np.concatenate([m + offsets for m in (-math.pi, math.pi, 3 * math.pi)])
    return np.concatenate([spread, minima])


def _rounded(x) -> Decimal:
    """x, an mpf, correctly rounded to 9 significant digits."""
    exact = Decimal(mpmath.nstr(x, 40, strip_zeros=False))
    return exact.quantize(Decimal(1).scaleb(exact.adjusted() - 8))


@pytest.fixture(scope="module")
def exact_cosines():
    deltas = _deltas()
    with mpmath.workdps(40):
        return deltas, [mpmath.cos(mpmath.mpf(d)) for d in _wrap_angles(deltas).tolist()]


@pytest.mark.parametrize("v", VISIBILITIES)
def test_table_and_singles_print_the_correctly_rounded_exact_value(exact_cosines, v):
    deltas, cosines = exact_cosines
    table = joint_tables(deltas, 0.0, Visibility(v))
    singles = np.array(marginals(table))
    half = _rounded(mpmath.mpf(0.5))
    wrong = []
    with mpmath.workdps(40):
        for k, c in enumerate(cosines):
            same, opposite = _rounded((1 + v * c) / 4), _rounded((1 - v * c) / 4)
            for got, want in zip(table[:, k].tolist() + singles[:, k].tolist(),
                                 (same, opposite, opposite, same) + (half,) * 4):
                if Decimal("%.9g" % got) != want:
                    wrong.append((float(deltas[k]), "%.9g" % got, str(want)))
    assert wrong == []


@pytest.mark.parametrize("v", VISIBILITIES)
def test_e_exact_is_within_its_stated_bound(exact_cosines, v):
    deltas, cosines = exact_cosines
    e = correlation(joint_tables(deltas, 0.0, Visibility(v))).tolist()
    with mpmath.workdps(40):
        errors = [abs(mpmath.mpf(got) - v * c) for got, c in zip(e, cosines)]
    assert float(max(errors)) <= 4 * E_TERM_BOUND
