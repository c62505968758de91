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
absolute bound of 2.5e-16 a term, 1e-15 in all, instead. S_exact, the sum
of four E_exact terms at two nonzero phases each, is held to absolute bounds
of the same kind, on CHSH settings that include zero crossings of E.

The sampled estimates E_hat = (s - d)/n and stderr = 2 sqrt(s d/(n - 1))/n
are checked against their exact values, computed from the counts with
fractions and Decimal, for counts up to the largest the CLI accepts.
"""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from biphoton.analysis import chsh, correlation, marginals
from biphoton.commands import _MAX_COUNT
from biphoton.montecarlo import estimate_counts
from biphoton.optics import ChshSettings, Visibility, _wrap_angles, joint_tables

VISIBILITIES = (1.0, 0.83, 0.5, 1.0 / math.sqrt(2.0), 0.0)
# |E_exact - v cos d| may reach this much for each of the four terms of E (the
# worst over this grid is 8.1e-16 in all, at v = 1).
E_TERM_BOUND = 2.5e-16
# With both phases nonzero, each E_exact term of S is within this much of
# v cos(phi_a - phi_b) of the wrapped doubles (the worst of 48 000 terms over
# [-10, 10], a quarter of them within 1e-8 of a zero of E, was 1.09e-15) ...
E_PAIR_BOUND = 1.5e-15
# ... and S_exact within three roundings of the exact sum of its four terms:
# each at most half an ulp of a partial sum below 4 in magnitude.
S_SUM_BOUND = 3 * 2.0**-52


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


def _chsh_settings() -> list[ChshSettings]:
    """120 CHSH settings over [-10, 10]. In every other one, a - b and a' - b'
    lie within 1e-8 of a zero of E, at pi/2 and -pi/2."""
    rng = np.random.default_rng(20261020)
    settings = []
    for k in range(120):
        a, a_prime, b, b_prime = rng.uniform(-10.0, 10.0, 4).tolist()
        if k % 2:
            b, b_prime = (a - math.pi / 2 + rng.uniform(-1e-8, 1e-8),
                          a_prime + math.pi / 2 + rng.uniform(-1e-8, 1e-8))
        settings.append(ChshSettings(a, a_prime, b, b_prime))
    return settings


@pytest.mark.parametrize("v", VISIBILITIES)
def test_s_exact_is_within_its_stated_bound_of_its_four_terms(v):
    vis = Visibility(v)
    worst_term = worst_sum = 0.0
    with mpmath.workdps(40):
        for s in _chsh_settings():
            e = correlation(s.tables(vis)).tolist()
            phases = [(s.a, s.b), (s.a, s.b_prime), (s.a_prime, s.b), (s.a_prime, s.b_prime)]
            for got, pair in zip(e, phases):
                pa, pb = _wrap_angles(np.array(pair)).tolist()
                exact = v * mpmath.cos(mpmath.mpf(pa) - mpmath.mpf(pb))
                worst_term = max(worst_term, float(abs(mpmath.mpf(got) - exact)))
            terms = sum(map(Fraction, e[:3])) - Fraction(e[3])
            worst_sum = max(worst_sum, float(abs(Fraction(chsh(s, vis)) - terms)))
    assert worst_term <= E_PAIR_BOUND
    assert worst_sum <= S_SUM_BOUND


def _nine_digits(x: Decimal) -> Decimal:
    """x correctly rounded to 9 significant digits."""
    return x.quantize(Decimal(1).scaleb(x.adjusted() - 8)) if x else x


def _counts() -> list[tuple[int, int]]:
    """(same, opposite) counts: the smallest and largest the CLI can report,
    then 2000 pairs with each count log-uniform up to _MAX_COUNT / 2."""
    rng = random.Random(20261020)
    top = math.log(_MAX_COUNT / 2)
    pairs = [(1, 1), (2, 0), (0, 2), (1, 2), (_MAX_COUNT - 1, 1), (1, _MAX_COUNT - 1),
             (_MAX_COUNT // 2, _MAX_COUNT - _MAX_COUNT // 2)]
    pairs += [(int(math.exp(rng.uniform(0.0, top))), int(math.exp(rng.uniform(0.0, top))))
              for _ in range(2000)]
    return [(s, d) for s, d in pairs if s + d >= 2]


def test_sampled_estimate_and_stderr_print_the_correctly_rounded_exact_value():
    # A double off its exact value by up to ~1.5 ulp could print the other
    # neighbour of a 9-digit rounding midpoint it lies that close to; no
    # count pair here does.
    wrong = []
    with localcontext() as ctx:
        ctx.prec = 60
        for same, diff in _counts():
            n = same + diff
            result = estimate_counts((same, diff, 0, 0))
            mean = Fraction(same - diff, n)
            exact_mean = Decimal(mean.numerator) / Decimal(mean.denominator)
            exact_stderr = 2 * (Decimal(same * diff) / Decimal(n - 1)).sqrt() / n
            for got, want in ((result.estimate, exact_mean), (result.stderr, exact_stderr)):
                if Decimal("%.9g" % got) != _nine_digits(want):
                    wrong.append((same, diff, "%.9g" % got, str(_nine_digits(want))))
    assert wrong == []
