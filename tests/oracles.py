"""Independent reference implementations used as test oracles.

Nothing here imports the package's circuit or generator code: the joint
distribution is a hand expansion of the four two-photon amplitude paths as
literal scalar arithmetic, and the generator is a line-by-line scalar
transcription of the splitmix64 reference algorithm. The exact table as one
call per pair of settings evaluated it is kept, on constants of its own, as the
bit-for-bit reference for the tables of a run of settings. The sampler and the
estimator that the blocked, count-based core replaced are kept here as
whole-array numpy references.
"""

import cmath
import math

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Splitter amplitudes path -> port for the symmetric 50/50 convention:
# straight-through 1/sqrt2, reflected i/sqrt2.
_SPLIT = {
    (1, "+"): _INV_SQRT2 + 0.0j,
    (1, "-"): 1j * _INV_SQRT2,
    (2, "+"): 1j * _INV_SQRT2,
    (2, "-"): _INV_SQRT2 + 0.0j,
}
# Party B's ports are read out swapped (matched-outcome labelling).
_SPLIT_B = {(path, "+"): _SPLIT[(path, "-")] for path in (1, 2)}
_SPLIT_B.update({(path, "-"): _SPLIT[(path, "+")] for path in (1, 2)})


def joint_probs_reference(phi_a: float, phi_b: float, v: float) -> dict:
    """Hand-expanded coincidence probabilities for the two-branch source.

    Branch (A1, B1) carries weight e^{i phi_b}/sqrt2 (shifter on B1) and
    branch (A2, B2) carries e^{i phi_a}/sqrt2 (shifter on A2); each outcome
    amplitude is the two-path sum of branch weight times the two splitter
    amplitudes. The ideal table is then mixed with the flat one.
    """
    w1 = _INV_SQRT2 * cmath.exp(1j * phi_b)
    w2 = _INV_SQRT2 * cmath.exp(1j * phi_a)
    probs = {}
    for a in "+-":
        for b in "+-":
            amp = w1 * _SPLIT[(1, a)] * _SPLIT_B[(1, b)]
            amp += w2 * _SPLIT[(2, a)] * _SPLIT_B[(2, b)]
            probs[(a, b)] = v * abs(amp) ** 2 + (1.0 - v) * 0.25
    return probs


# Each party's splitter, and the splitter pair's live columns A1B1 and A2B2 in
# OUTCOMES row order (B's ports read out swapped), as records and optics build them
_BS_ENTRIES = ((_INV_SQRT2, 1j * _INV_SQRT2), (1j * _INV_SQRT2, _INV_SQRT2))
_LIVE_COLUMNS = tuple(
    (_BS_ENTRIES[a][0] * _BS_ENTRIES[b][0], _BS_ENTRIES[a][1] * _BS_ENTRIES[b][1])
    for a, b in ((0, 1), (0, 0), (1, 1), (1, 0))
)


def pair_table_reference(phi_a: float, phi_b: float, v: float) -> tuple:
    """The four coincidence probabilities in OUTCOMES order at one pair of
    settings, in the order of arithmetic the one-pair circuit used: both
    branch weights per call, then each row's two-term sum and its square."""
    two_pi = 2.0 * math.pi
    b1 = _INV_SQRT2 * cmath.exp(1j * (float(phi_b) % two_pi % two_pi))
    a2 = _INV_SQRT2 * cmath.exp(1j * (float(phi_a) % two_pi % two_pi))
    table = []
    for a1b1, a2b2 in _LIVE_COLUMNS:
        o = a1b1 * b1 + a2b2 * a2
        table.append(v * (o.real * o.real + o.imag * o.imag) + (1.0 - v) * 0.25)
    return tuple(table)


def correlation_reference(phi_a: float, phi_b: float, v: float) -> float:
    p = joint_probs_reference(phi_a, phi_b, v)
    return p[("+", "+")] + p[("-", "-")] - p[("+", "-")] - p[("-", "+")]


def chsh_reference(a, a_prime, b, b_prime, v) -> float:
    return (
        correlation_reference(a, b, v)
        + correlation_reference(a, b_prime, v)
        + correlation_reference(a_prime, b, v)
        - correlation_reference(a_prime, b_prime, v)
    )


_MASK64 = (1 << 64) - 1


def splitmix64_reference(seed: int, n: int) -> list[int]:
    """Straight transcription of the splitmix64 reference algorithm."""
    state = seed & _MASK64
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def whole_array_draw(probs, n: int, seed: int) -> np.ndarray:
    """n outcome indices drawn in one array: n splitmix64 doubles at once,
    each mapped through the cumulative table by inverse CDF."""
    state = np.uint64(seed & _MASK64)
    z = state + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return searchsorted_draw(np.cumsum(probs), u)


def searchsorted_draw(cdf, u) -> np.ndarray:
    """Inverse-CDF outcome indices of the doubles u: how many entries of the
    cumulative table cdf lie at or below each, capped at the last outcome."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), 3).astype(np.uint8)


def pm1_estimate_reference(n_same: int, n_diff: int) -> tuple[float, float]:
    """Mean and standard error of n_same scores +1 and n_diff scores -1, as
    the score-array estimator computed them: np.mean, and
    np.std(ddof=1) / sqrt(n).

    Past 2**18 scores the array is not built: the same two passes (mean,
    then squared deviations from it) run over the two distinct scores,
    weighted by their counts, in float64.
    """
    n = n_same + n_diff
    if n <= 2**18:
        scores = np.repeat([1.0, -1.0], [n_same, n_diff])
        return float(np.mean(scores)), float(np.std(scores, ddof=1) / math.sqrt(n))
    mean = float(n_same - n_diff) / n
    squares = n_same * (1.0 - mean) ** 2 + n_diff * (-1.0 - mean) ** 2
    return mean, math.sqrt(squares / (n - 1)) / math.sqrt(n)
