"""Joint-table statistics: marginals, correlation fringes, CHSH, and a no-signaling scan.

The quantities here make the central dichotomy of the simulated experiment
checkable: every single-detector marginal is flat at 1/2 whatever the phase
settings, while the paired-outcome correlation carries a full-contrast
fringe v cos(phi_a - phi_b) and violates the CHSH bound exactly when
v > 1/sqrt2.

Plain floats throughout: this module loads no numpy. ``sweep_correlation`` reads its
grid's tables as columns; ``marginals`` and ``correlation`` read one table.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .optics import ChshSettings, Table, Visibility, fringe_tables, joint_tables


class Marginals(NamedTuple):
    a_plus: float
    a_minus: float
    b_plus: float
    b_minus: float


def marginals(table: Table) -> Marginals:
    """Single-detector probabilities (row/column sums of the joint table)."""
    pp, pm, mp, mm = table
    return Marginals(pp + pm, mp + mm, pp + mp, pm + mm)


def correlation(table: Table) -> float:
    """Expectation of the +-1 outcome product: p(same) - p(opposite)."""
    pp, pm, mp, mm = table
    return pp + mm - pm - mp


def _span(column: Sequence[float]) -> tuple[float, float]:
    """Least and greatest entries of a float column; both NaN if it holds a NaN,
    which min and max pass over unless it is first, and the sum does not."""
    if math.isnan(sum(column)):
        return math.nan, math.nan
    return min(column), max(column)


class SweepResult(NamedTuple):
    """Exact correlation and singles over a grid of phase differences, and the
    joint tables they were read from: one entry per grid point, in grid order.
    singles holds the four singles as columns, one Marginals of lists."""

    delta_grid: list[float]
    tables: list[Table]
    correlations: list[float]
    singles: Marginals


def sweep_correlation(grid: Sequence[float], vis: Visibility) -> SweepResult:
    """Evaluate E and the four singles at phi_a = delta, phi_b = 0 per point."""
    if len(grid) == 0:
        raise ValueError("sweep grid must be non-empty")
    deltas = [float(delta) for delta in grid]
    tables = fringe_tables(deltas, 0.0, vis)
    # correlation() and marginals() of each table, as columns
    e = [pp + mm - pm - mp for pp, pm, mp, mm in tables]
    singles = Marginals([pp + pm for pp, pm, _, _ in tables], [mp + mm for _, _, mp, mm in tables],
                        [pp + mp for pp, _, mp, _ in tables], [pm + mm for _, pm, _, mm in tables])
    # Written so that a NaN anywhere fails them too: _span gives it NaN ends.
    e_min, e_max = _span(e)
    if not (-1.0 <= e_min and e_max <= 1.0):
        raise ValueError("correlation outside [-1, 1]")
    if not all(0.0 <= p_min and p_max <= 1.0 for p_min, p_max in map(_span, singles)):
        raise ValueError("marginal outside [0, 1]")
    return SweepResult(deltas, tables, e, singles)


def chsh(s: ChshSettings, vis: Visibility) -> float:
    """CHSH combination S = E(a,b) + E(a,b') + E(a',b) - E(a',b').

    Local-realistic models obey |S| <= 2; this instrument reaches
    2 sqrt2 * v, so S exceeds 2 exactly when v > 1/sqrt2.
    """
    e = [correlation(table) for table in s.tables(vis)]
    return e[0] + e[1] + e[2] - e[3]


def no_signaling_check(
    phi_a: float, phi_b_grid: Sequence[float], vis: Visibility
) -> float:
    """Worst deviation of either party's singles from 1/2 under remote scans.

    Scans phi_b over the grid at fixed phi_a and checks party A's marginal,
    then symmetrically scans phi_a over the same grid at fixed phi_b = phi_a
    and checks party B's. Returns the maximum |P(+) - 1/2| seen; any value
    above tolerance would mean one party's statistics respond to the other
    party's local setting.
    """
    if len(phi_b_grid) == 0:
        raise ValueError("no-signaling scan needs a non-empty grid")
    b_scans = [joint_tables(phi_a, phi, vis) for phi in phi_b_grid]
    a_scans = fringe_tables(phi_b_grid, phi_a, vis)
    return max(max(abs(marginals(t).a_plus - 0.5) for t in b_scans),
               max(abs(marginals(t).b_plus - 0.5) for t in a_scans))
