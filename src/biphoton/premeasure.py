"""Unitary detection model: a two-path system coupled to a three-state
detector component (ready, D1, D2).

The coupling is defined on the ready subspace by |Ai>|ready> -> |Ai>|Di>
and completed to a 6x6 unitary with controlled swaps (conditioned on A1,
swap ready and D1; conditioned on A2, swap ready and D2). Any completion
agreeing on the ready subspace produces the same post-coupling states; the
swap completion is the simplest auditable one.

``correlation_report`` turns the resulting entangled state into checkable
facts: which joint outcomes carry weight, how the outcomes condition on
each other, where the phase information lives, and how much probability
would have to sit outside the two correlated pairs for a "both records
fired" reading to hold.
"""

from __future__ import annotations

import cmath
import functools
from typing import NamedTuple

from .linalg import (
    Operator,
    StateVector,
    apply,
    density_of,
    format_space,
    ket,
    l1_coherence,
    partial_trace,
    superposed_state,
    tensor,
)
from .records import A_PATHS

DETECTOR_LABELS = ("ready", "D1", "D2")
SYSTEM_DETECTOR_SPACE = (A_PATHS, DETECTOR_LABELS)

# The two correlated dyads: all weight of a coupled state sits here.
DYADS = (("A1", "D1"), ("A2", "D2"))


def detector_ready() -> StateVector:
    return ket((DETECTOR_LABELS,), "ready")


@functools.cache
def detector_coupling() -> Operator:
    """6x6 unitary with U|Ai>|ready> = |Ai>|Di>, i = 1, 2; built and checked once."""
    swap_ready_d1 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    swap_ready_d2 = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    zeros = (0, 0, 0)
    u = [row + zeros for row in swap_ready_d1] + [zeros + row for row in swap_ready_d2]
    return Operator(SYSTEM_DETECTOR_SPACE, SYSTEM_DETECTOR_SPACE, u)


def premeasure(theta: float = 0.0) -> StateVector:
    """Couple the evenly split system (relative phase theta) to a ready detector.

    Linearity alone fixes the output: (|A1 D1> + e^{i theta}|A2 D2>)/sqrt2.
    """
    start = tensor(superposed_state(theta), detector_ready())
    return apply(detector_coupling(), start)


class CorrelationReport(NamedTuple):
    """Machine-checkable summary of a system-detector state.

    joint_probs / conditional_probs: outcome table and P(detector | system);
    conditionals are None where the conditioning outcome has zero weight.
    subsystem_coherence: l1 off-diagonal norm of each reduced state.
    correlation_coherence: the cross-dyad matrix element
    <A1 D1|rho|A2 D2>, whose modulus and phase carry the superposition's
    phase after the subsystems themselves have gone flat.
    correlation_coherence_modulus / correlation_coherence_phase: its
    abs and cmath.phase (radians in [-pi, pi]).
    both_clicked_prob: total weight outside the two correlated dyads, the
    weight a "both records fired in one trial" reading would need.
    iff_violation_prob: probability that the outcome biconditional
    (A1 exactly when D1, A2 exactly when D2) fails; computed independently
    by event enumeration, though in this model the failure events are
    exactly the off-dyad cells.
    """

    joint_probs: dict[str, dict[str, float]]
    conditional_probs: dict[str, dict[str, float | None]]
    subsystem_coherence: tuple[float, float]
    correlation_coherence: complex
    correlation_coherence_modulus: float
    correlation_coherence_phase: float
    both_clicked_prob: float
    iff_violation_prob: float


def correlation_report(psi: StateVector) -> CorrelationReport:
    """Analyze a normalized state on the system-detector space."""
    if psi.space != SYSTEM_DETECTOR_SPACE:
        raise ValueError(
            f"expected a state on {format_space(SYSTEM_DETECTOR_SPACE)}, "
            f"got {format_space(psi.space)}"
        )
    probs = psi.probabilities()
    # Row i of the outcome table: system outcome A_PATHS[i] with each detector label.
    n = len(DETECTOR_LABELS)
    table = [probs[i * n:(i + 1) * n] for i in range(len(A_PATHS))]

    joint = {a: dict(zip(DETECTOR_LABELS, row)) for a, row in zip(A_PATHS, table)}
    conditional: dict[str, dict[str, float | None]] = {}
    for a, row in zip(A_PATHS, table):
        p_a = sum(row)
        conditional[a] = {d: (p / p_a if p_a > 0.0 else None) for d, p in zip(DETECTOR_LABELS, row)}

    off_dyad = sum(
        joint[a][d] for a in A_PATHS for d in DETECTOR_LABELS if (a, d) not in DYADS
    )
    iff_violation = sum(
        joint[a][d]
        for a in A_PATHS
        for d in DETECTOR_LABELS
        if ((a == "A1") != (d == "D1")) or ((a == "A2") != (d == "D2"))
    )

    rho = density_of(psi)
    rho_sys, rho_det = partial_trace(rho, 0), partial_trace(rho, 1)
    # Indices 1 and 5 are the dyad basis states (A1,D1) and (A2,D2).
    cross_dyad = rho.entries[1][5]

    return CorrelationReport(
        joint_probs=joint,
        conditional_probs=conditional,
        subsystem_coherence=(l1_coherence(rho_sys), l1_coherence(rho_det)),
        correlation_coherence=cross_dyad,
        correlation_coherence_modulus=abs(cross_dyad),
        correlation_coherence_phase=cmath.phase(cross_dyad),
        both_clicked_prob=float(off_dyad),
        iff_violation_prob=float(iff_violation),
    )
