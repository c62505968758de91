import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton.commands import _render_json
from biphoton.linalg import (
    StateVector,
    apply,
    density_of,
    ket,
    l1_coherence,
    partial_trace,
    superposed_state,
    tensor,
)
from biphoton.premeasure import (
    DETECTOR_LABELS,
    SYSTEM_DETECTOR_SPACE,
    correlation_report,
    detector_coupling,
    detector_ready,
    premeasure,
)
from biphoton.records import A_PATHS

TOL = 1e-12
INV_SQRT2 = 1.0 / math.sqrt(2.0)

THETA_GRID = [2 * math.pi * k / 16 for k in range(16)]


def coupled_eigenstate(i: int) -> StateVector:
    """U(|Ai>|ready>) for i in {1, 2}."""
    start = tensor(ket((A_PATHS,), f"A{i}"), detector_ready())
    return apply(detector_coupling(), start)


# ---------------------------------------------------------------------------
# the coupling unitary


def test_coupling_maps_ready_states_to_records():
    target1 = tensor(ket((A_PATHS,), "A1"), ket((DETECTOR_LABELS,), "D1"))
    target2 = tensor(ket((A_PATHS,), "A2"), ket((DETECTOR_LABELS,), "D2"))
    np.testing.assert_allclose(coupled_eigenstate(1).amplitudes, target1.amplitudes, atol=TOL)
    np.testing.assert_allclose(coupled_eigenstate(2).amplitudes, target2.amplitudes, atol=TOL)


def test_coupling_is_unitary():
    u = np.asarray(detector_coupling().entries)
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < TOL
    assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < TOL


def test_coupling_is_built_once():
    assert detector_coupling() is detector_coupling()


def test_coupling_does_not_disturb_eigenstates():
    for i in (1, 2):
        rho_sys = partial_trace(density_of(coupled_eigenstate(i)), 0)
        expected = density_of(ket((A_PATHS,), f"A{i}")).entries
        np.testing.assert_allclose(rho_sys.entries, expected, atol=TOL)


# ---------------------------------------------------------------------------
# the coupled state


def test_premeasure_zero_matches_target_state():
    expected = np.zeros(6, dtype=complex)
    expected[1] = INV_SQRT2  # (A1, D1)
    expected[5] = INV_SQRT2  # (A2, D2)
    psi = premeasure(0.0)
    np.testing.assert_allclose(psi.amplitudes, expected, atol=TOL)
    overlap = np.vdot(psi.amplitudes, StateVector(SYSTEM_DETECTOR_SPACE, expected).amplitudes)
    assert abs(overlap) ** 2 == pytest.approx(1.0, abs=TOL)


def test_premeasure_pi_flips_second_branch():
    psi = premeasure(math.pi)
    assert psi.amplitudes[1] == pytest.approx(INV_SQRT2, abs=TOL)
    assert psi.amplitudes[5] == pytest.approx(-INV_SQRT2, abs=TOL)


@pytest.mark.parametrize("theta", THETA_GRID)
def test_premeasure_is_linear_in_the_input(theta):
    # The coupled state must equal the amplitude-weighted sum of the two
    # eigenstate outputs: that is linearity of the evolution as a test.
    weights = superposed_state(theta).amplitudes
    expected = weights[0] * np.asarray(coupled_eigenstate(1).amplitudes)
    expected = expected + weights[1] * np.asarray(coupled_eigenstate(2).amplitudes)
    np.testing.assert_allclose(premeasure(theta).amplitudes, expected, atol=TOL)


@pytest.mark.parametrize("theta", THETA_GRID)
def test_detector_is_incoherent_after_coupling(theta):
    rho_det = partial_trace(density_of(premeasure(theta)), 1)
    assert l1_coherence(rho_det) < TOL
    np.testing.assert_allclose(
        np.diag(rho_det.entries).real, [0.0, 0.5, 0.5], atol=TOL
    )


# ---------------------------------------------------------------------------
# correlation report


def test_report_of_coupled_state():
    rep = correlation_report(premeasure(0.0))
    assert rep.joint_probs["A1"]["D1"] == pytest.approx(0.5, abs=TOL)
    assert rep.joint_probs["A2"]["D2"] == pytest.approx(0.5, abs=TOL)
    assert rep.joint_probs["A1"]["D2"] == pytest.approx(0.0, abs=TOL)
    assert rep.joint_probs["A2"]["D1"] == pytest.approx(0.0, abs=TOL)
    assert rep.conditional_probs["A1"]["D1"] == pytest.approx(1.0, abs=TOL)
    assert rep.conditional_probs["A2"]["D2"] == pytest.approx(1.0, abs=TOL)
    assert rep.both_clicked_prob == pytest.approx(0.0, abs=TOL)
    assert rep.iff_violation_prob == pytest.approx(0.0, abs=TOL)
    assert rep.subsystem_coherence[0] == pytest.approx(0.0, abs=TOL)
    assert rep.subsystem_coherence[1] == pytest.approx(0.0, abs=TOL)
    assert abs(rep.correlation_coherence - 0.5) < TOL


@pytest.mark.parametrize("theta", THETA_GRID)
def test_report_phase_lives_only_in_the_cross_dyad_element(theta):
    rep = correlation_report(premeasure(theta))
    # Outcome statistics do not move with theta...
    assert rep.joint_probs["A1"]["D1"] == pytest.approx(0.5, abs=TOL)
    assert rep.joint_probs["A2"]["D2"] == pytest.approx(0.5, abs=TOL)
    assert rep.both_clicked_prob < TOL
    # ...while the cross-dyad matrix element carries modulus 1/2 and phase -theta.
    cc = rep.correlation_coherence
    assert abs(cc) == pytest.approx(0.5, abs=TOL)
    assert abs(cc - 0.5 * cmath.exp(-1j * theta)) < 1e-9


@given(st.floats(-8.0, 8.0, allow_nan=False))
def test_report_phase_tracks_any_theta(theta):
    cc = correlation_report(premeasure(theta)).correlation_coherence
    assert abs(cc - 0.5 * cmath.exp(-1j * theta)) < 1e-9


def test_report_of_product_state():
    psi = tensor(ket((A_PATHS,), "A1"), ket((DETECTOR_LABELS,), "D1"))
    rep = correlation_report(psi)
    assert rep.joint_probs["A1"]["D1"] == pytest.approx(1.0, abs=TOL)
    assert rep.subsystem_coherence == (pytest.approx(0.0, abs=TOL), pytest.approx(0.0, abs=TOL))
    assert abs(rep.correlation_coherence) < TOL
    # Conditioning on the zero-weight outcome A2 is undefined, not zero.
    assert rep.conditional_probs["A2"]["D2"] is None
    assert '"A2": {\n      "ready": null,\n      "D1": null,\n      "D2": null\n    }' in (
        _render_json(rep)
    )


def test_report_rejects_other_spaces():
    with pytest.raises(ValueError, match="expected a state on"):
        correlation_report(superposed_state(0.0))


def test_unnormalized_states_cannot_be_built():
    amps = np.zeros(6, dtype=complex)
    amps[1] = 1.0
    amps[5] = 1.0
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(SYSTEM_DETECTOR_SPACE, amps)


def test_report_json_shape():
    rep = correlation_report(premeasure(0.25))
    doc = json.loads(_render_json(rep))
    assert set(doc) == {
        "joint_probs",
        "conditional_probs",
        "subsystem_coherence",
        "correlation_coherence",
        "correlation_coherence_modulus",
        "correlation_coherence_phase",
        "both_clicked_prob",
        "iff_violation_prob",
    }
    assert doc["correlation_coherence_modulus"] == pytest.approx(0.5, abs=TOL)
    assert doc["correlation_coherence_phase"] == pytest.approx(-0.25, abs=1e-9)
    assert isinstance(doc["correlation_coherence"], list)
    cc = rep.correlation_coherence
    assert rep.correlation_coherence_modulus == abs(cc)
    assert rep.correlation_coherence_phase == cmath.phase(cc)


def test_uniform_state_has_off_dyad_weight():
    # A state spread evenly over all six basis outcomes leaves 4/six of the
    # weight outside the correlated pairs; both verdict routes agree on it.
    psi = StateVector(SYSTEM_DETECTOR_SPACE, np.full(6, 1 / math.sqrt(6)))
    rep = correlation_report(psi)
    assert rep.both_clicked_prob == pytest.approx(4 / 6, abs=TOL)
    assert rep.iff_violation_prob == pytest.approx(4 / 6, abs=TOL)


# ---------------------------------------------------------------------------
# the stdlib model against the numpy formulation it replaced


def numpy_report(theta: float) -> tuple[np.ndarray, dict]:
    """The coupled state and its report, computed as the numpy formulation of the
    detection model computed them: kron, a matrix-vector product, np.abs, outer
    products, einsum partial traces, and l1 as the sum of all moduli less the
    diagonal's."""
    split = np.array([INV_SQRT2, cmath.exp(1j * theta) * INV_SQRT2])
    u = np.zeros((6, 6), dtype=complex)
    u[0:3, 0:3] = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    u[3:6, 3:6] = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    psi = u @ np.kron(split, np.array([1, 0, 0], dtype=complex))
    table = (np.abs(psi) ** 2).reshape(2, 3)
    joint = {a: dict(zip(DETECTOR_LABELS, table[i].tolist())) for i, a in enumerate(A_PATHS)}
    conditional = {
        a: {d: float(table[i, j] / table[i].sum()) for j, d in enumerate(DETECTOR_LABELS)}
        for i, a in enumerate(A_PATHS)
    }
    rho = np.outer(psi, psi.conj())
    blocks = rho.reshape(2, 3, 2, 3)

    def l1(m):
        mags = np.abs(m)
        return float(np.sum(mags) - np.sum(np.diag(mags)))

    cross = complex(rho[1, 5])
    off_dyad = sum(joint[a][d] for a in A_PATHS for d in DETECTOR_LABELS if (a, d) not in (
        ("A1", "D1"), ("A2", "D2")))
    return psi, {
        "joint_probs": joint,
        "conditional_probs": conditional,
        "subsystem_coherence": (l1(np.einsum("ijkj->ik", blocks)), l1(np.einsum("ijil->jl", blocks))),
        "correlation_coherence": cross,
        "correlation_coherence_modulus": abs(cross),
        "correlation_coherence_phase": cmath.phase(cross),
        "both_clicked_prob": off_dyad,
        "iff_violation_prob": off_dyad,
    }


def bits(z: complex) -> tuple[str, str]:
    """The exact value of z, the sign of a zero included."""
    return float(z.real).hex(), float(z.imag).hex()


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(math.pi / 2)
@example(math.pi)
@example(-math.pi / 4)
@example(3.0)
def test_report_equals_the_numpy_formulation(theta):
    psi = premeasure(theta)
    rep = correlation_report(psi)
    ref_psi, ref = numpy_report(theta)
    # Every field prints alike, as the command writes it...
    assert _render_json(rep) == _render_json(ref)
    # ...and the amplitudes, the cross-dyad element and the coherences are the same doubles.
    assert [bits(z) for z in psi.amplitudes] == [bits(z) for z in ref_psi.tolist()]
    assert bits(rep.correlation_coherence) == bits(ref["correlation_coherence"])
    assert [x.hex() for x in rep.subsystem_coherence] == [
        x.hex() for x in ref["subsystem_coherence"]
    ]
