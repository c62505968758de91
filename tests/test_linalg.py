import json
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from biphoton.commands import _render_json
from biphoton.linalg import (
    EIG_TOL,
    DensityMatrix,
    Operator,
    StateVector,
    _gram_defect,
    apply,
    beam_splitter,
    biphoton_state,
    density_of,
    ket,
    partial_trace,
    phase_shifter,
    tensor,
)
from biphoton.premeasure import DETECTOR_LABELS, detector_coupling
from biphoton.records import A_PATHS, A_PORTS, B_PATHS, B_PORTS, BS_ENTRIES, SOURCE_AMPS

TOL = 1e-12
INV_SQRT2 = 1.0 / math.sqrt(2.0)

A = (A_PATHS,)
D = (DETECTOR_LABELS,)


def interferometer(phi_a, phi_b) -> Operator:
    """Shifters on A2 and B1, then both splitters, from the labelled elements."""
    shifters = np.kron(phase_shifter("A2", phi_a).entries, phase_shifter("B1", phi_b).entries)
    splitters = np.kron(beam_splitter("A").entries, beam_splitter("B").entries)
    return Operator((A_PATHS, B_PATHS), (A_PORTS, B_PORTS), splitters @ shifters)


def random_state(rng, space):
    dim = int(np.prod([len(f) for f in space]))
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(space, amps / np.linalg.norm(amps))


@st.composite
def amplitude_vectors(draw, dim):
    parts = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False),
            min_size=2 * dim,
            max_size=2 * dim,
        )
    )
    vec = np.array(parts[:dim]) + 1j * np.array(parts[dim:])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = vec + 1.0
        norm = np.linalg.norm(vec)
    return vec / norm


# ---------------------------------------------------------------------------
# constructors and invariants


def test_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(A, [1.0, 1.0])


def test_state_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        StateVector(A, [np.nan, 0.0])


def test_state_rejects_wrong_length():
    with pytest.raises(ValueError, match="does not fit"):
        StateVector(A, [1.0, 0.0, 0.0])


def test_state_amplitudes_are_readonly():
    psi = ket(A, "A1")
    with pytest.raises(TypeError):
        psi.amplitudes[0] = 0.0


def test_constructors_reject_ragged_entries():
    with pytest.raises(ValueError, match="regular array"):
        DensityMatrix(A, [[0.5, 0.0], [0.5]])
    with pytest.raises(ValueError, match="regular array"):
        StateVector(A, [INV_SQRT2, [INV_SQRT2]])


def test_text_entries_are_leaves_that_complex_parses():
    # Text is not a sequence of entries: numeric text converts, and other text
    # raises complex()'s own error rather than recursing into its characters.
    assert StateVector(A, ["1", "0"]).amplitudes == (1 + 0j, 0j)
    with pytest.raises(ValueError, match="length 1 does not fit"):
        StateVector(A, "10")
    for entry in ("one", b"1"):
        with pytest.raises((TypeError, ValueError)) as own:
            complex(entry)
        with pytest.raises(own.type) as err:
            StateVector(A, [entry, "0"])
        assert str(err.value) == str(own.value)


def test_numpy_scalars_and_0d_arrays_are_leaves():
    # None of these is a Python number, so each reaches iter(), whose
    # TypeError marks it as a leaf.
    op = Operator(A, A, [[np.int64(1), np.float32(0.0)], [np.array(0.0), np.complex64(1j)]])
    assert op.entries == ((1, 0), (0, 1j))
    assert {type(z) for row in op.entries for z in row} == {complex}


def test_density_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(A, [[0.5, 0.5], [0.0, 0.5]])


def test_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(A, [[0.8, 0.0], [0.0, 0.8]])


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(A, [[1.0, 0.6], [0.6, 0.0]])


@st.composite
def trace_one_hermitian(draw):
    """A trace-one Hermitian matrix of size 1 to 6 with a drawn least eigenvalue,
    often 2e-9 to 1e-8 either side of -EIG_TOL, and eigvalsh's least eigenvalue
    of it."""
    n = draw(st.integers(1, 6))
    near = st.builds(lambda sign, gap: -EIG_TOL + sign * gap, st.sampled_from([-1, 1]),
                     st.floats(2e-9, 1e-8))
    least = 1.0 if n == 1 else draw(st.one_of(near, st.floats(-0.5, 0.5)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    total = sum(weights) + 1e-3 * (n - 1)
    rest = [(1.0 - least) * (w + 1e-3) / total for w in weights]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    mat = q @ np.diag([least, *rest]) @ q.conj().T
    mat = (mat + mat.conj().T) / 2
    return mat, float(np.min(np.linalg.eigvalsh(mat)))


@settings(max_examples=300, deadline=None)
@given(trace_one_hermitian())
def test_positivity_check_agrees_with_eigvalsh(case):
    mat, least = case
    assume(abs(least + EIG_TOL) > 1e-9)
    space = (tuple(f"e{k}" for k in range(len(mat))),)
    event("rejected" if least < -EIG_TOL else "accepted")
    if least < -EIG_TOL:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(space, mat)
    else:
        DensityMatrix(space, mat)


def test_operator_rejects_non_unitary():
    with pytest.raises(ValueError, match="isometry"):
        Operator(A, A, [[1.0, 0.0], [1.0, 0.0]])


def test_square_operator_with_orthonormal_columns_but_not_rows_is_not_unitary():
    # V = Q L^T, with Q the Hadamard matrix and L L^T = I + eps J, has
    # V+V = I + eps J, within TOL of I, while VV+ = Q L^T L Q+ is twice as far off.
    eps = 8e-13
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) * INV_SQRT2
    v = hadamard @ np.linalg.cholesky(np.eye(2) + eps * np.ones((2, 2))).T
    assert np.max(np.abs(v.T @ v - np.eye(2))) < TOL < np.max(np.abs(v @ v.T - np.eye(2)))
    with pytest.raises(ValueError, match=r"square operator is not unitary \(UU\+ != I\)"):
        Operator(A, A, v)


@settings(max_examples=50)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_gram_defect_over_unordered_pairs_equals_that_over_ordered_pairs(n, dim, seed):
    rng = np.random.default_rng(seed)
    vectors = (rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))).tolist()
    every_pair = max(
        abs(sum(x.conjugate() * y for x, y in zip(u, v)) - (i == j))
        for i, u in enumerate(vectors) for j, v in enumerate(vectors)
    )
    assert _gram_defect(vectors) == every_pair


def test_operator_shape_must_map_input_to_output_space():
    # A 2x2 matrix cannot map a one-factor space onto the detector's three labels.
    with pytest.raises(ValueError, match="do not map") as err:
        Operator(A, D, np.eye(2))
    assert "[A1,A2] (dim 2)" in str(err.value)
    assert "[ready,D1,D2] (dim 3)" in str(err.value)


def test_density_rejects_wrong_shape():
    with pytest.raises(ValueError, match="do not fit"):
        DensityMatrix(D, 0.5 * np.eye(2))


def test_operator_and_density_entries_are_readonly():
    op = phase_shifter("A2", 0.3)
    rho = density_of(ket(A, "A1"))
    with pytest.raises(TypeError):
        op.entries[0][0] = 0.0
    with pytest.raises(TypeError):
        rho.entries[0][0] = 0.0


def test_constructors_hold_a_copy_and_leave_the_callers_array_alone():
    cases = [
        (lambda a: StateVector(A, a).amplitudes, np.array([INV_SQRT2, 1j * INV_SQRT2])),
        (lambda a: DensityMatrix(A, a).entries, np.diag([0.25, 0.75]).astype(complex)),
        (lambda a: Operator(A, A, a).entries, np.array([[0, 1], [1, 0]], dtype=complex)),
    ]
    for entries_of, arr in cases:
        held = np.asarray(entries_of(arr))
        assert arr.flags.writeable
        assert not np.shares_memory(arr, held)
        before = held.copy()
        arr[...] = 0.0
        np.testing.assert_array_equal(held, before)
    # The labelled constructors hold the numbers of records' constants, which
    # optics' array core is built from too.
    assert biphoton_state().amplitudes == SOURCE_AMPS
    assert beam_splitter("A").entries == beam_splitter("B").entries == BS_ENTRIES


def test_rectangular_isometry_accepted():
    col = np.array([[1.0], [0.0]], dtype=complex)
    v = Operator((("x",),), A, col)
    assert np.asarray(v.entries).shape == (2, 1)


# ---------------------------------------------------------------------------
# tensor


def test_tensor_of_basis_vectors():
    psi = tensor(ket(A, "A1"), ket((B_PATHS,), "B1"))
    np.testing.assert_allclose(psi.amplitudes, [1, 0, 0, 0], atol=TOL)
    assert psi.space == (A_PATHS, B_PATHS)


def test_tensor_distributes_over_superposition():
    plus = StateVector(A, [INV_SQRT2, INV_SQRT2])
    psi = tensor(plus, ket(D, "ready"))
    np.testing.assert_allclose(
        psi.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2, 0, 0], atol=TOL
    )


@given(amplitude_vectors(2), amplitude_vectors(3))
def test_tensor_preserves_norm(u_amps, v_amps):
    psi = tensor(StateVector(A, u_amps), StateVector(D, v_amps))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < TOL


# ---------------------------------------------------------------------------
# apply


def test_apply_identity():
    psi = StateVector(A, [0.6, 0.8j])
    out = apply(Operator(A, A, np.eye(2)), psi)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=TOL)


def test_apply_phase_shifter_pi_flips_sign():
    out = apply(phase_shifter("A2", math.pi), ket(A, "A2"))
    np.testing.assert_allclose(out.amplitudes, [0, -1], atol=TOL)


def test_apply_space_mismatch_names_both_spaces():
    with pytest.raises(ValueError) as err:
        apply(phase_shifter("A2", 0.3), ket(D, "ready"))
    assert "[A1,A2]" in str(err.value) and "[ready,D1,D2]" in str(err.value)


def test_norm_preserved_through_every_circuit():
    # 1000 seeded random states against the interferometer unitaries.
    rng = np.random.default_rng(1234)
    circuits = [
        interferometer(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        for _ in range(10)
    ]
    for i in range(1000):
        psi = random_state(rng, (A_PATHS, B_PATHS))
        out = apply(circuits[i % len(circuits)], psi)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < TOL


def test_repo_unitaries_are_unitary():
    ops = [
        beam_splitter("A"),
        beam_splitter("B"),
        phase_shifter("A2", 1.1),
        phase_shifter("B1", 2.7),
        interferometer(0.4, 5.9),
        detector_coupling(),
    ]
    for op in ops:
        u = np.asarray(op.entries)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < TOL
        assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < TOL


# ---------------------------------------------------------------------------
# density_of


def test_density_of_basis_state():
    rho = density_of(ket(A, "A1"))
    np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=TOL)


def test_density_of_equal_superposition():
    rho = density_of(StateVector(A, [INV_SQRT2, INV_SQRT2]))
    np.testing.assert_allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=TOL)


def test_density_of_is_pure():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rho = density_of(random_state(rng, (A_PATHS, B_PATHS)))
        entries = np.asarray(rho.entries)
        assert abs(np.trace(entries @ entries).real - 1.0) < TOL


# ---------------------------------------------------------------------------
# partial_trace


def test_partial_trace_of_entangled_state_is_maximally_mixed():
    rho_a = partial_trace(density_of(biphoton_state()), keep=0)
    np.testing.assert_allclose(rho_a.entries, 0.5 * np.eye(2), atol=TOL)


def test_partial_trace_of_product_state():
    rho_a = partial_trace(density_of(tensor(ket(A, "A1"), ket((B_PATHS,), "B1"))), 0)
    np.testing.assert_allclose(rho_a.entries, [[1, 0], [0, 0]], atol=TOL)


def test_partial_trace_keep_detector_matches_explicit_summation():
    # Oracle: direct 6x6 outer-product computation, summed over the system
    # index by hand. Expected diag(0, 1/2, 1/2) in (ready, D1, D2) order.
    amps = np.zeros(6, dtype=complex)
    amps[1] = INV_SQRT2  # (A1, D1)
    amps[5] = INV_SQRT2  # (A2, D2)
    expected = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        for k in range(3):
            expected[j, k] = sum(amps[i * 3 + j] * np.conj(amps[i * 3 + k]) for i in range(2))
    np.testing.assert_allclose(np.diag(expected).real, [0.0, 0.5, 0.5], atol=TOL)

    rho_d = partial_trace(density_of(StateVector((A_PATHS, DETECTOR_LABELS), amps)), 1)
    np.testing.assert_allclose(rho_d.entries, expected, atol=TOL)


def test_partial_trace_outputs_are_valid_states():
    rng = np.random.default_rng(99)
    for _ in range(50):
        rho = density_of(random_state(rng, (A_PATHS, DETECTOR_LABELS)))
        for keep in (0, 1):
            reduced = np.asarray(partial_trace(rho, keep).entries)
            assert abs(np.trace(reduced) - 1.0) < TOL
            assert np.max(np.abs(reduced - reduced.conj().T)) < TOL


def test_partial_trace_rejects_bad_factor_index():
    rho = density_of(biphoton_state())
    with pytest.raises(ValueError, match="keep"):
        partial_trace(rho, 2)


def test_partial_trace_requires_two_factors():
    rho = density_of(ket(A, "A1"))
    with pytest.raises(ValueError, match="two-factor"):
        partial_trace(rho, 0)


@settings(max_examples=50)
@given(amplitude_vectors(2), amplitude_vectors(3))
def test_tensor_then_partial_trace_round_trip(u_amps, v_amps):
    u = StateVector(A, u_amps)
    v = StateVector(D, v_amps)
    reduced = partial_trace(density_of(tensor(u, v)), keep=0)
    np.testing.assert_allclose(reduced.entries, density_of(u).entries, atol=TOL)


# ---------------------------------------------------------------------------
# helpers and serialization


def test_ket_needs_one_label_per_factor():
    with pytest.raises(ValueError, match="one label per factor"):
        ket((A_PATHS, B_PATHS), "A1")


def test_ket_rejects_unknown_label():
    with pytest.raises(ValueError, match="not in factor"):
        ket(A, "A3")


def test_state_json_schema():
    doc = json.loads(_render_json(biphoton_state()))
    assert doc["space"] == [["A1", "A2"], ["B1", "B2"]]
    assert len(doc["amplitudes"]) == 4
    assert doc["amplitudes"][0] == [pytest.approx(INV_SQRT2), 0.0]
