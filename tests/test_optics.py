import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import optics
from biphoton.linalg import (
    StateVector,
    apply,
    beam_splitter,
    biphoton_state,
    density_of,
    ket,
    partial_trace,
    phase_shifter,
    phased_biphoton_state,
    superposed_state,
)
from biphoton.optics import (
    OUTCOMES,
    PhaseSettings,
    Visibility,
    _wrap_angle,
    fringe_tables,
    joint_distribution,
    joint_tables,
)
from biphoton.records import A_PATHS, SOURCE_AMPS

from oracles import joint_probs_reference, pair_table_reference
from test_golden import dispatch_off_env

TOL = 1e-12
INV_SQRT2 = 1.0 / math.sqrt(2.0)

angles = st.floats(-10.0, 10.0, allow_nan=False)
visibilities = st.floats(0.0, 1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# settings and visibility types


@given(angles, angles)
def test_phase_settings_normalize_into_two_pi(pa, pb):
    s = PhaseSettings(pa, pb)
    assert 0.0 <= s.phi_a < 2 * math.pi
    assert 0.0 <= s.phi_b < 2 * math.pi


def test_phase_settings_reject_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        PhaseSettings(math.inf, 0.0)
    # in either position, with the message of the wrap joint_tables runs
    for bad in (math.inf, -math.inf, math.nan):
        for pa, pb in ((bad, 0.0), (0.0, bad), (bad, -bad)):
            with pytest.raises(ValueError) as settings_error:
                PhaseSettings(pa, pb)
            with pytest.raises(ValueError) as wrap_error:
                _wrap_angle(pa), _wrap_angle(pb)
            assert str(settings_error.value) == str(wrap_error.value)


# Where a wrap can go wrong: zeros, multiples of pi, tiny negatives that
# round up to 2pi under one %
edge_angles = st.sampled_from(
    [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi, -5e-324, -1e-300, -1e-17, 1e-300]
)


@settings(max_examples=300)
@given(st.one_of(edge_angles, st.floats(-20.0, 20.0)), st.one_of(edge_angles, st.floats(-20.0, 20.0)))
def test_phase_settings_wrap_like_the_exact_core(pa, pb):
    s = PhaseSettings(pa, pb)
    assert [s.phi_a, s.phi_b] == [_wrap_angle(pa), _wrap_angle(pb)]
    # The wrap is numpy's remainder of the same doubles, bit for bit
    assert [s.phi_a, s.phi_b] == (np.array([pa, pb]) % (2 * math.pi) % (2 * math.pi)).tolist()


@pytest.mark.parametrize("v", [-0.1, 1.1, math.nan])
def test_visibility_range_enforced(v):
    with pytest.raises(ValueError):
        Visibility(v)


# ---------------------------------------------------------------------------
# source states


def test_biphoton_amplitudes():
    np.testing.assert_allclose(
        biphoton_state().amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=TOL
    )


def test_biphoton_is_normalized():
    assert abs(np.linalg.norm(biphoton_state().amplitudes) - 1.0) < TOL


def test_biphoton_marginal_is_maximally_mixed():
    rho_b = partial_trace(density_of(biphoton_state()), keep=1)
    np.testing.assert_allclose(rho_b.entries, 0.5 * np.eye(2), atol=TOL)


def test_superposed_state_at_zero():
    np.testing.assert_allclose(
        superposed_state(0.0).amplitudes, [INV_SQRT2, INV_SQRT2], atol=TOL
    )


def test_superposed_state_at_pi():
    np.testing.assert_allclose(
        superposed_state(math.pi).amplitudes, [INV_SQRT2, -INV_SQRT2], atol=TOL
    )


@given(angles)
def test_superposed_state_probabilities_are_half(theta):
    probs = superposed_state(theta).probabilities()
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=TOL)


# ---------------------------------------------------------------------------
# elements


def test_phase_shifter_zero_is_identity():
    np.testing.assert_allclose(phase_shifter("A2", 0.0).entries, np.eye(2), atol=TOL)


def test_phase_shifter_quarter_turn():
    out = apply(phase_shifter("A2", math.pi / 2), ket((A_PATHS,), "A2"))
    np.testing.assert_allclose(out.amplitudes, [0, 1j], atol=TOL)


@given(angles)
def test_phase_shifter_determinant_modulus(phi):
    det = np.linalg.det(phase_shifter("B1", phi).entries)
    assert abs(abs(det) - 1.0) < TOL


def test_phase_shifter_rejects_output_port():
    with pytest.raises(ValueError, match="ports"):
        phase_shifter("A+", 0.5)


def test_phase_shifter_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        phase_shifter("C1", 0.5)


def test_beam_splitter_splits_single_input_evenly():
    out = apply(beam_splitter("A"), ket((A_PATHS,), "A1"))
    np.testing.assert_allclose(out.probabilities(), [0.5, 0.5], atol=TOL)


def test_beam_splitter_is_unitary():
    u = np.asarray(beam_splitter("B").entries)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=TOL)


def test_beam_splitter_constructive_interference_single_port():
    # 2x2 oracle: with |1> -> (|+> + i|->)/sqrt2 and |2> -> (i|+> + |->)/sqrt2,
    # the + amplitude of (|1> + i|2>)/sqrt2 is (1 + i*i)/2 = 0, so all the
    # probability lands in the minus port; the conjugate input lands in plus.
    out = apply(beam_splitter("A"), StateVector((A_PATHS,), [INV_SQRT2, 1j * INV_SQRT2]))
    np.testing.assert_allclose(out.probabilities(), [0.0, 1.0], atol=TOL)

    flipped = apply(
        beam_splitter("A"), StateVector((A_PATHS,), [INV_SQRT2, -1j * INV_SQRT2])
    )
    np.testing.assert_allclose(flipped.probabilities(), [1.0, 0.0], atol=TOL)


def test_beam_splitter_rejects_unknown_party():
    with pytest.raises(ValueError, match="party"):
        beam_splitter("C")


# ---------------------------------------------------------------------------
# joint distribution


def test_joint_equal_settings_full_visibility():
    pp, pm, mp, mm = joint_distribution(PhaseSettings(0, 0), Visibility(1))
    assert pp == pytest.approx(0.5, abs=TOL)
    assert mm == pytest.approx(0.5, abs=TOL)
    assert pm == pytest.approx(0.0, abs=TOL)
    assert mp == pytest.approx(0.0, abs=TOL)


def test_joint_quarter_difference_is_uniform():
    for p in joint_distribution(PhaseSettings(math.pi / 2, 0), Visibility(1)):
        assert p == pytest.approx(0.25, abs=TOL)


def test_joint_zero_visibility_is_uniform():
    for p in joint_distribution(PhaseSettings(0, 0), Visibility(0)):
        assert p == pytest.approx(0.25, abs=TOL)


def test_joint_marginals_and_fringe_on_grid():
    # 8x8 settings grid, four visibilities: tables sum to 1, all singles are
    # 1/2, and the correlation is v cos(phi_a - phi_b), all to 1e-12.
    for v in (0.0, 0.5, 1 / math.sqrt(2), 1.0):
        vis = Visibility(v)
        for i in range(8):
            for k in range(8):
                pa, pb = 2 * math.pi * i / 8, 2 * math.pi * k / 8
                pp, pm, mp, mm = joint_distribution(PhaseSettings(pa, pb), vis)
                assert abs(pp + pm + mp + mm - 1.0) < TOL
                assert abs(pp + pm - 0.5) < TOL
                assert abs(pp + mp - 0.5) < TOL
                e = pp + mm - pm - mp
                assert abs(e - v * math.cos(pa - pb)) < TOL


@settings(max_examples=200)
@given(angles, angles, visibilities)
def test_joint_matches_hand_expanded_oracle(pa, pb, v):
    s = PhaseSettings(pa, pb)
    probs = dict(zip(OUTCOMES, joint_distribution(s, Visibility(v))))
    ref = joint_probs_reference(s.phi_a, s.phi_b, v)
    for pair in OUTCOMES:
        assert probs[pair] == pytest.approx(ref[pair], abs=TOL)


@given(angles, angles, visibilities)
def test_correlation_is_visibility_times_cosine(pa, pb, v):
    pp, pm, mp, mm = joint_distribution(PhaseSettings(pa, pb), Visibility(v))
    e = pp + mm - pm - mp
    assert e == pytest.approx(v * math.cos(pa - pb), abs=1e-9)


def test_correlation_depends_only_on_phase_difference():
    # 100 seeded pairs sharing the same difference agree to 1e-12.
    rng = np.random.default_rng(2024)
    vis = Visibility(1.0)
    for _ in range(100):
        base_a, base_b = rng.uniform(0, 2 * math.pi, size=2)
        shift = rng.uniform(0, 2 * math.pi)
        pp1, pm1, mp1, mm1 = joint_distribution(PhaseSettings(base_a, base_b), vis)
        pp2, pm2, mp2, mm2 = joint_distribution(PhaseSettings(base_a + shift, base_b + shift), vis)
        e1 = pp1 + mm1 - pm1 - mp1
        e2 = pp2 + mm2 - pm2 - mp2
        assert abs(e1 - e2) < TOL


def labelled_circuit(s: PhaseSettings) -> np.ndarray:
    """Shifters, then both splitters, as one 4x4 matrix of the labelled elements."""
    shifters = np.kron(phase_shifter("A2", s.phi_a).entries, phase_shifter("B1", s.phi_b).entries)
    return np.kron(beam_splitter("A").entries, beam_splitter("B").entries) @ shifters


def test_labelled_circuit_is_unitary():
    u = labelled_circuit(PhaseSettings(1.3, 4.4))
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < TOL


def test_labelled_elements_agree_with_hand_expanded_oracle():
    # Born probabilities through the labelled operators must match the
    # oracle, up to B's matched-outcome port relabelling.
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = PhaseSettings(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        v = rng.uniform(0, 1)
        out = labelled_circuit(s) @ biphoton_state().amplitudes
        raw = (np.abs(out) ** 2).tolist()
        relabeled = {
            ("+", "+"): raw[1],
            ("+", "-"): raw[0],
            ("-", "+"): raw[3],
            ("-", "-"): raw[2],
        }
        ref = joint_probs_reference(s.phi_a, s.phi_b, v)
        for pair in OUTCOMES:
            expected = v * relabeled[pair] + (1 - v) * 0.25
            assert ref[pair] == pytest.approx(expected, abs=TOL)


def test_phased_biphoton_keeps_flat_subsystems():
    s = PhaseSettings(0.9, 5.1)
    rho = density_of(phased_biphoton_state(s))
    for keep in (0, 1):
        np.testing.assert_allclose(
            partial_trace(rho, keep).entries, 0.5 * np.eye(2), atol=TOL
        )


# ---------------------------------------------------------------------------
# the exact core: bit-for-bit agreement


wide_angles = st.floats(-20.0, 20.0, allow_nan=False)
visibilities_with_ends = st.one_of(st.sampled_from([0.0, 1.0]), visibilities)
ALWAYS_INCLUDED = [0.0, math.pi, 2 * math.pi]


def probs_list(pa, pb, vis):
    return list(joint_distribution(PhaseSettings(pa, pb), vis))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(wide_angles, wide_angles), min_size=1, max_size=40), visibilities_with_ends)
def test_joint_tables_equal_joint_distribution_per_point(pairs, v):
    pairs = pairs + [(x, y) for x in ALWAYS_INCLUDED for y in ALWAYS_INCLUDED]
    vis = Visibility(v)
    for pa, pb in pairs:
        table = joint_tables(pa, pb, vis)
        assert type(table) is tuple and len(table) == 4
        column = probs_list(pa, pb, vis)
        assert list(table) == column
        # Each entry a probability up to rounding, and the four summing to 1
        assert all(-1e-15 <= p <= 1.0 + 1e-15 for p in column)
        assert abs(sum(column) - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(wide_angles, wide_angles, visibilities_with_ends)
def test_joint_tables_equal_the_labelled_matrices_in_scalar_order(pa, pb, v):
    # The arithmetic the CLI transcripts were pinned with: the splitters and
    # source from the labelled operators, one matrix-vector product per point.
    s = PhaseSettings(pa, pb)
    za, zb = np.exp(1j * s.phi_a), np.exp(1j * s.phi_b)
    shifted = biphoton_state().amplitudes * np.array([zb, 1.0, za * zb, za])
    out = np.kron(beam_splitter("A").entries, beam_splitter("B").entries) @ shifted
    raw = out.real**2 + out.imag**2
    expected = [v * raw[port] + (1.0 - v) * 0.25 for port in (1, 0, 3, 2)]
    assert list(joint_tables(pa, pb, Visibility(v))) == expected


def test_joint_tables_bytes_hold_with_numpy_cpu_dispatch_off():
    # The table on Python floats must hold the bytes of the same circuit
    # broadcast over numpy arrays on numpy's baseline kernels (a child with
    # every SIMD dispatch target off), at random settings and at settings
    # within 1e-8 of a zero of E (d = pi/2, 3pi/2), where E_exact prints the
    # last bits of the table.
    env = dispatch_off_env()
    rng = np.random.default_rng(31)
    phi_b = rng.uniform(-10.0, 10.0, 3000)
    zeros = np.repeat([math.pi / 2, 3 * math.pi / 2, -math.pi / 2], 500)
    phi_a = np.concatenate([rng.uniform(-10.0, 10.0, 1500), zeros + rng.uniform(-1e-8, 1e-8, 1500)])
    phi_a[1500:] += phi_b[1500:]
    settings_bytes = np.stack([phi_a, phi_b]).tobytes()
    code = (
        "import math, sys\n"
        "import numpy as np\n"
        "from biphoton.records import BS_ENTRIES, SOURCE_AMPS\n"
        "phi_a, phi_b = np.frombuffer(sys.stdin.buffer.read()).reshape(2, -1) % (2 * math.pi)\n"
        "phi_a, phi_b = phi_a % (2 * math.pi), phi_b % (2 * math.pi)\n"
        "a1b1, a2b2 = np.kron(BS_ENTRIES, BS_ENTRIES)[[1, 0, 3, 2]][:, [0, 3]].T[:, :, None]\n"
        "out = (a1b1 * (SOURCE_AMPS[0] * np.exp(1j * phi_b))\n"
        "       + a2b2 * (SOURCE_AMPS[3] * np.exp(1j * phi_a)))\n"
        "for v in (1.0, 0.83):\n"
        "    table = v * (out.real**2 + out.imag**2) + (1.0 - v) * 0.25\n"
        "    sys.stdout.buffer.write(np.ascontiguousarray(table.T).tobytes())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], input=settings_bytes,
                          capture_output=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    here = np.array([joint_tables(pa, pb, Visibility(v)) for v in (1.0, 0.83)
                     for pa, pb in zip(phi_a.tolist(), phi_b.tolist())]).tobytes()
    assert len(proc.stdout) == len(here)
    differ = np.flatnonzero(np.frombuffer(proc.stdout, np.uint64) != np.frombuffer(here, np.uint64))
    assert differ.size == 0, f"{differ.size} entries differ, first at {differ[0]}"


@settings(max_examples=200, deadline=None)
@given(st.one_of(edge_angles, wide_angles), st.one_of(edge_angles, wide_angles),
       visibilities_with_ends)
def test_joint_tables_of_raw_angles_equal_those_of_wrapped_angles(pa, pb, v):
    vis = Visibility(v)
    wrapped = joint_tables(_wrap_angle(pa), _wrap_angle(pb), vis)
    assert joint_tables(pa, pb, vis) == wrapped


def test_joint_tables_take_one_pair_of_settings():
    vis = Visibility(0.8)
    grid = np.linspace(-7.0, 7.0, 9)
    # numpy float64 settings, on either side, give the table of the floats
    for d in grid:
        for pa, pb in ((d, 0.3), (0.3, d)):
            table = joint_tables(pa, pb, vis)
            assert [type(p) for p in table] == [float] * 4
            assert list(table) == probs_list(float(pa), float(pb), vis)
    for pa, pb in ((1.1, 0.4), (np.float64(1.1), np.array(0.4)), (np.array(1.1), np.array(0.4))):
        table = joint_tables(pa, pb, vis)
        assert type(table) is tuple and len(table) == 4
        assert list(table) == probs_list(1.1, 0.4, vis)
    # A tiny negative rounds up to 2pi under one %, and must wrap to 0.
    assert list(joint_tables(-1e-300, 0.0, vis)) == probs_list(0.0, 0.0, vis)
    assert list(joint_tables(grid[2], grid[7], vis)) == probs_list(grid[2], grid[7], vis)


run_angles = st.one_of(st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi, -1e-300]), wide_angles)


@settings(max_examples=200, deadline=None)
@given(st.lists(run_angles, max_size=12), run_angles, visibilities_with_ends)
@example([], 0.0, 1.0)
@example([-1e-300], math.pi, 0.0)
@example([0.0, math.pi, -math.pi, 2 * math.pi, -1e-300], -1e-300, 1.0)
@example([2 * math.pi, -20.0, 20.0], 2 * math.pi, 0.0)
def test_fringe_tables_equal_the_one_pair_circuit(phis_a, phi_b, v):
    # A run of A's settings at one setting of B's, bit for bit as one call per pair
    tables = fringe_tables(phis_a, phi_b, Visibility(v))
    assert type(tables) is list
    assert tables == [pair_table_reference(pa, phi_b, v) for pa in phis_a]
    assert [joint_tables(pa, phi_b, Visibility(v)) for pa in phis_a] == tables


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_joint_tables_reject_nonfinite_without_warning(bad):
    with pytest.raises(ValueError, match="finite"):
        joint_tables(bad, 0.0, Visibility(1.0))
    with pytest.raises(ValueError, match="finite"):
        joint_tables(0.0, bad, Visibility(1.0))


# ---------------------------------------------------------------------------
# the exact core against the labelled elements, bit for bit


@settings(max_examples=300, deadline=None)
@given(st.one_of(edge_angles, wide_angles), st.one_of(edge_angles, wide_angles))
def test_exact_core_equals_labelled_elements_bit_for_bit(pa, pb):
    # PhaseSettings' wrap is pinned by test_phase_settings_wrap_like_the_exact_core.
    s = PhaseSettings(pa, pb)
    shifters = np.kron(phase_shifter("A2", s.phi_a).entries, phase_shifter("B1", s.phi_b).entries)
    expected = shifters @ biphoton_state().amplitudes
    assert list(phased_biphoton_state(s).amplitudes) == expected.tolist()


def test_splitter_pair_is_the_labelled_kronecker_product():
    # Read in OUTCOMES row order: B's ports are read out swapped. The source's
    # only terms are A1B1 and A2B2, so only their two columns are kept.
    expected = np.kron(beam_splitter("A").entries, beam_splitter("B").entries)[[1, 0, 3, 2]]
    assert [list(row) for row in optics._SPLITTERS] == expected[:, [0, 3]].tolist()


def test_source_has_no_a1b2_or_a2b1_term():
    # Why joint_tables keeps only the splitter pair's A1B1 and A2B2 columns.
    assert SOURCE_AMPS[1] == SOURCE_AMPS[2] == 0.0
    assert biphoton_state().amplitudes[1:3] == (0.0, 0.0)

