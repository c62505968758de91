"""Dense complex linear algebra on labelled tensor-product spaces.

Every Hilbert space in this package is tiny (dimension 2 to 6), so states
and operators are stored densely, carry their basis labels, and are checked
eagerly at construction. "Exact" throughout means within ``TOL`` of the
ideal value, which is far above accumulated double rounding at these sizes.

The source states and optical elements are built here as labelled states and
operators from the constants of ``optics``' array core, so both views hold the
same numbers. Only the detection model and reads of the package root load
this module: no array path imports it.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import cmath

import numpy as np

from .optics import (
    _BS_ENTRIES, _INV_SQRT2, _SOURCE_AMPS, A_PATHS, A_PORTS, B_PATHS, B_PORTS, PhaseSettings,
    _shifted_source,
)
from .records import Record

# Structural tolerance for normalization / unitarity / hermiticity checks.
TOL = 1e-12
# Density-matrix eigenvalues may dip slightly negative from rounding.
EIG_TOL = 1e-10

# A space is an ordered tuple of tensor factors; each factor is an ordered
# tuple of basis labels. The composite basis is lexicographic in declared
# factor order (C-order Kronecker convention).
Space = tuple[tuple[str, ...], ...]


def as_space(space) -> Space:
    return tuple(tuple(str(label) for label in factor) for factor in space)


def space_dim(space: Space) -> int:
    d = 1
    for factor in space:
        d *= len(factor)
    return d


def format_space(space: Space) -> str:
    return "x".join("[" + ",".join(factor) + "]" for factor in space)


def _frozen_copy(values, what: str, shape: tuple[int, ...], misfit) -> np.ndarray:
    """A read-only complex copy of values, checked finite and of the given shape.
    misfit(arr) is the error message for an array arr of another shape."""
    arr = np.array(values, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must have finite entries")
    if arr.shape != shape:
        raise ValueError(misfit(arr))
    arr.setflags(write=False)
    return arr


class StateVector(Record):
    """Normalized complex amplitudes over a labelled tensor-product basis."""

    __slots__ = _fields = ("space", "amplitudes")

    def __init__(self, space: Space, amplitudes: np.ndarray):
        space = as_space(space)
        amps = _frozen_copy(amplitudes, "state amplitudes", (space_dim(space),), lambda a: (
            f"amplitude vector of length {a.size} does not fit "
            f"space {format_space(space)} (dim {space_dim(space)})"
        ))
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > TOL:
            raise ValueError(f"state is not normalized: ||psi|| = {norm!r}")
        self._set(space, amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


class DensityMatrix(Record):
    """Hermitian, positive-semidefinite, trace-one matrix on a labelled basis."""

    __slots__ = _fields = ("space", "entries")

    def __init__(self, space: Space, entries: np.ndarray):
        space = as_space(space)
        d = space_dim(space)
        mat = _frozen_copy(entries, "density-matrix entries", (d, d), lambda m: (
            f"entries of shape {m.shape} do not fit space "
            f"{format_space(space)} (dim {d})"
        ))
        if float(np.max(np.abs(mat - mat.conj().T))) > TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TOL:
            raise ValueError(f"density matrix trace is {trace!r}, not 1")
        if float(np.min(np.linalg.eigvalsh(mat))) < -EIG_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        self._set(space, mat)


class Operator(Record):
    """Unitary (square) or isometric (tall rectangular) labelled matrix."""

    __slots__ = _fields = ("input_space", "output_space", "entries")

    def __init__(self, input_space: Space, output_space: Space, entries: np.ndarray):
        in_space = as_space(input_space)
        out_space = as_space(output_space)
        d_in, d_out = space_dim(in_space), space_dim(out_space)
        mat = _frozen_copy(entries, "operator entries", (d_out, d_in), lambda m: (
            f"entries of shape {m.shape} do not map "
            f"{format_space(in_space)} (dim {d_in}) to "
            f"{format_space(out_space)} (dim {d_out})"
        ))
        eye_in = np.eye(d_in)
        if float(np.max(np.abs(mat.conj().T @ mat - eye_in))) > TOL:
            raise ValueError("operator is not an isometry (V+V != I)")
        if d_in == d_out and float(np.max(np.abs(mat @ mat.conj().T - eye_in))) > TOL:
            raise ValueError("square operator is not unitary (UU+ != I)")
        self._set(in_space, out_space, mat)


def ket(space, *labels: str) -> StateVector:
    """Basis state with unit amplitude at the given per-factor labels."""
    space = as_space(space)
    if len(labels) != len(space):
        raise ValueError(
            f"need one label per factor of {format_space(space)}, got {labels!r}"
        )
    index = 0
    for factor, label in zip(space, labels):
        if label not in factor:
            raise ValueError(f"label {label!r} not in factor {factor!r}")
        index = index * len(factor) + factor.index(label)
    amps = np.zeros(space_dim(space), dtype=complex)
    amps[index] = 1.0
    return StateVector(space, amps)


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Kronecker product; the result lives on the concatenated factor list."""
    return StateVector(u.space + v.space, np.kron(u.amplitudes, v.amplitudes))


def apply(op: Operator, psi: StateVector) -> StateVector:
    """Matrix-vector action of op on psi; spaces must match exactly."""
    if op.input_space != psi.space:
        raise ValueError(
            f"operator input space {format_space(op.input_space)} does not "
            f"match state space {format_space(psi.space)}"
        )
    return StateVector(op.output_space, op.entries @ psi.amplitudes)


def density_of(psi: StateVector) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    return DensityMatrix(psi.space, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one factor of a declared two-factor product space."""
    if len(rho.space) != 2:
        raise ValueError(
            f"partial trace needs a two-factor space, got {format_space(rho.space)}"
        )
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    d0, d1 = len(rho.space[0]), len(rho.space[1])
    blocks = rho.entries.reshape(d0, d1, d0, d1)
    if keep == 0:
        reduced = np.einsum("ijkj->ik", blocks)
    else:
        reduced = np.einsum("ijil->jl", blocks)
    return DensityMatrix((rho.space[keep],), reduced)


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of moduli of off-diagonal entries in the declared basis."""
    mags = np.abs(rho.entries)
    return float(np.sum(mags) - np.sum(np.diag(mags)))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    return float(np.trace(rho.entries @ rho.entries).real)


PATH_MODES = A_PATHS + B_PATHS
PORT_MODES = A_PORTS + B_PORTS


def superposed_state(theta: float = 0.0) -> StateVector:
    """Single photon split evenly over paths A1, A2 with relative phase theta.

    theta = 0 is the plain 50-50 superposition; both path probabilities are
    1/2 for every theta.
    """
    amps = np.array([_INV_SQRT2, cmath.exp(1j * theta) * _INV_SQRT2])
    return StateVector((A_PATHS,), amps)


def biphoton_state() -> StateVector:
    """Momentum-entangled pair: (|A1 B1> + |A2 B2>)/sqrt2."""
    return StateVector((A_PATHS, B_PATHS), _SOURCE_AMPS)


def phased_biphoton_state(settings: PhaseSettings) -> StateVector:
    """Entangled source state after the two phase shifters, before splitting."""
    return StateVector((A_PATHS, B_PATHS), _shifted_source(settings.phi_a, settings.phi_b))


def phase_shifter(mode: str, phi: float) -> Operator:
    """Diagonal unitary multiplying one path mode's amplitude by e^{i phi}.

    Acts on the owning party's two-path space; output-port modes are not
    valid targets.
    """
    if mode in A_PATHS:
        party_paths = A_PATHS
    elif mode in B_PATHS:
        party_paths = B_PATHS
    elif mode in PORT_MODES:
        raise ValueError(f"phase shifters sit on paths, not detector ports: {mode!r}")
    else:
        raise ValueError(f"unknown mode {mode!r}; paths are {PATH_MODES}")
    diag = np.ones(2, dtype=complex)
    diag[party_paths.index(mode)] = cmath.exp(1j * float(phi))
    return Operator((party_paths,), (party_paths,), np.diag(diag))


def beam_splitter(party: str) -> Operator:
    """Symmetric 50/50 splitter taking a party's paths to its detector ports."""
    if party == "A":
        return Operator((A_PATHS,), (A_PORTS,), _BS_ENTRIES)
    if party == "B":
        return Operator((B_PATHS,), (B_PORTS,), _BS_ENTRIES)
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")
