"""Dense complex linear algebra on labelled tensor-product spaces.

Every Hilbert space in this package is tiny (dimension 2 to 6), so states
and operators are stored densely, carry their basis labels, and are checked
eagerly at construction. "Exact" throughout means within ``TOL`` of the
ideal value, which is far above accumulated double rounding at these sizes.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _checked_complex(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must have finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over a labelled tensor-product basis."""

    space: Space
    amplitudes: np.ndarray

    def __post_init__(self):
        space = as_space(self.space)
        amps = _checked_complex(self.amplitudes, "state amplitudes")
        if amps.ndim != 1 or amps.size != space_dim(space):
            raise ValueError(
                f"amplitude vector of length {amps.size} does not fit "
                f"space {format_space(space)} (dim {space_dim(space)})"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > TOL:
            raise ValueError(f"state is not normalized: ||psi|| = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: StateVector) -> complex:
        """<self|other>; spaces must match."""
        if self.space != other.space:
            raise ValueError(
                f"cannot overlap states on {format_space(self.space)} "
                f"and {format_space(other.space)}"
            )
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_json_dict(self) -> dict:
        return {
            "space": [list(factor) for factor in self.space],
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix on a labelled basis."""

    space: Space
    entries: np.ndarray

    def __post_init__(self):
        space = as_space(self.space)
        mat = _checked_complex(self.entries, "density-matrix entries")
        d = space_dim(space)
        if mat.shape != (d, d):
            raise ValueError(
                f"entries of shape {mat.shape} do not fit space "
                f"{format_space(space)} (dim {d})"
            )
        if float(np.max(np.abs(mat - mat.conj().T))) > TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TOL:
            raise ValueError(f"density matrix trace is {trace!r}, not 1")
        if float(np.min(np.linalg.eigvalsh(mat))) < -EIG_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        mat.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", mat)

    def to_json_dict(self) -> dict:
        return {
            "space": [list(factor) for factor in self.space],
            "entries": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.entries
            ],
        }


@dataclass(frozen=True, eq=False)
class Operator:
    """Unitary (square) or isometric (tall rectangular) labelled matrix."""

    input_space: Space
    output_space: Space
    entries: np.ndarray

    def __post_init__(self):
        in_space = as_space(self.input_space)
        out_space = as_space(self.output_space)
        mat = _checked_complex(self.entries, "operator entries")
        d_in, d_out = space_dim(in_space), space_dim(out_space)
        if mat.shape != (d_out, d_in):
            raise ValueError(
                f"entries of shape {mat.shape} do not map "
                f"{format_space(in_space)} (dim {d_in}) to "
                f"{format_space(out_space)} (dim {d_out})"
            )
        eye_in = np.eye(d_in)
        if float(np.max(np.abs(mat.conj().T @ mat - eye_in))) > TOL:
            raise ValueError("operator is not an isometry (V+V != I)")
        if d_in == d_out and float(np.max(np.abs(mat @ mat.conj().T - eye_in))) > TOL:
            raise ValueError("square operator is not unitary (UU+ != I)")
        mat.setflags(write=False)
        object.__setattr__(self, "input_space", in_space)
        object.__setattr__(self, "output_space", out_space)
        object.__setattr__(self, "entries", mat)


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


def tensor_operator(a: Operator, b: Operator) -> Operator:
    return Operator(
        a.input_space + b.input_space,
        a.output_space + b.output_space,
        np.kron(a.entries, b.entries),
    )


def compose(second: Operator, first: Operator) -> Operator:
    """Operator product second @ first (first acts first)."""
    if first.output_space != second.input_space:
        raise ValueError(
            f"cannot compose: first maps into {format_space(first.output_space)} "
            f"but second expects {format_space(second.input_space)}"
        )
    return Operator(
        first.input_space, second.output_space, second.entries @ first.entries
    )


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
