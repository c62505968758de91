"""Dense complex linear algebra on labelled tensor-product spaces.

Every Hilbert space in this package is tiny (dimension 2 to 6), so states
and operators are stored densely over plain Python complex numbers: a
state's amplitudes are a tuple, and a matrix is a tuple of row tuples. Each
carries its basis labels and is checked eagerly at construction. "Exact"
throughout means within ``TOL`` of the ideal value, which is far above
accumulated double rounding at these sizes.

This module loads no numpy, so the detection model built on it runs without
it. The source states and the splitter are built from the constants in
``records``, which ``optics``' array core is built from too, so both views
hold the same numbers. It imports nothing from ``optics``, and no array
path imports it.

The states and operators derive from ``records.checked_fields``, so they
are compared and hashed by value and ``_make`` and ``_replace`` check them
too. All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import cmath
import math

from .records import (
    A_PATHS, A_PORTS, B_PATHS, B_PORTS, BS_ENTRIES, INV_SQRT2, SOURCE_AMPS, checked_fields,
)

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
    return math.prod(map(len, space))


def format_space(space: Space) -> str:
    return "x".join("[" + ",".join(factor) + "]" for factor in space)


def _nested(values, what: str) -> tuple:
    """(entries, shape): values, a number or nested sequences of numbers, as
    finite complex numbers in tuples nested alike, and the shape they form."""
    items = None
    # The usual leaves skip iter()'s TypeError; text is a leaf that complex() parses.
    if not isinstance(values, (int, float, complex, str, bytes)):
        try:
            items = iter(values)
        except TypeError:  # another numpy scalar, or a 0-d array
            pass
    if items is None:
        z = complex(values)
        if not cmath.isfinite(z):
            raise ValueError(f"{what} must have finite entries")
        return z, ()
    pairs = [_nested(v, what) for v in items]
    shapes = {shape for _, shape in pairs}
    if len(shapes) > 1:
        raise ValueError(f"{what} do not form a regular array")
    return tuple(z for z, _ in pairs), (len(pairs), *(shapes.pop() if shapes else ()))


def _gram_defect(vectors) -> float:
    """Largest |<u, v> - delta_uv| over pairs of the vectors: 0 when orthonormal.
    Each pair is taken once, u not after v: |<v, u>| is |<u, v>|, bit for bit."""
    return max(
        (abs(sum(x.conjugate() * y for x, y in zip(u, v)) - (i == j))
         for i, u in enumerate(vectors) for j, v in enumerate(vectors[i:], i)),
        default=0.0,
    )


def _has_eigenvalue_below(mat, floor: float) -> bool:
    """Whether the Hermitian mat has an eigenvalue below floor.

    Exactly then mat - floor*I is not positive definite, that is, some pivot
    of its LDL^H factorization (Gaussian elimination without row exchanges,
    whose pivots are the ratios of successive leading principal minors) is
    not positive. Decided up to rounding of order 1e-16 at these sizes.
    """
    rows = [[z - floor * (i == j) for j, z in enumerate(row)] for i, row in enumerate(mat)]
    for j, pivot_row in enumerate(rows):
        pivot = pivot_row[j].real
        if not pivot > 0.0:
            return True
        for row in rows[j + 1:]:
            factor = row[j] / pivot
            for k in range(j + 1, len(rows)):
                row[k] -= factor * pivot_row[k]
    return False


class StateVector(checked_fields("space", "amplitudes")):
    """Normalized complex amplitudes over a labelled tensor-product basis."""

    __slots__ = ()

    def __new__(cls, space: Space, amplitudes):
        space = as_space(space)
        amps, shape = _nested(amplitudes, "state amplitudes")
        if shape != (space_dim(space),):
            raise ValueError(f"amplitude vector of length {math.prod(shape)} does not fit "
                             f"space {format_space(space)} (dim {space_dim(space)})")
        norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
        if abs(norm - 1.0) > TOL:
            raise ValueError(f"state is not normalized: ||psi|| = {norm!r}")
        return super().__new__(cls, space, amps)

    def probabilities(self) -> tuple[float, ...]:
        return tuple(m * m for m in map(abs, self.amplitudes))


class DensityMatrix(checked_fields("space", "entries")):
    """Hermitian, positive-semidefinite, trace-one matrix on a labelled basis."""

    __slots__ = ()

    def __new__(cls, space: Space, entries):
        space = as_space(space)
        d = space_dim(space)
        mat, shape = _nested(entries, "density-matrix entries")
        if shape != (d, d):
            raise ValueError(f"entries of shape {shape} do not fit space "
                             f"{format_space(space)} (dim {d})")
        if any(abs(mat[i][j] - mat[j][i].conjugate()) > TOL
               for i in range(d) for j in range(i, d)):
            raise ValueError("density matrix is not Hermitian")
        trace = sum(row[i] for i, row in enumerate(mat))
        if abs(trace - 1.0) > TOL:
            raise ValueError(f"density matrix trace is {trace!r}, not 1")
        if _has_eigenvalue_below(mat, -EIG_TOL):
            raise ValueError("density matrix has a negative eigenvalue")
        return super().__new__(cls, space, mat)


class Operator(checked_fields("input_space", "output_space", "entries")):
    """Unitary (square) or isometric (tall rectangular) labelled matrix."""

    __slots__ = ()

    def __new__(cls, input_space: Space, output_space: Space, entries):
        in_space = as_space(input_space)
        out_space = as_space(output_space)
        d_in, d_out = space_dim(in_space), space_dim(out_space)
        mat, shape = _nested(entries, "operator entries")
        if shape != (d_out, d_in):
            raise ValueError(f"entries of shape {shape} do not map {format_space(in_space)} "
                             f"(dim {d_in}) to {format_space(out_space)} (dim {d_out})")
        # (V+V)_ij is <column i, column j>, and (UU+)_ij the conjugate of <row i, row j>.
        if _gram_defect(tuple(zip(*mat))) > TOL:
            raise ValueError("operator is not an isometry (V+V != I)")
        if d_in == d_out and _gram_defect(mat) > TOL:
            raise ValueError("square operator is not unitary (UU+ != I)")
        return super().__new__(cls, in_space, out_space, mat)


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
    amps = [0j] * space_dim(space)
    amps[index] = 1.0
    return StateVector(space, amps)


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Kronecker product; the result lives on the concatenated factor list."""
    return StateVector(u.space + v.space, [x * y for x in u.amplitudes for y in v.amplitudes])


def apply(op: Operator, psi: StateVector) -> StateVector:
    """Matrix-vector action of op on psi; spaces must match exactly."""
    if op.input_space != psi.space:
        raise ValueError(
            f"operator input space {format_space(op.input_space)} does not "
            f"match state space {format_space(psi.space)}"
        )
    amps = psi.amplitudes
    return StateVector(op.output_space, [sum(u * z for u, z in zip(row, amps)) for row in op.entries])


def density_of(psi: StateVector) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    amps = psi.amplitudes
    return DensityMatrix(psi.space, [[x * y.conjugate() for y in amps] for x in amps])


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one factor of a declared two-factor product space."""
    if len(rho.space) != 2:
        raise ValueError(
            f"partial trace needs a two-factor space, got {format_space(rho.space)}"
        )
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    d0, d1 = len(rho.space[0]), len(rho.space[1])
    m = rho.entries
    if keep == 0:  # <i|rho_0|k> = sum over j of <i j|rho|k j>
        reduced = [[sum(m[i * d1 + j][k * d1 + j] for j in range(d1)) for k in range(d0)]
                   for i in range(d0)]
    else:  # <j|rho_1|l> = sum over i of <i j|rho|i l>
        reduced = [[sum(m[i * d1 + j][i * d1 + l] for i in range(d0)) for l in range(d1)]
                   for j in range(d1)]
    return DensityMatrix((rho.space[keep],), reduced)


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of moduli of off-diagonal entries in the declared basis."""
    return sum((abs(z) for i, row in enumerate(rho.entries) for j, z in enumerate(row) if i != j),
               0.0)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    return sum((z * w).real for row, col in zip(rho.entries, zip(*rho.entries))
               for z, w in zip(row, col))


def superposed_state(theta: float = 0.0) -> StateVector:
    """Single photon split evenly over paths A1, A2 with relative phase theta.

    theta = 0 is the plain 50-50 superposition; both path probabilities are
    1/2 for every theta.
    """
    return StateVector((A_PATHS,), [INV_SQRT2, cmath.exp(1j * theta) * INV_SQRT2])


def biphoton_state() -> StateVector:
    """Momentum-entangled pair: (|A1 B1> + |A2 B2>)/sqrt2."""
    return StateVector((A_PATHS, B_PATHS), SOURCE_AMPS)


def phased_biphoton_state(settings) -> StateVector:
    """Entangled source state after the two phase shifters (phi_a on A2, phi_b
    on B1), before splitting; settings is an optics.PhaseSettings."""
    za, zb = cmath.exp(1j * settings.phi_a), cmath.exp(1j * settings.phi_b)
    # The shifters' diagonals over the path pairs (A1B1, A1B2, A2B1, A2B2)
    return StateVector((A_PATHS, B_PATHS),
                       [amp * z for amp, z in zip(SOURCE_AMPS, (zb, 1.0, za * zb, za))])


def phase_shifter(mode: str, phi: float) -> Operator:
    """Diagonal unitary multiplying one path mode's amplitude by e^{i phi}.

    Acts on the owning party's two-path space; output-port modes are not
    valid targets.
    """
    if mode in A_PATHS:
        party_paths = A_PATHS
    elif mode in B_PATHS:
        party_paths = B_PATHS
    elif mode in A_PORTS + B_PORTS:
        raise ValueError(f"phase shifters sit on paths, not detector ports: {mode!r}")
    else:
        raise ValueError(f"unknown mode {mode!r}; paths are {A_PATHS + B_PATHS}")
    diag = [1.0, 1.0]
    diag[party_paths.index(mode)] = cmath.exp(1j * float(phi))
    return Operator((party_paths,), (party_paths,), [[diag[0], 0.0], [0.0, diag[1]]])


def beam_splitter(party: str) -> Operator:
    """Symmetric 50/50 splitter taking a party's paths to its detector ports."""
    if party == "A":
        return Operator((A_PATHS,), (A_PORTS,), BS_ENTRIES)
    if party == "B":
        return Operator((B_PATHS,), (B_PORTS,), BS_ENTRIES)
    raise ValueError(f"party must be 'A' or 'B', got {party!r}")
