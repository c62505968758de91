"""The labels and amplitudes of the interferometer's modes, and the base of
every value type that checks its fields.

Stdlib only: the exact tables (optics) and the labelled model (linalg) build
on the labels and amplitudes here, and neither loads numpy.
"""

import math
from collections import namedtuple

# Each party's two paths, and its two detector ports
A_PATHS = ("A1", "A2")
B_PATHS = ("B1", "B2")
A_PORTS = ("A+", "A-")
B_PORTS = ("B+", "B-")

INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Source amplitudes over the path pairs (A1B1, A1B2, A2B1, A2B2).
SOURCE_AMPS = (INV_SQRT2, 0.0, 0.0, INV_SQRT2)
# One party's symmetric 50/50 splitter, from its paths to its ports.
BS_ENTRIES = ((INV_SQRT2, 1j * INV_SQRT2), (1j * INV_SQRT2, INV_SQRT2))


def checked_fields(*names: str) -> type:
    """A namedtuple base with the fields names, for a type that checks them in
    its own __new__. Its _make, and _replace, which goes through _make, build
    by calling the type, so neither skips the checks."""
    base = namedtuple("CheckedFields", names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
