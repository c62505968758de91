"""Base of the package's immutable types that compare by identity, and the
labels and amplitudes of the interferometer's modes.

Types that compare by value are NamedTuples. Neither kind is a dataclass: a
dataclass generates and compiles code for each class in every process that
imports it. Stdlib only: the array core (optics) and the labelled model
(linalg) build on the labels and amplitudes here, and linalg loads no numpy.
"""

from __future__ import annotations

import math

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


class Record:
    """Base of an immutable type compared and hashed by identity.

    A subclass lists its fields, in order, as both __slots__ and _fields. Its
    fields are set once, by __init__ through _set; assigning or deleting an
    attribute afterwards raises AttributeError. The __init__ here takes the
    fields by position, then by name; a subclass that checks them overrides it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        rest = self._fields[len(values):]
        if len(values) > len(self._fields) or named.keys() != set(rest):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self._set(*values, *(named[name] for name in rest))

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return {name: getattr(self, name) for name in self._fields}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle build the copy through __init__, not by assignment
        return type(self), tuple(self._asdict().values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

