"""The package's value types: NamedTuples, immutable after construction,
compared and hashed by value, and checked by their constructors with fixed
messages, also when built by ``_make`` or ``_replace``."""

import copy
import math
import pickle

import numpy as np
import pytest

from biphoton.analysis import ChshSettings
from biphoton.commands import _render_json
from biphoton.linalg import DensityMatrix, Operator, StateVector
from biphoton.montecarlo import EstimatorResult
from biphoton.optics import PhaseSettings, Visibility
from biphoton.premeasure import CorrelationReport, correlation_report, premeasure

A = (("A1", "A2"),)
PORTS = (("A+", "A-"),)

# One instance of each type, and one of its fields.
INSTANCES = {
    "PhaseSettings": (lambda: PhaseSettings(0.5, 1.0), "phi_a"),
    "Visibility": (lambda: Visibility(0.5), "v"),
    "ChshSettings": (lambda: ChshSettings(0.0, 1.0, 2.0, 3.0), "b"),
    "EstimatorResult": (lambda: EstimatorResult(0.5, 0.1, 10), "n"),
    "StateVector": (lambda: StateVector(A, [1.0, 0.0]), "amplitudes"),
    "DensityMatrix": (lambda: DensityMatrix(A, np.eye(2) / 2), "entries"),
    "Operator": (lambda: Operator(A, PORTS, np.eye(2)), "input_space"),
    "CorrelationReport": (lambda: correlation_report(premeasure(0.3)), "both_clicked_prob"),
}


@pytest.mark.parametrize("make", [make for make, _ in INSTANCES.values()], ids=INSTANCES)
def test_values_are_tuples(make):
    assert isinstance(make(), tuple)


@pytest.mark.parametrize("make,field", INSTANCES.values(), ids=INSTANCES)
def test_fields_cannot_be_assigned_or_deleted(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("make,field", INSTANCES.values(), ids=INSTANCES)
def test_copies_and_unpickled_records_hold_the_same_fields(make, field):
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert repr(twin) == repr(record)
        with pytest.raises(AttributeError):
            setattr(twin, field, getattr(record, field))


# Two constructions of one value, and a third of another.
VALUES = {
    "PhaseSettings": (
        lambda: PhaseSettings(0.5, 0.0), lambda: PhaseSettings(0.5 + 2 * math.pi, 0.0),
        lambda: PhaseSettings(0.0, 0.5),
    ),
    "Visibility": (lambda: Visibility(), lambda: Visibility(v=1), lambda: Visibility(0.5)),
    "ChshSettings": (
        lambda: ChshSettings(0.0, 1.0, 2.0, 3.0),
        lambda: ChshSettings(a=0.0, a_prime=1.0, b=2.0, b_prime=3.0),
        lambda: ChshSettings(0.0, 1.0, 3.0, 2.0),
    ),
    "EstimatorResult": (
        lambda: EstimatorResult(0.5, 0.1, 10),
        lambda: EstimatorResult(estimate=0.5, stderr=0.1, n=10),
        lambda: EstimatorResult(0.5, 0.1, 11),
    ),
    "StateVector": (
        lambda: StateVector(A, [1.0, 0.0]),
        lambda: StateVector(space=[["A1", "A2"]], amplitudes=(1, 0)),
        lambda: StateVector(A, [0.0, 1.0]),
    ),
    "DensityMatrix": (
        lambda: DensityMatrix(A, np.eye(2) / 2), lambda: DensityMatrix(A, [[0.5, 0j], [0j, 0.5]]),
        lambda: DensityMatrix(A, [[1.0, 0.0], [0.0, 0.0]]),
    ),
    "Operator": (
        lambda: Operator(A, PORTS, np.eye(2)),
        lambda: Operator(input_space=A, output_space=PORTS, entries=[[1, 0], [0, 1]]),
        lambda: Operator(A, A, np.eye(2)),
    ),
}


@pytest.mark.parametrize("make,same,other", VALUES.values(), ids=VALUES)
def test_values_compare_and_hash_by_their_fields(make, same, other):
    a, b, c = make(), same(), other()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2


def test_correlation_reports_compare_by_value_and_hold_unhashable_tables():
    a, b, c = (correlation_report(premeasure(theta)) for theta in (0.3, 0.3, 0.4))
    assert a == b and not a != b
    assert a != c and not a == c
    with pytest.raises(TypeError):
        hash(a)


# Each case's arguments are one bad field among good ones.
ERRORS = {
    "phase nan": (PhaseSettings, (math.nan, 0.0), "phase must be finite, got nan"),
    "phase inf": (PhaseSettings, (0.0, -math.inf), "phase must be finite, got -inf"),
    "visibility": (Visibility, (1.5,), "visibility must lie in [0, 1], got 1.5"),
    "visibility nan": (Visibility, (math.nan,), "visibility must lie in [0, 1], got nan"),
    "stderr": (EstimatorResult, (0.0, -1.0, 10), "stderr must be nonnegative, got -1.0"),
    "count": (EstimatorResult, (0.0, 0.0, 0), "sample count must be >= 1, got 0"),
    "state finite": (StateVector, (A, [math.nan, 0.0]), "state amplitudes must have finite entries"),
    "state length": (
        StateVector, (A, [1.0, 0.0, 0.0]),
        "amplitude vector of length 3 does not fit space [A1,A2] (dim 2)",
    ),
    "state norm": (
        StateVector, (A, [1.0, 1.0]), "state is not normalized: ||psi|| = 1.4142135623730951",
    ),
    "density finite": (
        DensityMatrix, (A, [[math.inf, 0.0], [0.0, 0.0]]),
        "density-matrix entries must have finite entries",
    ),
    "density shape": (
        DensityMatrix, (A, np.eye(3) / 3),
        "entries of shape (3, 3) do not fit space [A1,A2] (dim 2)",
    ),
    "density hermitian": (
        DensityMatrix, (A, [[0.5, 0.5], [0.0, 0.5]]), "density matrix is not Hermitian",
    ),
    # Trace one, and the eigenvalue check reads only real pivots: only the
    # Hermitian check sees the imaginary diagonal.
    "density hermitian diagonal": (
        DensityMatrix, (A, [[0.5 + 1e-3j, 0.0], [0.0, 0.5 - 1e-3j]]),
        "density matrix is not Hermitian",
    ),
    "density trace": (
        DensityMatrix, (A, [[0.8, 0.0], [0.0, 0.8]]), "density matrix trace is (1.6+0j), not 1",
    ),
    "density eigenvalue": (
        DensityMatrix, (A, [[1.0, 0.6], [0.6, 0.0]]), "density matrix has a negative eigenvalue",
    ),
    "operator finite": (
        Operator, (A, PORTS, [[math.nan, 0.0], [0.0, 1.0]]),
        "operator entries must have finite entries",
    ),
    "operator shape": (
        Operator, (A, PORTS, np.eye(3)),
        "entries of shape (3, 3) do not map [A1,A2] (dim 2) to [A+,A-] (dim 2)",
    ),
    "operator isometry": (
        Operator, (A, PORTS, [[1.0, 0.0], [1.0, 0.0]]), "operator is not an isometry (V+V != I)",
    ),
}


@pytest.mark.parametrize("cls,args,message", ERRORS.values(), ids=ERRORS)
def test_constructors_reject_bad_fields_with_their_messages(cls, args, message):
    with pytest.raises(ValueError) as err:
        cls(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("cls,args,message", ERRORS.values(), ids=ERRORS)
def test_make_and_replace_run_the_constructor_checks(cls, args, message):
    with pytest.raises(ValueError) as err:
        cls._make(args)
    assert str(err.value) == message
    # Replacing one field of a good value at a time: only the bad field fails.
    good = INSTANCES[cls.__name__][0]()
    messages = []
    for field, value in zip(cls._fields, args):
        try:
            good._replace(**{field: value})
        except ValueError as exc:
            messages.append(str(exc))
    assert messages == [message]


# A field of each checking type, and a good value that all but EstimatorResult normalize.
REPLACEMENTS = {
    "PhaseSettings": ("phi_a", 100.0),
    "Visibility": ("v", 1),
    "EstimatorResult": ("n", 11),
    "StateVector": ("amplitudes", [0, 1]),
    "DensityMatrix": ("entries", np.diag([1, 0])),
    "Operator": ("output_space", [["A+", "A-"]]),
}


@pytest.mark.parametrize("name,field,value", [(k, *v) for k, v in REPLACEMENTS.items()],
                         ids=REPLACEMENTS)
def test_make_and_replace_build_what_the_constructor_builds(name, field, value):
    record = INSTANCES[name][0]()
    fields = {**record._asdict(), field: value}
    built = type(record)(**fields)
    for twin in (record._replace(**{field: value}), type(record)._make(fields.values())):
        assert type(twin) is type(record)
        assert twin == built and repr(twin) == repr(built)


def test_records_render_as_objects_of_their_fields_in_order():
    assert _render_json({"trial": 7, "settings": PhaseSettings(-1.0, 0.5)}) == (
        '{\n  "trial": 7,\n  "settings": {\n    "phi_a": 5.28318531,\n    "phi_b": 0.5\n  }\n}'
    )
    assert _render_json(ChshSettings(0.0, 1.0, 2.0, 3.0)) == (
        '{\n  "a": 0,\n  "a_prime": 1,\n  "b": 2,\n  "b_prime": 3\n}'
    )
    assert _render_json([Visibility(0.5), EstimatorResult(0.5, 0.25, 4)]) == (
        '[{\n  "v": 0.5\n}, {\n  "estimate": 0.5,\n  "stderr": 0.25,\n  "n": 4\n}]'
    )
    assert _render_json(StateVector(A, [0.6, 0.8j])) == (
        '{\n  "space": [["A1", "A2"]],\n  "amplitudes": [[0.6, 0], [0, 0.8]]\n}'
    )
    report = _render_json(correlation_report(premeasure(0.0)))
    keys = [line.split('"')[1] for line in report.splitlines() if line.startswith('  "')]
    assert keys == [
        "joint_probs", "conditional_probs", "subsystem_coherence", "correlation_coherence",
        "correlation_coherence_modulus", "correlation_coherence_phase", "both_clicked_prob",
        "iff_violation_prob",
    ]


# A NamedTuple takes its fields by position, then by name; the messages are Python's.
BAD_FIELDS = {
    "too many": ((0,) * 9, {}),
    "too few": ((0,) * 7, {}),
    "unknown name": ((0,) * 7, {"iff_violation_prob": 0, "both_clicked": 0}),
    "name and position": ((0,) * 8, {"iff_violation_prob": 0}),
}


@pytest.mark.parametrize("values,named", BAD_FIELDS.values(), ids=BAD_FIELDS)
def test_record_init_takes_exactly_its_fields(values, named):
    with pytest.raises(TypeError) as err:
        CorrelationReport(*values, **named)
    assert "CorrelationReport" in str(err.value)


def test_render_json_of_null_an_empty_object_and_an_unknown_type():
    assert _render_json(None) == "null"
    assert _render_json({}) == "{}"
    assert _render_json({"a": {}, "b": None}) == '{\n  "a": {},\n  "b": null\n}'
    with pytest.raises(TypeError) as err:
        _render_json({"a": [1, {2}]})
    assert str(err.value) == "cannot render set as JSON"
