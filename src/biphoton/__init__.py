"""Exact state-vector model of a momentum-entangled two-photon
interferometer, a unitary detection model, and deterministic coincidence
sampling with coherence analysis.

Importing the package loads none of its modules. The first read of a root
name, an export or a module, imports every module and binds every name
below, so from then on the root is what an eager package would be. A
command-line run loads only the modules its command needs.
"""

import importlib
import sys
import types

# The names the root exports, by the module that defines them.
_EXPORTS = {
    "analysis": (
        "Marginals",
        "SweepResult",
        "chsh",
        "correlation",
        "marginals",
        "no_signaling_check",
        "sweep_correlation",
    ),
    "linalg": (
        "DensityMatrix",
        "Operator",
        "StateVector",
        "apply",
        "beam_splitter",
        "biphoton_state",
        "density_of",
        "ket",
        "l1_coherence",
        "partial_trace",
        "phase_shifter",
        "phased_biphoton_state",
        "purity",
        "superposed_state",
        "tensor",
    ),
    "montecarlo": (
        "EstimatorResult",
        "bell_experiment",
        "estimate_correlation",
        "estimate_counts",
        "outcome_blocks",
        "sample_counts",
        "sample_events",
    ),
    "optics": (
        "CHSH_OPTIMAL",
        "ChshSettings",
        "PhaseSettings",
        "Visibility",
        "joint_distribution",
        "joint_tables",
    ),
    "premeasure": (
        "CorrelationReport",
        "correlation_report",
        "detector_coupling",
        "premeasure",
    ),
    "rng": ("SplitMix64", "derive_seed"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module_name, names in _EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{module_name}")
        namespace.update((export, getattr(module, export)) for export in names)
    return namespace[name]


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each submodule on the package as it loads
        # it. The root name premeasure is the function, not its module.
        if name == "premeasure" and isinstance(value, types.ModuleType):
            value = value.premeasure
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
