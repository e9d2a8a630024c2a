"""qassert: statevector circuit simulation with runtime quantum assertions.

Assertions check classical values, GHZ-type entanglement, and uniform
superposition through one ancilla qubit each, so they can run mid-circuit
without measuring the data qubits; shots whose assertions fire can then be
filtered out of the result statistics (post-selection).

Each public name is imported from its module on first access, so code that
only parses and lowers circuits does not load numpy or the simulator.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "assertions": "ANCILLA AssertionGadget AssertionKind AssertionSpec apply_gadget "
    "build_classical_assertion build_entanglement_assertion build_gadget "
    "build_superposition_assertion predicted_error_probability predicted_pass_state",
    "gates": "Gate InvariantViolationError MAX_QUBITS cnot h s x y z",
    "lang": "ASSERT_CREG_PREFIX AssertInstr Circuit GateInstr Instruction MeasureInstr "
    "ParseError Span lower_assertions parse pretty_print",
    "measurement": "BRANCH_PROBABILITY_FLOOR MeasurementRecord NoiseModel RngStream "
    "apply_gate_noise apply_readout_noise measure postselect prob_one prob_zero "
    "sample_measurements",
    "runner": "FilterReport RunStatistics ShotRecord compute_filter_report "
    "exact_distribution merge_statistics render_report run_shots run_single",
    "state": "StateVector apply_gate basis_index factor_out_qubit fidelity format_state "
    "from_amplitudes ket new_basis_state states_equal_up_to_global_phase tensor",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
