"""Tests for the assertion gadget builders and their analytic oracles.

The oracles are checked against gate-level simulation of the same
gadgets; the dense-matrix reference in oracles.py provides a third,
fully independent route for the runner tests.
"""

import numpy as np
import pytest

from qassert import (
    ANCILLA,
    AssertionKind,
    AssertionSpec,
    apply_gadget,
    apply_gate,
    build_classical_assertion,
    build_entanglement_assertion,
    build_gadget,
    build_superposition_assertion,
    cnot,
    fidelity,
    from_amplitudes,
    h,
    ket,
    postselect,
    predicted_error_probability,
    predicted_pass_state,
    prob_one,
    states_equal_up_to_global_phase,
    tensor,
    x,
)

from helpers import assert_same_state, sv

S2 = 1.0 / np.sqrt(2.0)

THETAS = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]
PHIS = [0.0, np.pi / 2, np.pi]


def qubit_state(theta: float, phi: float = 0.0):
    """cos(theta)|0> + e^{i phi} sin(theta)|1>."""
    return from_amplitudes([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])


def ghz_state(n: int, a: complex, b: complex):
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = a
    amps[-1] = b
    return from_amplitudes(amps)


class TestBuilders:
    def test_classical_structure(self):
        gadget = build_classical_assertion(2, 0)
        assert gadget.gates == (cnot(2, ANCILLA),)

    def test_classical_expected_one_inits_ancilla(self):
        assert build_classical_assertion(0, 1).gates == (x(ANCILLA), cnot(0, ANCILLA))

    def test_entanglement_structure_two_targets(self):
        gadget = build_entanglement_assertion((0, 1), 0)
        assert gadget.gates == (cnot(0, ANCILLA), cnot(1, ANCILLA))

    def test_entanglement_odd_targets_pad_to_even(self):
        gadget = build_entanglement_assertion((0, 1, 2), 0)
        assert gadget.gates == (
            cnot(0, ANCILLA),
            cnot(1, ANCILLA),
            cnot(2, ANCILLA),
            cnot(2, ANCILLA),
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_entanglement_cnot_count_always_even(self, n):
        gadget = build_entanglement_assertion(tuple(range(n)), 0)
        assert gadget.cnot_count() % 2 == 0

    def test_entanglement_parity_one_inits_ancilla(self):
        gadget = build_entanglement_assertion((0, 1), 1)
        assert gadget.gates == (x(ANCILLA), cnot(0, ANCILLA), cnot(1, ANCILLA))

    def test_superposition_structure(self):
        gadget = build_superposition_assertion(0)
        assert gadget.gates == (cnot(0, ANCILLA), h(0), h(ANCILLA), cnot(0, ANCILLA))

    def test_entanglement_needs_two_targets(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_entanglement_assertion((0,), 0)

    def test_entanglement_rejects_duplicates(self):
        for targets in ((0, 0), (np.int64(1), 1)):
            with pytest.raises(ValueError, match="assertion targets must be distinct"):
                build_entanglement_assertion(targets, 0)

    def test_bind_substitutes_ancilla(self):
        gadget = build_classical_assertion(0, 0)
        assert gadget.bind(3) == (cnot(0, 3),)
        with pytest.raises(ValueError):
            gadget.bind(-1)

    # ANCILLA is -1, so a negative target would alias the placeholder.
    BUILDERS = {
        "classical": lambda t: build_classical_assertion(t, 0),
        "entanglement": lambda t: build_entanglement_assertion((2, t), 1),
        "superposition": build_superposition_assertion,
        "build_gadget": lambda t: build_gadget(
            AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (t,), 1)),
    }

    @pytest.mark.parametrize("target", [-1, 1.5, True])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_builders_reject_what_is_not_a_target(self, builder, target):
        with pytest.raises(ValueError) as info:
            self.BUILDERS[builder](target)
        assert str(info.value) == (
            f"assertion target must be a non-negative integer, got {target!r}")

    @pytest.mark.parametrize("ancilla", [-1, 1.5, True])
    def test_bind_rejects_what_is_not_an_index(self, ancilla):
        with pytest.raises(ValueError) as info:
            build_classical_assertion(0, 0).bind(ancilla)
        assert str(info.value) == (
            f"ancilla index must be a non-negative integer, got {ancilla!r}")

    def test_build_gadget_dispatch(self):
        spec = AssertionSpec(AssertionKind.ENTANGLED, (0, 1), 0)
        assert build_gadget(spec) == build_entanglement_assertion((0, 1), 0)


class TestSpecValidation:
    def test_classical_needs_bit(self):
        with pytest.raises(ValueError, match="expected bit"):
            AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), None)

    @pytest.mark.parametrize("kind, targets", [
        (AssertionKind.CLASSICAL_EQUALS, (0,)), (AssertionKind.ENTANGLED, (0, 1)),
    ])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_numpy_bit_is_stored_as_int(self, kind, targets, bit):
        spec = AssertionSpec(kind, targets, np.int64(bit))
        assert type(spec.expected) is int
        assert spec == AssertionSpec(kind, targets, bit)

    # A bool is not a bit, though numpy integers are.
    @pytest.mark.parametrize("bit", [True, np.True_, np.int64(2), 1.0])
    def test_rejects_what_is_not_a_bit(self, bit):
        with pytest.raises(ValueError, match="expected bit of 0 or 1"):
            AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), bit)
        with pytest.raises(ValueError, match="parity bit of 0 or 1"):
            AssertionSpec(AssertionKind.ENTANGLED, (0, 1), bit)

    # True == 1 and 1.0 == 1, but neither is an index, so the pair is not a
    # duplicate: it breaks the integer rule, as either target does alone.
    @pytest.mark.parametrize("other", [True, 1.0])
    def test_only_integer_targets_can_repeat(self, other):
        with pytest.raises(ValueError) as info:
            AssertionSpec(AssertionKind.ENTANGLED, (1, other), 0)
        assert str(info.value) == (
            f"assertion target must be a non-negative integer, got {other!r}")

    # The spec owns the target rule, so a spec that exists is valid.
    @pytest.mark.parametrize("target", [-1, 1.5, True])
    @pytest.mark.parametrize("kind, targets, bit", [
        (AssertionKind.CLASSICAL_EQUALS, (), 0),
        (AssertionKind.ENTANGLED, (2,), 1),
        (AssertionKind.UNIFORM_SUPERPOSITION, (), None),
    ], ids=["classical", "entangled", "superposition"])
    def test_spec_rejects_what_is_not_a_target(self, kind, targets, bit, target):
        with pytest.raises(ValueError) as info:
            AssertionSpec(kind, (*targets, target), bit)
        assert str(info.value) == (
            f"assertion target must be a non-negative integer, got {target!r}")

    def test_numpy_targets_are_stored_as_ints(self):
        spec = AssertionSpec(AssertionKind.ENTANGLED, (np.int64(0), 1), 0)
        assert spec.targets == (0, 1)
        assert all(type(t) is int for t in spec.targets)
        assert all(type(q) is int
                   for g in build_gadget(spec).gates for q in g.qubits)

    def test_superposition_takes_no_expected(self):
        with pytest.raises(ValueError, match="no expected"):
            AssertionSpec(AssertionKind.UNIFORM_SUPERPOSITION, (0,), 0)

    def test_single_target_kinds(self):
        with pytest.raises(ValueError, match="exactly 1"):
            AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0, 1), 0)

    def test_oracle_rejects_out_of_range_target(self):
        spec = AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (1,), 0)
        with pytest.raises(ValueError, match="out of range"):
            predicted_error_probability(spec, ket("0"))


class TestSuperpositionStages:
    """The gadget's gate sequence walks through the known intermediate
    states: after the first CNOT, after the two H gates, after the final
    CNOT (data qubit 0, ancilla qubit 1)."""

    @pytest.mark.parametrize("a,b", [(S2, S2), (1.0, 0.0), (0.8, 0.6), (0.6, -0.8)])
    def test_intermediate_states(self, a, b):
        st = tensor(from_amplitudes([a, b]), ket("0"))
        st = apply_gate(st, cnot(0, 1))
        np.testing.assert_allclose(
            st.amps, sv_amps({"00": a, "11": b}), atol=1e-15
        )
        st = apply_gate(st, h(0))
        st = apply_gate(st, h(1))
        np.testing.assert_allclose(
            st.amps,
            sv_amps({
                "00": (a + b) / 2, "10": (a - b) / 2,
                "01": (a - b) / 2, "11": (a + b) / 2,
            }),
            atol=1e-15,
        )
        st = apply_gate(st, cnot(0, 1))
        np.testing.assert_allclose(
            st.amps,
            sv_amps({
                "00": (a + b) / 2, "10": (a + b) / 2,
                "01": (a - b) / 2, "11": (a - b) / 2,
            }),
            atol=1e-15,
        )


def sv_amps(terms):
    return sv({k: complex(v) for k, v in terms.items()}).amps


class TestApplyGadget:
    """apply_gadget appends a |0> ancilla and runs the gadget's gates, so a
    gadget's leading x on the ancilla is what prepares the expected bit 1."""

    # Each gadget with the bit its ancilla must start in.
    GADGETS = {
        "classical-0": (build_classical_assertion(1, 0), 0),
        "classical-1": (build_classical_assertion(1, 1), 1),
        "entanglement-0": (build_entanglement_assertion((0, 1, 2), 0), 0),
        "entanglement-1": (build_entanglement_assertion((0, 1, 2), 1), 1),
        "superposition": (build_superposition_assertion(1), 0),
    }

    @pytest.mark.parametrize("name", GADGETS)
    def test_ancilla_starts_in_the_expected_bit(self, name):
        gadget, bit = self.GADGETS[name]
        gates = gadget.bind(3)
        if bit:
            assert gates[0] == x(3)
            gates = gates[1:]
        rng = np.random.default_rng(5)
        st = from_amplitudes(rng.normal(size=8) + 1j * rng.normal(size=8), normalize=True)
        expected = tensor(st, ket(str(bit)))
        for gate in gates:
            expected = apply_gate(expected, gate)
        np.testing.assert_array_equal(apply_gadget(st, gadget).amps, expected.amps)


class TestClassicalAssertion:
    def test_satisfied_input_never_fires(self):
        joint = apply_gadget(ket("0"), build_classical_assertion(0, 0))
        assert prob_one(joint, 1) == 0.0
        assert_same_state(joint, ket("00"))

    def test_expected_one_on_one_passes(self):
        joint = apply_gadget(ket("1"), build_classical_assertion(0, 1))
        # ancilla = 1 XOR 1 = 0: no error, and it is disentangled.
        assert prob_one(joint, 1) == 0.0
        assert_same_state(joint, ket("10"))

    def test_superposed_input_error_weight(self):
        a, b = 0.6, 0.8
        joint = apply_gadget(from_amplitudes([a, b]), build_classical_assertion(0, 0))
        assert prob_one(joint, 1) == pytest.approx(b * b, abs=1e-12)
        assert_same_state(postselect(joint, 1, 0), ket("00"))
        assert_same_state(postselect(joint, 1, 1), ket("11"))

    def test_oracle_matches_examples(self):
        spec0 = AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), 0)
        assert predicted_error_probability(spec0, ket("0")) == 0.0
        assert predicted_error_probability(spec0, ket("1")) == 1.0
        a, b = 0.6, 0.8
        st = from_amplitudes([a, b])
        assert predicted_error_probability(spec0, st) == pytest.approx(
            b * b, abs=1e-12
        )
        assert_same_state(predicted_pass_state(spec0, st), ket("0"))
        spec1 = AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), 1)
        assert predicted_error_probability(spec1, st) == pytest.approx(
            a * a, abs=1e-12
        )
        assert predicted_pass_state(spec1, ket("0")) is None


class TestEntanglementAssertion:
    def test_bell_input_never_fires_and_is_unchanged(self):
        a, b = 0.6, 0.8
        bell = sv({"00": a, "11": b})
        joint = apply_gadget(bell, build_entanglement_assertion((0, 1), 0))
        assert prob_one(joint, 2) == 0.0
        assert_same_state(joint, tensor(bell, ket("0")))

    def test_generic_input_projections(self):
        # Product input gives all four components; the check splits them
        # by parity.
        a, b, c, d = 0.5, 0.5, 0.5, -0.5
        st = sv({"00": a, "11": b, "10": c, "01": d})
        joint = apply_gadget(st, build_entanglement_assertion((0, 1), 0))
        err = abs(c) ** 2 + abs(d) ** 2
        assert prob_one(joint, 2) == pytest.approx(err, abs=1e-12)
        keep = postselect(joint, 2, 0)
        norm_pass = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        assert_same_state(
            keep, tensor(sv({"00": a / norm_pass, "11": b / norm_pass}), ket("0"))
        )
        fail = postselect(joint, 2, 1)
        norm_fail = np.sqrt(abs(c) ** 2 + abs(d) ** 2)
        assert_same_state(
            fail, tensor(sv({"10": c / norm_fail, "01": d / norm_fail}), ket("1"))
        )

    def test_odd_parity_variant(self):
        st = sv({"01": S2, "10": S2})
        joint = apply_gadget(st, build_entanglement_assertion((0, 1), 1))
        assert prob_one(joint, 2) == pytest.approx(0.0, abs=1e-15)
        assert_same_state(joint, tensor(st, ket("0")))

    def test_wrong_parity_always_fires(self):
        st = sv({"00": S2, "11": S2})
        joint = apply_gadget(st, build_entanglement_assertion((0, 1), 1))
        assert prob_one(joint, 2) == pytest.approx(1.0, abs=1e-15)

    def test_oracle_example_from_product_state(self):
        # (|00> + |01>)/sqrt(2): the qubit-1 branch breaks even parity.
        spec = AssertionSpec(AssertionKind.ENTANGLED, (0, 1), 0)
        st = sv({"00": S2, "01": S2})
        assert predicted_error_probability(spec, st) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ghz_inputs_pass_and_are_preserved(self, n):
        st = ghz_state(n, 0.6, 0.8j)
        joint = apply_gadget(st, build_entanglement_assertion(tuple(range(n)), 0))
        assert prob_one(joint, n) <= 1e-12
        assert_same_state(joint, tensor(st, ket("0")))

    def test_inverse_pair_returns_ancilla_to_init(self):
        # On a GHZ-type input the CNOT pair cancels, for both parities.
        for parity, st in ((0, sv({"00": S2, "11": S2})), (1, sv({"01": 0.6, "10": 0.8}))):
            joint = apply_gadget(st, build_entanglement_assertion((0, 1), parity))
            assert prob_one(joint, 2) <= 1e-15

    def test_duplicated_control_soundness_gap(self):
        # With 3 targets the padded CNOT cancels the last target's
        # contribution: a state wrong only on that qubit is not caught.
        st = sv({"001": S2, "110": S2})
        spec = AssertionSpec(AssertionKind.ENTANGLED, (0, 1, 2), 0)
        assert predicted_error_probability(spec, st) == pytest.approx(0.0, abs=1e-15)
        joint = apply_gadget(st, build_entanglement_assertion((0, 1, 2), 0))
        assert prob_one(joint, 3) <= 1e-15  # escapes detection, documented


class TestSuperpositionAssertion:
    def test_plus_never_fires_and_survives(self):
        joint = apply_gadget(ket("+"), build_superposition_assertion(0))
        assert prob_one(joint, 1) <= 1e-15
        assert_same_state(joint, ket("+0"))

    def test_minus_always_fires(self):
        joint = apply_gadget(ket("-"), build_superposition_assertion(0))
        assert prob_one(joint, 1) == pytest.approx(1.0, abs=1e-15)
        # Failure is destructive: the data qubit comes out as |+>.
        assert_same_state(joint, ket("+1"))

    @pytest.mark.parametrize("label", ["0", "1"])
    def test_classical_inputs_fifty_fifty(self, label):
        joint = apply_gadget(ket(label), build_superposition_assertion(0))
        assert prob_one(joint, 1) == pytest.approx(0.5, abs=1e-12)
        for bit in (0, 1):
            branch = postselect(joint, 1, bit)
            assert states_equal_up_to_global_phase(
                branch, tensor(ket("+"), ket(str(bit))), 1e-12
            )

    @pytest.mark.parametrize("theta", THETAS)
    def test_real_grid_error_probability(self, theta):
        a, b = np.cos(theta), np.sin(theta)
        spec = AssertionSpec(AssertionKind.UNIFORM_SUPERPOSITION, (0,))
        predicted = predicted_error_probability(spec, qubit_state(theta))
        assert predicted == pytest.approx((2 - 4 * a * b) / 4, abs=1e-12)

    def test_forces_plus_in_both_branches(self):
        rng = np.random.default_rng(17)
        gadget = build_superposition_assertion(0)
        for _ in range(25):
            st = from_amplitudes(
                rng.normal(size=2) + 1j * rng.normal(size=2), normalize=True
            )
            joint = apply_gadget(st, gadget)
            for bit in (0, 1):
                branch = postselect(joint, 1, bit)
                if branch is None:
                    continue
                data = (branch.amps[bit * 2], branch.amps[bit * 2 + 1])
                assert abs(abs(data[0]) - S2) < 1e-12
                assert abs(abs(data[1]) - S2) < 1e-12


class TestOracleAgreement:
    """Gate-level simulation of every gadget must reproduce the analytic
    oracle over a grid of input states."""

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("phi", PHIS)
    def test_classical(self, theta, phi):
        st = qubit_state(theta, phi)
        for expected in (0, 1):
            spec = AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), expected)
            joint = apply_gadget(st, build_gadget(spec))
            assert abs(prob_one(joint, 1) - predicted_error_probability(spec, st)) < 1e-10
            predicted = predicted_pass_state(spec, st)
            simulated = postselect(joint, 1, 0)
            if predicted is None:
                assert simulated is None or prob_one(joint, 1) > 1 - 1e-10
            else:
                assert fidelity(simulated, tensor(predicted, ket("0"))) > 1 - 1e-10

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("phi", PHIS)
    def test_superposition(self, theta, phi):
        st = qubit_state(theta, phi)
        spec = AssertionSpec(AssertionKind.UNIFORM_SUPERPOSITION, (0,))
        joint = apply_gadget(st, build_gadget(spec))
        assert abs(prob_one(joint, 1) - predicted_error_probability(spec, st)) < 1e-10
        predicted = predicted_pass_state(spec, st)
        simulated = postselect(joint, 1, 0)
        if predicted is not None and simulated is not None:
            assert fidelity(simulated, tensor(predicted, ket("0"))) > 1 - 1e-10

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("phi", PHIS)
    def test_entangled_on_product_inputs(self, theta, phi):
        # Tensor two qubit states to populate all four parity components.
        st = tensor(qubit_state(theta, phi), qubit_state(np.pi / 6))
        for parity in (0, 1):
            spec = AssertionSpec(AssertionKind.ENTANGLED, (0, 1), parity)
            joint = apply_gadget(st, build_gadget(spec))
            assert abs(prob_one(joint, 2) - predicted_error_probability(spec, st)) < 1e-10
            predicted = predicted_pass_state(spec, st)
            simulated = postselect(joint, 2, 0)
            if predicted is None:
                assert simulated is None
            else:
                assert fidelity(simulated, tensor(predicted, ket("0"))) > 1 - 1e-10

    def test_oracles_handle_spectators(self):
        # Assert on qubit 0 while qubit 1 rides along entangled-free.
        st = tensor(qubit_state(np.pi / 5), qubit_state(1.0, 0.3))
        spec = AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), 0)
        joint = apply_gadget(st, build_gadget(spec))
        assert abs(prob_one(joint, 2) - predicted_error_probability(spec, st)) < 1e-10
        predicted = predicted_pass_state(spec, st)
        simulated = postselect(joint, 2, 0)
        assert fidelity(simulated, tensor(predicted, ket("0"))) > 1 - 1e-10

    def test_oracles_handle_entangled_spectator(self):
        # Superposition check on one half of a Bell pair: the 0/1 branches
        # of the target differ on the spectator, so the failure weight is
        # half the total branch-difference weight = 0.5.
        bell = sv({"00": S2, "11": S2})
        spec = AssertionSpec(AssertionKind.UNIFORM_SUPERPOSITION, (0,))
        assert predicted_error_probability(spec, bell) == pytest.approx(0.5, abs=1e-12)
        joint = apply_gadget(bell, build_gadget(spec))
        assert abs(prob_one(joint, 2) - 0.5) < 1e-10
        predicted = predicted_pass_state(spec, bell)
        simulated = postselect(joint, 2, 0)
        assert fidelity(simulated, tensor(predicted, ket("0"))) > 1 - 1e-10


class TestNonDemolition:
    """Inputs that satisfy an assertion come through the gadget unchanged,
    with the ancilla disentangled in its initialization value."""

    def test_classical_states(self):
        for label, expected in (("0", 0), ("1", 1)):
            joint = apply_gadget(ket(label), build_classical_assertion(0, expected))
            assert states_equal_up_to_global_phase(
                joint, tensor(ket(label), ket("0")), 1e-12
            )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ghz_states(self, n):
        st = ghz_state(n, S2, S2)
        joint = apply_gadget(st, build_entanglement_assertion(tuple(range(n)), 0))
        assert states_equal_up_to_global_phase(joint, tensor(st, ket("0")), 1e-12)

    def test_plus_state(self):
        joint = apply_gadget(ket("+"), build_superposition_assertion(0))
        assert states_equal_up_to_global_phase(joint, tensor(ket("+"), ket("0")), 1e-12)
