"""Tests for the statevector core: construction, gates, comparisons."""

import numpy as np
import pytest

from qassert import (
    AssertionKind,
    AssertionSpec,
    Circuit,
    Gate,
    InvariantViolationError,
    NoiseModel,
    RngStream,
    StateVector,
    apply_gate,
    apply_gate_noise,
    basis_index,
    cnot,
    factor_out_qubit,
    fidelity,
    format_state,
    from_amplitudes,
    h,
    ket,
    measure,
    new_basis_state,
    postselect,
    predicted_error_probability,
    predicted_pass_state,
    prob_one,
    prob_zero,
    s,
    sample_measurements,
    states_equal_up_to_global_phase,
    tensor,
    x,
    y,
    z,
)

from qassert import state as state_module
from qassert.state import (_alloc_qubit, _apply_cnot, _apply_parity_x,
                           _checked_probabilities, _parity_class)

from helpers import assert_same_state, sv

S2 = 1.0 / np.sqrt(2.0)


class TestBasisStates:
    def test_single_qubit_zero(self):
        st = new_basis_state(1, 0)
        np.testing.assert_array_equal(st.amps, [1, 0])

    def test_two_qubit_three(self):
        st = new_basis_state(2, 3)
        np.testing.assert_array_equal(st.amps, [0, 0, 0, 1])

    def test_three_qubit_five(self):
        st = new_basis_state(3, 5)
        expected = np.zeros(8)
        expected[5] = 1
        np.testing.assert_array_equal(st.amps, expected)

    @pytest.mark.parametrize("n", [0, -1, 25, 100])
    def test_bad_qubit_count(self, n):
        with pytest.raises(ValueError, match="num_qubits"):
            new_basis_state(n, 0)

    @pytest.mark.parametrize("idx", [-1, 4, 10])
    def test_bad_basis_index(self, idx):
        with pytest.raises(ValueError, match="basis_index"):
            new_basis_state(2, idx)

    def test_default_is_all_zero(self):
        st = new_basis_state(3)
        assert st.amps[0] == 1.0


class TestConstruction:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(2, np.array([1.0, 0.0], dtype=complex))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0], dtype=complex))

    def test_nan_rejected(self):
        with pytest.raises(InvariantViolationError):
            StateVector(1, np.array([np.nan, 0.0], dtype=complex))

    def test_no_copy_still_converts(self):
        # copy=False skips the copy only when the input is already complex.
        for amps in ([1, 0], np.array([1.0, 0.0])):
            st = StateVector(1, amps, copy=False)
            assert st.amps.dtype == np.complex128
            np.testing.assert_array_equal(st.amps, [1, 0])

    def test_amps_are_read_only(self):
        st = new_basis_state(1)
        with pytest.raises(ValueError):
            st.amps[0] = 0.0

    # The norm check's squares overflow to inf; that must fail the check,
    # not warn (warnings are errors in this suite).
    @pytest.mark.parametrize("build", [
        lambda amps: StateVector(1, amps),
        lambda amps: from_amplitudes(amps),
    ], ids=["StateVector", "from_amplitudes"])
    def test_overflowing_norm_rejected(self, build):
        with pytest.raises(ValueError, match="state is not normalized"):
            build([1e308, 1e308])

    def test_from_amplitudes_normalize(self):
        st = from_amplitudes([3.0, 4.0], normalize=True)
        np.testing.assert_allclose(st.amps, [0.6, 0.8], atol=1e-15)

    # Warnings are errors in this suite, so an overflow in the norm fails.
    @pytest.mark.parametrize("amps, expected", [
        ([1e308, 1e308], [2**-0.5, 2**-0.5]),
        ([complex(1.5e308, 1.5e308), complex(0.0, -1.5e308)],
         [complex(1.0, 1.0) / 3**0.5, complex(0.0, -1.0) / 3**0.5]),
        ([1e-320, 0.0], [1.0, 0.0]),
        ([5e-324, complex(0.0, 5e-324)], [2**-0.5, complex(0.0, 2**-0.5)]),
    ])
    def test_from_amplitudes_normalizes_extreme_magnitudes(self, amps, expected):
        st = from_amplitudes(amps, normalize=True)
        np.testing.assert_allclose(st.amps, expected, atol=1e-15)

    @pytest.mark.parametrize("amps", [[0.0, 0.0], [complex(-0.0, 0.0), complex(0.0, -0.0)]])
    def test_from_amplitudes_cannot_normalize_zero(self, amps):
        with pytest.raises(ValueError, match="cannot normalize the zero vector"):
            from_amplitudes(amps, normalize=True)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("amps", [[np.nan, 1.0], [np.inf, 1.0], [1.0, complex(0.0, -np.inf)]])
    def test_from_amplitudes_rejects_non_finite(self, amps, normalize):
        # Caller input gets ValueError, checked before normalizing (which
        # would warn on inf); InvariantViolationError is for internal results.
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            from_amplitudes(amps, normalize=normalize)

    def test_from_amplitudes_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            from_amplitudes([1.0, 0.0, 0.0])


class TestKets:
    def test_basis_index_is_little_endian(self):
        # Leftmost ket character is qubit 0, the least-significant bit.
        assert basis_index("10") == 1
        assert basis_index("01") == 2
        assert basis_index("11") == 3
        assert basis_index("001") == 4

    def test_ket_classical(self):
        assert_same_state(ket("10"), new_basis_state(2, 1))

    def test_ket_plus(self):
        np.testing.assert_allclose(ket("+").amps, [S2, S2], atol=1e-15)

    def test_ket_minus(self):
        np.testing.assert_allclose(ket("-").amps, [S2, -S2], atol=1e-15)

    def test_ket_product(self):
        np.testing.assert_allclose(ket("+0").amps, [S2, S2, 0, 0], atol=1e-15)

    def test_ket_rejects_junk(self):
        with pytest.raises(ValueError):
            ket("0a")
        with pytest.raises(ValueError) as info:
            ket("")
        assert str(info.value) == "empty ket label"
        with pytest.raises(ValueError) as info:
            basis_index("0+")
        assert str(info.value) == "classical ket labels use only 0/1, got '0+'"

    def test_tensor_matches_ket(self):
        assert_same_state(tensor(ket("0"), ket("1")), ket("01"))
        assert_same_state(tensor(ket("+"), ket("0")), ket("+0"))


class TestGateValidation:
    def test_unknown_gate(self):
        with pytest.raises(ValueError, match="unknown gate"):
            Gate("t", (0,))

    def test_cnot_needs_two_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            cnot(1, 1)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="operand"):
            Gate("h", (0, 1))

    def test_operands_stored_as_tuple(self):
        gate = Gate("cnot", [0, 1])
        assert gate.qubits == (0, 1)
        assert gate == cnot(0, 1)
        assert hash(gate) == hash(cnot(0, 1))

    def test_out_of_range_operand(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(new_basis_state(1), h(1))

    # Gate checks no range, so the ANCILLA placeholder -1 is an operand too.
    @pytest.mark.parametrize("name, qubits", [
        ("h", (np.int64(0),)), ("cnot", (np.uint8(3), -1)), ("cnot", (-1, np.int32(2))),
    ])
    def test_operands_stored_as_ints(self, name, qubits):
        gate = Gate(name, qubits)
        assert all(type(q) is int for q in gate.qubits)
        assert gate == Gate(name, tuple(map(int, qubits)))


class TestGateAction:
    def test_h_on_zero_gives_plus(self):
        st = apply_gate(new_basis_state(1), h(0))
        np.testing.assert_allclose(st.amps, [S2, S2], atol=1e-15)

    def test_h_on_one_gives_minus(self):
        st = apply_gate(new_basis_state(1, 1), h(0))
        np.testing.assert_allclose(st.amps, [S2, -S2], atol=1e-15)

    def test_cnot_copies_classical_bit_into_fresh_target(self):
        # (a|0> + b|1>) (x) |0>  -->  a|00> + b|11>
        a, b = 0.6, 0.8
        st = tensor(from_amplitudes([a, b]), ket("0"))
        st = apply_gate(st, cnot(0, 1))
        assert_same_state(st, sv({"00": a, "11": b}))

    def test_cnot_truth_table(self):
        for c_in, t_in in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            st = ket(f"{c_in}{t_in}")
            out = apply_gate(st, cnot(0, 1))
            assert_same_state(out, ket(f"{c_in}{c_in ^ t_in}"))

    def test_x_flips_exactly_its_bit(self):
        n = 3
        for idx in range(8):
            for q in range(n):
                out = apply_gate(new_basis_state(n, idx), x(q))
                assert_same_state(out, new_basis_state(n, idx ^ (1 << q)))

    def test_s_phases_the_one_component(self):
        st = apply_gate(ket("+"), s(0))
        np.testing.assert_allclose(st.amps, [S2, S2 * 1j], atol=1e-15)

    def test_y_action(self):
        st = apply_gate(ket("0"), y(0))
        np.testing.assert_allclose(st.amps, [0, 1j], atol=1e-15)

    def test_z_action(self):
        st = apply_gate(ket("+"), z(0))
        np.testing.assert_allclose(st.amps, [S2, -S2], atol=1e-15)


def _random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return from_amplitudes(amps, normalize=True)


class TestGateProperties:
    def test_involutions(self):
        # H, X, Z and CNOT are their own inverses.
        rng = np.random.default_rng(42)
        for _ in range(20):
            st = _random_state(rng, 3)
            for gate in [h(0), h(2), x(1), z(0), cnot(0, 2), cnot(2, 1)]:
                back = apply_gate(apply_gate(st, gate), gate)
                assert np.max(np.abs(back.amps - st.amps)) < 1e-12

    def test_unitarity_random_circuits(self):
        rng = np.random.default_rng(7)
        st = new_basis_state(4)
        gates = [h, x, y, z, s]
        for step in range(200):
            if rng.random() < 0.3:
                a, b = rng.choice(4, size=2, replace=False)
                st = apply_gate(st, cnot(int(a), int(b)))
            else:
                g = gates[rng.integers(len(gates))]
                st = apply_gate(st, g(int(rng.integers(4))))
            norm_sq = float(np.sum(np.abs(st.amps) ** 2))
            assert abs(norm_sq - 1.0) < 1e-10

    @pytest.mark.parametrize("n", range(2, 13))
    def test_parity_x_moves_amplitudes_as_its_cnots_do(self, n):
        # One pass of the fused kernel equals its cnots applied one by one,
        # bit for bit, for every target and for controls below it, above
        # it and on both sides of it.
        rng = np.random.default_rng(n)
        st = _random_state(rng, n)
        for t in range(n):
            below, above = list(range(t)), list(range(t + 1, n))
            mixed = [c for c in below + above if rng.random() < 0.5]
            if below and above:
                mixed = sorted({*mixed, int(rng.choice(below)), int(rng.choice(above))})
            for controls in (below, above, mixed):
                if not controls:
                    continue
                controls = [int(c) for c in rng.permutation(controls)]
                expected = st
                for c in controls:
                    expected = apply_gate(expected, cnot(c, t))
                amps = st.amps.copy()
                _apply_parity_x(amps, controls, t)
                assert np.array_equal(amps, expected.amps), (t, controls)

    def test_single_qubit_gate_keeps_other_marginals(self):
        # On a product state, a gate on qubit q leaves other qubits'
        # outcome distributions untouched.
        from qassert import prob_one

        rng = np.random.default_rng(3)
        for _ in range(10):
            parts = [
                from_amplitudes(rng.normal(size=2) + 1j * rng.normal(size=2),
                                normalize=True)
                for _ in range(3)
            ]
            st = tensor(tensor(parts[0], parts[1]), parts[2])
            for gate in [h(1), s(1), x(1), y(1), z(1)]:
                out = apply_gate(st, gate)
                for spectator in (0, 2):
                    assert abs(prob_one(out, spectator) - prob_one(st, spectator)) < 1e-12


def _zero_laced(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random amplitudes with exact zeros and -0.0 parts mixed in,
    normalized: the signed zeros a kernel must move as they are."""
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for part, zero in ((amps.real, -0.0), (amps.imag, 0.0), (amps.imag, -0.0)):
        part[rng.random(amps.size) < 0.15] = zero
    amps[rng.random(amps.size) < 0.1] = complex(-0.0, -0.0)
    if not amps.any():
        amps[0] = 1.0
    # Dividing keeps each zero's sign.
    return amps / np.linalg.norm(amps)


def _parity_mask(size: int, positions, flip: int) -> np.ndarray:
    """The parity class by its definition, index by index."""
    bits = sum(1 << p for p in positions)
    return np.array([(bin(i & bits).count("1") + flip) % 2 == 1 for i in range(size)])


def _zero_fill_then_cnots(amps, bit, controls):
    """The earlier alloc: a new top qubit at |bit>, then a cnot from each
    control onto it."""
    out = np.zeros(2 * amps.size, dtype=amps.dtype)
    out.reshape(2, -1)[bit] = amps
    for c in controls:
        _apply_cnot(out, c, amps.size.bit_length() - 1)
    return out


def _half_squares(amps, q):
    """The earlier Born weights: each half of qubit q squared on its own."""
    view = amps.reshape(-1, 2, 1 << q)
    b0, b1 = view[:, 0, :], view[:, 1, :]
    return float((b0.real**2 + b0.imag**2).sum()), float((b1.real**2 + b1.imag**2).sum())


def _parity_x_by_its_formula(amps, controls, t):
    """The fused cnot run as it was written before parity masks were memoized."""
    view = amps.reshape(-1, 2, 1 << t)
    ones = _parity_mask(amps.size >> 1, [c - (c > t) for c in controls], 0).reshape(-1, 1 << t)
    a0, a1 = view[:, 0, :], view[:, 1, :]
    swapped = np.where(ones, a1, a0)
    np.copyto(a1, a0, where=ones)
    a0[...] = swapped


class TestKernelFormulas:
    """Each kernel gives exactly the bytes of the formula it replaced."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_alloc_with_controls_is_zero_fill_then_cnots(self, n):
        rng = np.random.default_rng(100 + n)
        amps = _zero_laced(rng, n)
        for _ in range(4):
            controls = tuple(int(c) for c in rng.permutation(n) if rng.random() < 0.5)
            for bit in (0, 1):
                out = _alloc_qubit(amps, bit, controls)
                expected = _zero_fill_then_cnots(amps, bit, controls)
                assert out.tobytes() == expected.tobytes(), (bit, controls)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_born_weights_match_the_half_squares(self, n):
        amps = _zero_laced(np.random.default_rng(200 + n), n)
        for q in range(n):
            assert _checked_probabilities(amps, q) == _half_squares(amps, q), q

    @pytest.mark.parametrize("n", range(2, 15))
    def test_parity_x_is_unchanged(self, n):
        rng = np.random.default_rng(300 + n)
        for t in range(n):
            others = [c for c in range(n) if c != t]
            controls = [int(c) for c in rng.permutation(others)[:rng.integers(1, n)]]
            amps = _zero_laced(rng, n)
            expected = amps.copy()
            _parity_x_by_its_formula(expected, controls, t)
            _apply_parity_x(amps, controls, t)
            assert amps.tobytes() == expected.tobytes(), (t, controls)

    def test_parity_classes_are_read_only_and_correct(self):
        for size, positions, flip in [(2, (), 1), (16, (0, 3), 0), (64, (5, 1, 2), 1)]:
            ones = _parity_class(size, positions, flip)
            assert not ones.flags.writeable
            with pytest.raises(ValueError):
                ones[0] = not ones[0]
            np.testing.assert_array_equal(ones, _parity_mask(size, positions, flip))
            assert _parity_class(size, positions, flip) is ones

    def test_memo_stays_within_its_byte_bound(self, monkeypatch):
        monkeypatch.setattr(state_module, "_PARITY_MEMO", {})
        monkeypatch.setattr(state_module, "_parity_memo_bytes", 0)
        bound = state_module._PARITY_MEMO_BYTES
        assert bound == 1 << 24
        for size in (1 << 10, 1 << 16, 1 << 20, 1 << 22, 1 << 24):
            for flip in (0, 1):
                for k in range(4):
                    _parity_class(size, tuple(range(k)), flip)
                    held = sum(m.nbytes for m in state_module._PARITY_MEMO.values())
                    assert held == state_module._parity_memo_bytes <= bound
        # The mask at the MAX_QUBITS cap fills the memo on its own.
        assert [key[0] for key in state_module._PARITY_MEMO] == [1 << 24]

    def test_memo_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(state_module, "_PARITY_MEMO", {})
        monkeypatch.setattr(state_module, "_parity_memo_bytes", 0)
        monkeypatch.setattr(state_module, "_PARITY_MEMO_BYTES", 3 * 64)
        first, second = _parity_class(64, (0,), 0), _parity_class(64, (1,), 0)
        _parity_class(64, (2,), 0)
        assert _parity_class(64, (0,), 0) is first
        _parity_class(64, (3,), 0)
        assert list(state_module._PARITY_MEMO) == [(64, (2,), 0), (64, (0,), 0), (64, (3,), 0)]
        assert _parity_class(64, (1,), 0) is not second


class TestComparisons:
    def test_equal_states(self):
        assert states_equal_up_to_global_phase(ket("+"), ket("+"), 1e-12)

    def test_minus_sign_is_global_phase(self):
        flipped = from_amplitudes([-S2, -S2])
        assert states_equal_up_to_global_phase(flipped, ket("+"), 1e-12)

    def test_i_phase(self):
        rotated = from_amplitudes([1j * S2, 1j * S2])
        assert states_equal_up_to_global_phase(rotated, ket("+"), 1e-12)

    def test_orthogonal_states_differ(self):
        assert not states_equal_up_to_global_phase(ket("+"), ket("-"), 1e-12)

    def test_relative_phase_is_not_global(self):
        st = from_amplitudes([S2, -S2])
        assert not states_equal_up_to_global_phase(st, ket("+"), 1e-12)

    def test_mismatched_sizes_rejected(self):
        for compare in (fidelity, states_equal_up_to_global_phase):
            with pytest.raises(ValueError) as info:
                compare(ket("0"), ket("00"))
            assert str(info.value) == "qubit counts differ: 1 vs 2"

    def test_fidelity(self):
        assert fidelity(ket("+"), ket("+")) == pytest.approx(1.0, abs=1e-15)
        assert fidelity(ket("+"), ket("-")) == pytest.approx(0.0, abs=1e-15)
        assert fidelity(ket("0"), ket("+")) == pytest.approx(0.5, abs=1e-15)


class TestFactorOut:
    def test_strips_a_definite_qubit(self):
        st = sv({"00": 0.6, "10": 0.8})  # qubit 1 definitely 0
        bit, rest = factor_out_qubit(st, 1)
        assert bit == 0
        assert_same_state(rest, from_amplitudes([0.6, 0.8]))

    def test_strips_a_one(self):
        st = sv({"01": 1.0})
        bit, rest = factor_out_qubit(st, 1)
        assert bit == 1
        assert_same_state(rest, ket("0"))

    def test_rejects_superposed_qubit(self):
        with pytest.raises(ValueError, match="definite"):
            factor_out_qubit(ket("0+"), 1)

    def test_rejects_last_qubit(self):
        with pytest.raises(ValueError, match="only qubit"):
            factor_out_qubit(ket("0"), 0)


BELL = from_amplitudes([S2, 0, 0, S2])

# The functions that take a tolerance, each called with one.
TOL_ENTRY_POINTS = {
    "factor_out_qubit": lambda tol: factor_out_qubit(ket("01"), 1, tol=tol),
    "states_equal_up_to_global_phase":
        lambda tol: states_equal_up_to_global_phase(ket("+"), ket("+"), tol),
}


class TestTolerance:
    @pytest.mark.parametrize("entry", TOL_ENTRY_POINTS)
    @pytest.mark.parametrize("tol", [float("nan"), -1, -1e-300, float("inf"), "0.1", True,
                                     None, 1j])
    def test_tol_must_be_a_finite_real_at_least_zero(self, entry, tol):
        with pytest.raises(ValueError, match=r"^tol must be a finite real number >= 0, got "):
            TOL_ENTRY_POINTS[entry](tol)

    @pytest.mark.parametrize("tol", [0, 0.0, np.float32(0.0), np.int64(0)])
    def test_zero_tol_accepted(self, tol):
        bit, rest = factor_out_qubit(ket("01"), 1, tol=tol)
        assert bit == 1
        assert_same_state(rest, ket("0"))
        assert states_equal_up_to_global_phase(ket("+"), ket("+"), tol)

    # NaN compares False against any branch weight, so without the rule an
    # entangled qubit would be factored out as if it were definite.
    def test_nan_tol_does_not_factor_an_entangled_qubit(self):
        with pytest.raises(ValueError, match="^tol "):
            factor_out_qubit(BELL, 1, tol=float("nan"))
        with pytest.raises(ValueError, match="definite"):
            factor_out_qubit(BELL, 1, tol=0.0)


def _classical(q):
    return AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (q,), 0)


# Every public entry point that takes a qubit index, as (name of the
# indexed thing, call on a state and an index).
INDEX_ENTRY_POINTS = {
    "apply_gate": ("qubit", lambda st, q: apply_gate(st, Gate("h", (q,)))),
    "apply_gate_noise": (
        "qubit",
        lambda st, q: apply_gate_noise(st, [q], NoiseModel(gate_flip_p=0.5), RngStream(1)),
    ),
    "prob_one": ("qubit", prob_one),
    "prob_zero": ("qubit", prob_zero),
    "measure": ("qubit", lambda st, q: measure(st, q, RngStream(1))),
    "postselect": ("qubit", lambda st, q: postselect(st, q, 0)),
    "sample_measurements": ("qubit", lambda st, q: sample_measurements(st, q, 4, 1)),
    "factor_out_qubit": ("qubit", factor_out_qubit),
    "predicted_error_probability": (
        "assertion target",
        lambda st, q: predicted_error_probability(_classical(q), st),
    ),
    "predicted_pass_state": (
        "assertion target",
        lambda st, q: predicted_pass_state(_classical(q), st),
    ),
}


# The oracles take their target in an AssertionSpec, which rejects a target
# that is not a non-negative integer before the oracle sees the state.
SPEC_TARGETS = {"predicted_error_probability", "predicted_pass_state"}


def _not_an_index(entry, q):
    """What `entry` says when given `q`, which breaks the integer rule."""
    if entry in SPEC_TARGETS:
        return f"assertion target must be a non-negative integer, got {q!r}"
    return f"{INDEX_ENTRY_POINTS[entry][0]} index must be an integer, got {q!r}"


# Every public entry point that takes an integer index or bit, as (call on
# a 2-qubit state and the integer, what it says when given True).
INTEGER_ARGUMENTS = {
    **{name: (call, _not_an_index(name, True))
       for name, (_, call) in INDEX_ENTRY_POINTS.items()},
    "new_basis_state": (lambda st, i: new_basis_state(st.num_qubits, i),
                        "basis_index must be an integer in [0, 4), got True"),
    "postselect-bit": (lambda st, bit: postselect(st, 0, bit), "bit must be 0 or 1, got True"),
}


class TestIndexChecks:
    """One check guards every qubit index and every qubit count."""

    @pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
    @pytest.mark.parametrize("q", [-1, 2])
    def test_out_of_range_index(self, entry, q):
        what, call = INDEX_ENTRY_POINTS[entry]
        with pytest.raises(ValueError) as info:
            call(ket("0+"), q)
        if entry in SPEC_TARGETS and q < 0:
            assert str(info.value) == _not_an_index(entry, q)
        else:
            assert str(info.value) == f"{what} {q} out of range for 2-qubit state"

    @pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
    def test_non_integer_index(self, entry):
        with pytest.raises(ValueError) as info:
            INDEX_ENTRY_POINTS[entry][1](ket("0+"), 1.0)
        assert str(info.value) == _not_an_index(entry, 1.0)

    @pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
    @pytest.mark.parametrize("q", [0, np.int64(0)])
    def test_integer_index_accepted(self, entry, q):
        INTEGER_ARGUMENTS[entry][0](ket("0+"), q)

    @pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
    def test_bool_index_rejected(self, entry):
        call, message = INTEGER_ARGUMENTS[entry]
        with pytest.raises(ValueError) as info:
            call(ket("0+"), True)
        assert str(info.value) == message

    def test_tensor_checks_the_count_first(self):
        with pytest.raises(ValueError) as info:
            tensor(ket("0" * 13), ket("0" * 12))
        assert str(info.value) == "num_qubits must be an integer in [1, 24], got 25"

    @pytest.mark.parametrize("n", [0, 25])
    def test_qubit_count_same_message(self, n):
        builders = (
            lambda: StateVector(n, [1.0]),
            lambda: new_basis_state(n),
            lambda: Circuit(n),
        )
        for build in builders:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"num_qubits must be an integer in [1, 24], got {n}"

    @pytest.mark.parametrize("n", [2, np.int64(2)])
    def test_qubit_count_accepted_as_an_int(self, n):
        for built in (StateVector(n, [1, 0, 0, 0]), new_basis_state(n), Circuit(n)):
            assert built.num_qubits == 2 and type(built.num_qubits) is int


def test_format_state():
    text = format_state(sv({"00": S2, "11": S2}))
    assert text == "0.7071|00> + 0.7071|11>"
    assert format_state(ket("1")) == "1|1>"
    imaginary = from_amplitudes([1, 1j], normalize=True)
    assert format_state(imaginary) == "0.7071|0> + 0.7071j|1>"
    complex_ = from_amplitudes([1 + 1j, 1 - 1j], normalize=True)
    assert format_state(complex_) == "(0.5+0.5j)|0> + (0.5-0.5j)|1>"
