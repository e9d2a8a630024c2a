"""Ancilla-based runtime assertion gadgets and their analytic oracles.

Each gadget allocates one fresh ancilla qubit, entangles it with the
target qubits through a short gate sequence, and measures the ancilla at
the end; a result of 1 signals an assertion error.  Because only the
ancilla is measured, a target state that satisfies the assertion is left
untouched (the ancilla disentangles), which is what makes the checks safe
to run mid-circuit.

Three checks are provided:

* classical value: CNOT the target into an ancilla prepared as the
  expected bit; the ancilla reads target XOR expected.
* entanglement (GHZ-type correlation): CNOT every target into the
  ancilla, padding to an even CNOT count; the ancilla accumulates the
  targets' parity.  With an odd target count the last target's CNOT is
  duplicated and cancels itself, so the check covers the parity of all
  targets but the last - a component differing only on that qubit is not
  detected.  See the README for this soundness gap.
* uniform superposition: checks the target against |+>.  On failure the
  target is still forced to an equal-magnitude superposition, so the
  check is destructive for states that do not satisfy it.

The oracles below predict the ancilla statistics and the post-measurement
target state analytically, straight from the input amplitudes; tests pit
them against gate-level simulation of the same gadgets.  They load the
simulator when first called, so building and lowering gadgets does not.
Without gate noise the executor measures the classical and entanglement
ancillas as a parity of their targets and never allocates them (see
`qassert.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .gates import Gate, _check_non_negative, _check_qubits, _is_index, cnot, h, x

if TYPE_CHECKING:
    import numpy as np

    from .state import StateVector

ANCILLA = -1
"""Placeholder operand marking the gadget's ancilla before it has an index."""


class AssertionKind(Enum):
    CLASSICAL_EQUALS = "classical"
    ENTANGLED = "entangled"
    UNIFORM_SUPERPOSITION = "superposition"


@dataclass(frozen=True)
class AssertionSpec:
    """What is asserted about which qubits.

    `expected` is the asserted bit for CLASSICAL_EQUALS, the asserted
    parity for ENTANGLED (0 checks a|0...0> + b|1...1>, 1 the odd-parity
    analogue), and None for UNIFORM_SUPERPOSITION (always asserts |+>).
    A target is a non-negative integer, since a negative one would alias
    the ANCILLA placeholder, and a bit is 0 or 1; both follow the integer
    rule of qubit indices (an int or a numpy integer, not a bool) and are
    stored as ints.  A spec that exists is valid.
    """

    kind: AssertionKind
    targets: tuple[int, ...]
    expected: int | None = None

    def __post_init__(self):
        targets = tuple(_check_non_negative(t, "assertion target") for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"assertion targets must be distinct: {self.targets}")
        entangled = self.kind is AssertionKind.ENTANGLED
        if entangled and len(self.targets) < 2:
            raise ValueError("entanglement assertion needs at least 2 targets")
        if not entangled and len(self.targets) != 1:
            raise ValueError(f"{self.kind.value} assertion takes exactly 1 target")
        if self.kind is AssertionKind.UNIFORM_SUPERPOSITION:
            if self.expected is not None:
                raise ValueError("superposition assertion takes no expected value")
        elif not _is_index(self.expected) or self.expected not in (0, 1):
            bit = "a parity" if entangled else "an expected"
            raise ValueError(f"{self.kind.value} assertion needs {bit} bit of 0 or 1")
        else:
            object.__setattr__(self, "expected", int(self.expected))


@dataclass(frozen=True)
class AssertionGadget:
    """The gate sequence implementing one check, on an ancilla that starts
    in |0> (a check that wants it in |1> starts with an x on it).

    Gates reference the ancilla through the ANCILLA placeholder; bind()
    substitutes the concrete index once the ancilla is allocated.  The
    ancilla measurement is implicit at the end: 1 means assertion error.
    """

    gates: tuple[Gate, ...]

    def bind(self, ancilla: int) -> tuple[Gate, ...]:
        ancilla = _check_non_negative(ancilla, "ancilla index")
        return tuple(
            Gate(g.name, tuple(ancilla if q == ANCILLA else q for q in g.qubits))
            for g in self.gates
        )

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "cnot")


def build_classical_assertion(q: int, expected: int) -> AssertionGadget:
    """Check that qubit q equals the classical bit `expected`.

    The ancilla is prepared as `expected` and receives CNOT(q -> ancilla),
    so it reads q XOR expected: 0 on success.  On a superposed input the
    ancilla measurement projects q onto a classical state, and the error
    probability equals the amplitude weight of the wrong branch.
    """
    return build_gadget(AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (q,), expected))


def build_entanglement_assertion(targets, parity: int) -> AssertionGadget:
    """Check GHZ-type correlation (XOR of the targets) against `parity`.

    One CNOT per target feeds the ancilla; an odd target count gets the
    last CNOT duplicated so the total is even and the ancilla disentangles
    from a valid input.
    """
    return build_gadget(AssertionSpec(AssertionKind.ENTANGLED, tuple(targets), parity))


def build_superposition_assertion(q: int) -> AssertionGadget:
    """Check that qubit q is in the uniform superposition |+>."""
    return build_gadget(AssertionSpec(AssertionKind.UNIFORM_SUPERPOSITION, (q,)))


def build_gadget(spec: AssertionSpec) -> AssertionGadget:
    """The gadget that checks `spec`, with `a` standing for ANCILLA:

    ======================== ===================================================
    kind, targets            gates
    ======================== ===================================================
    CLASSICAL_EQUALS q       [x(a) if expected], cnot(q, a)
    ENTANGLED t1 .. tk       [x(a) if expected], cnot(t1, a) .. cnot(tk, a);
                             odd k repeats cnot(tk, a)
    UNIFORM_SUPERPOSITION q  cnot(q, a), h(q), h(a), cnot(q, a)
    ======================== ===================================================

    The ancilla starts in |0>, so a leading x(a) prepares it as the expected
    bit 1.
    """
    if spec.kind is AssertionKind.UNIFORM_SUPERPOSITION:
        (q,) = spec.targets
        return AssertionGadget((cnot(q, ANCILLA), h(q), h(ANCILLA), cnot(q, ANCILLA)))
    targets = spec.targets
    if spec.kind is AssertionKind.ENTANGLED and len(targets) % 2:
        targets += targets[-1:]
    prepare = (x(ANCILLA),) if spec.expected else ()
    return AssertionGadget(prepare + tuple(cnot(t, ANCILLA) for t in targets))


def apply_gadget(state: StateVector, gadget: AssertionGadget) -> StateVector:
    """Run a gadget's gates against `state` with a fresh |0> ancilla appended.

    The ancilla becomes qubit ``state.num_qubits`` of the returned joint
    pre-measurement state; measuring it (1 = error) completes the check.
    """
    from .state import apply_gate, ket, tensor

    anc = state.num_qubits
    joint = tensor(state, ket("0"))
    for gate in gadget.bind(anc):
        joint = apply_gate(joint, gate)
    return joint


def _error_mask(spec: AssertionSpec, num_qubits: int) -> np.ndarray:
    """Boolean mask over basis indices whose components trip the assertion."""
    import numpy as np

    idx = np.arange(1 << num_qubits)
    if spec.kind is AssertionKind.CLASSICAL_EQUALS:
        return ((idx >> spec.targets[0]) & 1) != spec.expected
    # ENTANGLED: with an odd target count the duplicated CNOT cancels, so
    # the measured parity covers all targets but the last.
    effective = spec.targets if len(spec.targets) % 2 == 0 else spec.targets[:-1]
    parity = np.zeros(idx.shape, dtype=np.int64)
    for t in effective:
        parity ^= (idx >> t) & 1
    return parity != spec.expected


def predicted_error_probability(spec: AssertionSpec, state: StateVector) -> float:
    """Exact probability that the gadget's ancilla measures 1 on `state`.

    Computed directly from the input amplitudes, independently of any gate
    simulation: classical and entanglement checks sum the amplitude weight
    of the offending components; the superposition check evaluates
    |a - b|^2 / (|a + b|^2 + |a - b|^2), which is half the weight of the
    difference between the target's 0- and 1-branches.
    """
    import numpy as np

    _check_qubits(state.num_qubits, spec.targets, "assertion target")
    amps = state.amps
    if spec.kind is AssertionKind.UNIFORM_SUPERPOSITION:
        view = amps.reshape(-1, 2, 1 << spec.targets[0])
        diff = view[:, 0, :] - view[:, 1, :]
        return 0.5 * float(np.sum(diff.real**2 + diff.imag**2))
    mask = _error_mask(spec, state.num_qubits)
    weights = amps.real**2 + amps.imag**2
    return float(np.sum(weights[mask]))


def predicted_pass_state(spec: AssertionSpec, state: StateVector) -> StateVector | None:
    """Post-measurement state of the input register given the ancilla read 0.

    Spectator qubits ride along unchanged.  Returns None when the pass
    branch carries probability below BRANCH_PROBABILITY_FLOOR.
    """
    import numpy as np

    from .measurement import BRANCH_PROBABILITY_FLOOR
    from .state import StateVector

    _check_qubits(state.num_qubits, spec.targets, "assertion target")
    if spec.kind is AssertionKind.UNIFORM_SUPERPOSITION:
        q = spec.targets[0]
        new = state.amps.copy()
        view = new.reshape(-1, 2, 1 << q)
        mean = (view[:, 0, :] + view[:, 1, :]) / 2.0
        prob = 2.0 * float(np.sum(mean.real**2 + mean.imag**2))
        if prob < BRANCH_PROBABILITY_FLOOR:
            return None
        view[:, 0, :] = mean
        view[:, 1, :] = mean
    else:
        mask = _error_mask(spec, state.num_qubits)
        new = state.amps.copy()
        new[mask] = 0.0
        prob = float(np.sum(new.real**2 + new.imag**2))
        if prob < BRANCH_PROBABILITY_FLOOR:
            return None
    new *= 1.0 / np.sqrt(prob)
    return StateVector(state.num_qubits, new, copy=False)
