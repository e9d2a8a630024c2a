"""Measurement and noise: every random draw a run makes, and the public
Born-rule and noise API, built on the qubit-axis primitives in
:mod:`qassert.state`.

Measurement projects the state onto the observed branch and renormalizes
by the branch's true probability mass, so the projected state is exact.
Branches with probability below BRANCH_PROBABILITY_FLOOR are treated as
impossible rather than renormalized numerical dust.

Noise is trajectory style: a `NoiseModel` puts a random Pauli (X, or X, Y
or Z when depolarizing) on each qubit a gate touches with probability
gate_flip_p, and flips each recorded bit with probability readout_flip_p.
The model compiles these fields once into one channel per site kind,
`gate_channel` and `readout_channel`: None when the channel cannot fire,
else (p, rows), where each row is (event, cumulative upper bound) and the
last bound is 1.0.

Draw-order contract.  A shot draws uniforms from its own `RngStream` in
program order.  A measurement draws one for its outcome, which is 1 iff
the uniform is below P(1); then the readout site of its recorded bit
draws.  A gate then has one gate-noise site per touched qubit, in operand
order.  A noise site draws by `_draw`: a channel that cannot fire draws
nothing; otherwise the site draws one uniform and fires iff it is below p,
and only a channel with more than one row draws a second uniform right
after it, which picks the first row whose bound it is below.  X-only gate
noise and the readout flip are one row; depolarizing noise is X, Y and Z
with bounds 1/3, 2/3 and 1.  A model with all probabilities zero therefore
draws nothing beyond the outcomes and is bit-identical to running without
a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .gates import (Gate, InvariantViolationError, _check_non_negative, _check_qubits,
                    _is_index, _is_real)
from .state import StateVector, _apply_gate_inplace, _checked_probabilities, _project

BRANCH_PROBABILITY_FLOOR = 1e-12

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(value: int) -> int:
    """splitmix64 finalizer; avalanches all 64 bits of the input."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class RngStream:
    """Deterministic counter-based random stream (splitmix64).

    The same seed always yields the same sample sequence.  Per-shot
    streams come from :meth:`for_shot`, which mixes (master_seed,
    shot_index), so shots are reproducible regardless of execution order.
    Seeds and indices follow the integer rule of `_check_stream_args`.
    """

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int):
        if type(seed) is not int:
            (seed,) = _check_stream_args(seed=seed)
        self.seed = seed & _MASK64
        self._counter = self.seed

    def next_u64(self) -> int:
        self._counter = (self._counter + _GOLDEN) & _MASK64
        return _mix64(self._counter)

    def next_float(self) -> float:
        """Uniform float64 in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    @classmethod
    def for_shot(cls, master_seed: int, shot_index: int) -> RngStream:
        if type(master_seed) is not int or type(shot_index) is not int:
            master_seed, shot_index = _check_stream_args(master_seed=master_seed,
                                                         shot_index=shot_index)
        return cls(_mix64((master_seed & _MASK64) ^ _mix64(shot_index)))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"


@dataclass(frozen=True)
class NoiseModel:
    gate_flip_p: float = 0.0
    readout_flip_p: float = 0.0
    depolarizing: bool = False
    # The channels the fields compile to (see the module docstring).
    gate_channel: tuple | None = field(init=False, repr=False, compare=False)
    readout_channel: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xyz = (("x", 1.0 / 3.0), ("y", 2.0 / 3.0), ("z", 1.0))
        for name, channel, rows in (
                ("gate_flip_p", "gate_channel", xyz if self.depolarizing else (("x", 1.0),)),
                ("readout_flip_p", "readout_channel", (("flip", 1.0),))):
            p = getattr(self, name)
            if not _is_real(p):
                raise ValueError(f"{name} must be a real number, got {p!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
            object.__setattr__(self, channel, (p, rows) if p > 0.0 else None)
        if type(self.depolarizing) is not bool:
            raise ValueError(f"depolarizing must be a bool, got {self.depolarizing!r}")

    def __setstate__(self, state):
        """Unpickle from the three fields alone, as a constructed model: a
        pickle made before the channels existed gains them, and a bad field
        raises."""
        self.__init__(state["gate_flip_p"], state["readout_flip_p"], state["depolarizing"])


def _draw_outcome(p1: float, rng: RngStream) -> int:
    """The outcome of a measurement whose P(1) is `p1`."""
    return 1 if rng.next_float() < p1 else 0


def _draw(channel: tuple | None, rng: RngStream) -> str | None:
    """The event one noise site of `channel` fires, or None; the module
    docstring states what it draws."""
    if channel is None or rng.next_float() >= channel[0]:
        return None
    r = rng.next_float() if len(channel[1]) > 1 else 0.0
    for event, bound in channel[1]:
        if r < bound:
            return event


def apply_readout_noise(bit: int, model: NoiseModel, rng: RngStream) -> int:
    """A recorded measurement bit after its readout flip, if one is drawn."""
    return bit ^ (_draw(model.readout_channel, rng) is not None)


def apply_gate_noise(
    state: StateVector, touched: Sequence[int], model: NoiseModel, rng: RngStream
) -> StateVector:
    """Independently corrupt each touched qubit with probability gate_flip_p."""
    _check_qubits(state.num_qubits, touched)
    amps = state.amps.copy()
    for q in touched:
        name = _draw(model.gate_channel, rng)
        if name is not None:
            _apply_gate_inplace(amps, Gate(name, (q,)))
    return StateVector(state.num_qubits, amps, copy=False)


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement outcome plus its Born-rule probability at that moment."""

    qubit: int
    outcome: int
    probability_of_outcome: float


def prob_one(state: StateVector, q: int) -> float:
    """Born-rule probability that measuring qubit q yields 1."""
    _check_qubits(state.num_qubits, (q,))
    return _checked_probabilities(state.amps, q)[1]


def prob_zero(state: StateVector, q: int) -> float:
    """Born-rule probability that measuring qubit q yields 0."""
    _check_qubits(state.num_qubits, (q,))
    return _checked_probabilities(state.amps, q)[0]


def _check_branch(branch: float) -> float:
    """Reject an outcome drawn from a branch that carries no probability;
    return the branch's probability otherwise."""
    if branch <= 0.0:
        raise InvariantViolationError("measurement projected onto an empty branch")
    return branch


def measure(
    state: StateVector, q: int, rng: RngStream
) -> tuple[MeasurementRecord, StateVector]:
    """Measure qubit q, returning the record and the projected state."""
    _check_qubits(state.num_qubits, (q,))
    probs = _checked_probabilities(state.amps, q)
    outcome = _draw_outcome(probs[1], rng)
    branch = _check_branch(probs[outcome])
    amps = _project(state.amps, q, outcome, branch)
    record = MeasurementRecord(qubit=q, outcome=outcome, probability_of_outcome=branch)
    return record, StateVector(state.num_qubits, amps, copy=False)


def _check_stream_args(**args) -> tuple[int, ...]:
    """The integer rule for random-stream arguments (seeds, shot offsets and
    indices), by keyword: their values as ints, which a stream takes mod 2**64."""
    for name, value in args.items():
        if not _is_index(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    return tuple(map(int, args.values()))


def sample_measurements(
    state: StateVector, q: int, shots: int, master_seed: int, *, shot_offset: int = 0
) -> dict[int, int]:
    """Outcome counts from measuring qubit q of a freshly prepared `state`,
    once per shot.

    Shot i draws from ``RngStream.for_shot(master_seed, shot_offset + i)``
    and applies the same sampling rule as :func:`measure`; preparation is
    deterministic, so only the Born draw varies between shots.
    """
    _check_qubits(state.num_qubits, (q,))
    shots = _check_non_negative(shots, "shots")
    master_seed, shot_offset = _check_stream_args(master_seed=master_seed,
                                                  shot_offset=shot_offset)
    p1 = _checked_probabilities(state.amps, q)[1]
    ones = sum(
        _draw_outcome(p1, RngStream.for_shot(master_seed, shot_offset + i))
        for i in range(shots)
    )
    return {0: shots - ones, 1: ones}


def postselect(state: StateVector, q: int, bit: int) -> StateVector | None:
    """Project qubit q onto `bit` and renormalize, ignoring the Born dice.

    Returns None when the branch carries probability below
    BRANCH_PROBABILITY_FLOOR (the branch is impossible).
    """
    _check_qubits(state.num_qubits, (q,))
    if not _is_index(bit) or bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    branch = _checked_probabilities(state.amps, q)[bit]
    if branch < BRANCH_PROBABILITY_FLOOR:
        return None
    return StateVector(state.num_qubits, _project(state.amps, q, bit, branch), copy=False)
