"""Measurement: the random stream, the sampling convention and the public
Born-rule API, built on the qubit-axis primitives in :mod:`qassert.state`.

Measurement projects the state onto the observed branch and renormalizes
by the branch's true probability mass, so the projected state is exact.
Branches with probability below BRANCH_PROBABILITY_FLOOR are treated as
impossible rather than renormalized numerical dust.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gates import InvariantViolationError, _check_qubits, _is_index
from .state import StateVector, _checked_probabilities, _project

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


def _draw_outcome(p1: float, rng: RngStream) -> int:
    """The sampling convention: outcome 1 iff the next uniform < P(1)."""
    return 1 if rng.next_float() < p1 else 0


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


def _check_shots(shots) -> int:
    """The shot-count rule: a non-negative integer (by `_is_index`), returned
    as an int."""
    if not _is_index(shots) or shots < 0:
        raise ValueError(f"shots must be a non-negative integer, got {shots!r}")
    return int(shots)


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
    shots = _check_shots(shots)
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
