"""The gate vocabulary and the index rules that every layer shares.

This module imports no numpy, so the circuit layer (`lang`, `assertions`,
`cli check` and `cli lower`) can build and check circuits without loading
the simulator.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

MAX_QUBITS = 24

GATE_ARITY = {"h": 1, "x": 1, "y": 1, "z": 1, "s": 1, "cnot": 2}


class InvariantViolationError(RuntimeError):
    """An internal simulator invariant (normalization, finiteness) broke."""


@dataclass(frozen=True)
class Gate:
    """A named gate with concrete qubit operands (control first for cnot)."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        arity = GATE_ARITY.get(self.name)
        if arity is None:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != arity:
            raise ValueError(
                f"{self.name} expects {arity} operand(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} operands must be distinct: {self.qubits}")


def h(q: int) -> Gate:
    return Gate("h", (q,))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def y(q: int) -> Gate:
    return Gate("y", (q,))


def z(q: int) -> Gate:
    return Gate("z", (q,))


def s(q: int) -> Gate:
    return Gate("s", (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def _check_num_qubits(n) -> None:
    if type(n) is not int or not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be an integer in [1, {MAX_QUBITS}], got {n!r}")


def _is_index(value) -> bool:
    """The integer rule for indices and bits: an int or a numpy integer, not a
    bool.  No numpy integer exists before numpy is loaded, so this does not
    load it."""
    if type(value) is int:
        return True
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.integer)


def _check_qubits(n: int, qubits, what: str = "qubit", of: str = "state") -> None:
    """Reject any of `qubits` that is not an integer index into an `n`-qubit `of`."""
    for q in qubits:
        if not _is_index(q):
            raise ValueError(f"{what} index must be an integer, got {q!r}")
        if not 0 <= q < n:
            raise ValueError(f"{what} {q} out of range for {n}-qubit {of}")
