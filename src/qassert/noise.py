"""Stochastic Pauli error injection emulating noisy hardware.

Errors are applied as random unitaries on the statevector (trajectory
style): after each gate, every touched qubit is flipped with probability
gate_flip_p (or hit with a uniformly chosen X/Y/Z when depolarizing is
set), and recorded measurement bits are flipped with readout_flip_p.

Draw-order contract: a uniform is consumed per touched qubit only when
gate_flip_p > 0, one extra uniform when a depolarizing error fires, and
one per recorded bit only when readout_flip_p > 0.  A model with all
probabilities zero therefore consumes no randomness and is bit-identical
to running without a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gates import Gate, _check_qubits
from .measurement import RngStream
from .state import StateVector, _apply_gate_inplace


@dataclass(frozen=True)
class NoiseModel:
    gate_flip_p: float = 0.0
    readout_flip_p: float = 0.0
    depolarizing: bool = False

    def __post_init__(self):
        for name in ("gate_flip_p", "readout_flip_p"):
            p = getattr(self, name)
            if type(p) is bool or not isinstance(p, (int, float, np.floating)):
                raise ValueError(f"{name} must be a real number, got {p!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        if type(self.depolarizing) is not bool:
            raise ValueError(f"depolarizing must be a bool, got {self.depolarizing!r}")


def _draw_pauli(model: NoiseModel, rng: RngStream) -> str | None:
    """Draw the error on one touched qubit: "x", "y", "z" or None.

    Consumes one uniform, plus one more when a depolarizing error fires.
    """
    if rng.next_float() >= model.gate_flip_p:
        return None
    if not model.depolarizing:
        return "x"
    r = rng.next_float()
    return "x" if r < 1.0 / 3.0 else ("y" if r < 2.0 / 3.0 else "z")


def apply_gate_noise(
    state: StateVector, touched: Sequence[int], model: NoiseModel, rng: RngStream
) -> StateVector:
    """Independently corrupt each touched qubit with probability gate_flip_p."""
    _check_qubits(state.num_qubits, touched)
    amps = state.amps.copy()
    if model.gate_flip_p > 0.0:
        for q in touched:
            name = _draw_pauli(model, rng)
            if name is not None:
                _apply_gate_inplace(amps, Gate(name, (q,)))
    return StateVector(state.num_qubits, amps, copy=False)


def apply_readout_noise(bit: int, model: NoiseModel, rng: RngStream) -> int:
    """Flip a recorded measurement bit with probability readout_flip_p."""
    p = model.readout_flip_p
    if p > 0.0 and rng.next_float() < p:
        return bit ^ 1
    return bit
