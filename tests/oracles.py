"""Independent dense-matrix reference simulator.

Deliberately shares no code with the package kernels: gates become full
2^n x 2^n unitaries via Kronecker products, states are plain matrix-vector
products, and measurements branch on projector matrices.  Only practical
for a handful of qubits, which is the point - it is the brute-force
oracle the fast simulator is checked against.
"""

from __future__ import annotations

import numpy as np

_I2 = np.eye(2, dtype=complex)
_MATRICES = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
}
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def embed(matrix: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Lift a single-qubit operator to the full register.

    Qubit 0 is the least-significant index bit, so it sits rightmost in
    the Kronecker chain.
    """
    return embed_product({qubit: matrix}, num_qubits)


def embed_product(factors: dict[int, np.ndarray], num_qubits: int) -> np.ndarray:
    """Kronecker product with factors[q] on qubit q and identity elsewhere."""
    op = np.eye(1, dtype=complex)
    for k in range(num_qubits):
        op = np.kron(factors.get(k, _I2), op)
    return op


def gate_unitary(name: str, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    if name == "cnot":
        control, target = qubits
        return embed(_P0, control, num_qubits) + embed_product(
            {control: _P1, target: _MATRICES["x"]}, num_qubits
        )
    return embed(_MATRICES[name], qubits[0], num_qubits)


def brute_force_distribution(circuit) -> dict[str, float]:
    """Exact outcome distribution over creg bitstrings of a lowered circuit."""
    from qassert import AssertInstr, GateInstr

    n = circuit.num_qubits
    creg_names = list(circuit.creg_names)
    dist: dict[str, float] = {}

    def walk(psi: np.ndarray, instrs, assigned: dict[str, int], prob: float):
        for pos, instr in enumerate(instrs):
            if isinstance(instr, AssertInstr):
                raise ValueError("brute-force oracle needs a lowered circuit")
            if isinstance(instr, GateInstr):
                u = gate_unitary(instr.gate.name, instr.gate.qubits, n)
                psi = u @ psi
                continue
            for outcome, proj in ((0, _P0), (1, _P1)):
                branch = embed(proj, instr.qubit, n) @ psi
                p = float(np.vdot(branch, branch).real)
                if p < 1e-12:
                    continue
                walk(
                    branch / np.sqrt(p),
                    instrs[pos + 1:],
                    {**assigned, instr.creg: outcome},
                    prob * p,
                )
            return
        key = "".join(str(assigned[c]) for c in creg_names)
        dist[key] = dist.get(key, 0.0) + prob

    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0] = 1.0
    walk(psi0, list(circuit.instructions), {}, 1.0)
    return dist


def projected_state(circuit, outcomes: dict[str, int]) -> np.ndarray:
    """Final state of a lowered circuit when each measurement reads the bit
    that `outcomes` gives for its creg; measured qubits stay projected."""
    from qassert import GateInstr

    n = circuit.num_qubits
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for instr in circuit.instructions:
        if isinstance(instr, GateInstr):
            psi = gate_unitary(instr.gate.name, instr.gate.qubits, n) @ psi
            continue
        proj = _P1 if outcomes[instr.creg] else _P0
        psi = embed(proj, instr.qubit, n) @ psi
        psi = psi / np.linalg.norm(psi)
    return psi


def l1_distance(a: dict[str, float], b: dict[str, float]) -> float:
    keys = set(a) | set(b)
    return sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
