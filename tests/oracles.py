"""Independent dense-matrix reference simulator.

Deliberately shares no code with the package kernels: gates become full
2^n x 2^n unitaries via Kronecker products, states are plain matrix-vector
products, and measurements branch on projector matrices.  Only practical
for a handful of qubits, which is the point - it is the brute-force
oracle the fast simulator is checked against.  `reference_shots` runs
noisy shots the same way, drawing from its own copy of the random stream.
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


def density_matrix_distribution(circuit, model=None) -> dict[str, float]:
    """Exact outcome distribution over creg bitstrings of a lowered circuit
    under `model`'s noise, with no trajectories and no random draws.

    The density matrix evolves by each gate's unitary.  After a gate, each
    touched qubit goes through its Pauli channel: X with probability p, or
    each of X, Y and Z with p/3 under depolarizing noise.  A measurement
    branches on its projectors, each branch weighted by its trace.  Readout
    flips are convolved into the distribution at the end, one independent
    flip per creg bit.
    """
    from qassert import AssertInstr, GateInstr

    n = circuit.num_qubits
    gate_p, readout_p = (model.gate_flip_p, model.readout_flip_p) if model else (0.0, 0.0)
    paulis = ("x", "y", "z") if model and model.depolarizing else ("x",)
    creg_names = list(circuit.creg_names)
    dist: dict[tuple, float] = {}

    def conjugate(op, rho):
        return op @ rho @ op.conj().T

    def walk(rho: np.ndarray, instrs, assigned: dict[str, int], prob: float):
        for pos, instr in enumerate(instrs):
            if isinstance(instr, AssertInstr):
                raise ValueError("density-matrix oracle needs a lowered circuit")
            if isinstance(instr, GateInstr):
                rho = conjugate(gate_unitary(instr.gate.name, instr.gate.qubits, n), rho)
                for q in instr.gate.qubits if gate_p > 0.0 else ():
                    errors = sum(conjugate(embed(_MATRICES[p], q, n), rho) for p in paulis)
                    rho = (1.0 - gate_p) * rho + gate_p / len(paulis) * errors
                continue
            for outcome, proj in ((0, _P0), (1, _P1)):
                branch = conjugate(embed(proj, instr.qubit, n), rho)
                p = float(np.trace(branch).real)
                if p < 1e-12:
                    continue
                walk(branch / p, instrs[pos + 1:], {**assigned, instr.creg: outcome}, prob * p)
            return
        key = tuple(assigned[c] for c in creg_names)
        dist[key] = dist.get(key, 0.0) + prob

    rho0 = np.zeros((1 << n, 1 << n), dtype=complex)
    rho0[0, 0] = 1.0
    walk(rho0, list(circuit.instructions), {}, 1.0)
    for i in range(len(creg_names) if readout_p > 0.0 else 0):
        flipped: dict[tuple, float] = {}
        for key, prob in dist.items():
            for bit, weight in ((key[i], 1.0 - readout_p), (1 - key[i], readout_p)):
                other = key[:i] + (bit,) + key[i + 1:]
                flipped[other] = flipped.get(other, 0.0) + prob * weight
        dist = flipped
    return {"".join(map(str, key)): prob for key, prob in dist.items()}


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


_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _uniforms(master_seed: int, shot_index: int):
    """Shot `shot_index`'s stream of uniforms in [0, 1): splitmix64 from a
    seed that mixes the master seed with the mixed shot index."""
    counter = _splitmix64((master_seed & _MASK64) ^ _splitmix64(shot_index))
    while True:
        counter = (counter + 0x9E3779B97F4A7C15) & _MASK64
        yield (_splitmix64(counter) >> 11) * 2.0**-53


def reference_shots(circuit, master_seed: int, shots: int, model=None) -> list:
    """Shots of a lowered circuit at full declared width: no liveness, no
    outcome tree and no Pauli frame.

    Each shot draws in the documented order: after a gate, one uniform per
    touched qubit when gate_flip_p > 0 and one more for the Pauli of a fired
    depolarizing error; at a measurement, one for the outcome (1 iff it is
    below P(1)), then one for a readout flip when readout_flip_p > 0.  A
    fired Pauli acts as a matrix.  Returns (creg bitstring, final state,
    [(uniform, P(1)) at each measurement]) per shot.
    """
    from qassert import GateInstr

    n = circuit.num_qubits
    gate_p, readout_p = (model.gate_flip_p, model.readout_flip_p) if model else (0.0, 0.0)
    ops: dict = {}

    def op(name, qubits):
        if (name, qubits) not in ops:
            ops[name, qubits] = (embed(_P1 if name == "p1" else _P0, qubits[0], n)
                                 if name in ("p0", "p1") else gate_unitary(name, qubits, n))
        return ops[name, qubits]

    results = []
    for shot in range(shots):
        draw = _uniforms(master_seed, shot).__next__
        psi = np.zeros(1 << n, dtype=complex)
        psi[0] = 1.0
        bits, draws = {}, []
        for instr in circuit.instructions:
            if isinstance(instr, GateInstr):
                psi = op(instr.gate.name, instr.gate.qubits) @ psi
                for q in instr.gate.qubits if gate_p > 0.0 else ():
                    if draw() < gate_p:
                        r = draw() if model.depolarizing else 0.0
                        pauli = "x" if r < 1.0 / 3.0 else ("y" if r < 2.0 / 3.0 else "z")
                        psi = op(pauli, (q,)) @ psi
                continue
            branch = op("p1", (instr.qubit,)) @ psi
            p1, u = float(np.vdot(branch, branch).real), draw()
            draws.append((u, p1))
            outcome = int(u < p1)
            psi = branch if outcome else op("p0", (instr.qubit,)) @ psi
            psi = psi / np.linalg.norm(psi)
            if readout_p > 0.0 and draw() < readout_p:
                outcome ^= 1
            bits[instr.creg] = outcome
        key = "".join(str(bits[c]) for c in circuit.creg_names)
        results.append((key, psi, draws))
    return results
