"""Dense statevector core: states, unitary gate application (a run of
cnots onto one target as one pass), and every qubit-axis primitive (branch
weights, projection, dropping a qubit and tensoring one in, and the same
weights and projection for the parity of several qubits).  The gates and
the index checks are in :mod:`qassert.gates`.

Bit convention
--------------
Qubit 0 is the least-significant bit of a basis index: basis state
``|i>`` assigns qubit ``q`` the bit ``(i >> q) & 1``.  Ket labels read
left to right starting at qubit 0, so ``ket("10")`` places qubit 0 in
|1> and qubit 1 in |0> (basis index 1).

Global phase is never canonicalized; compare states with
:func:`states_equal_up_to_global_phase` rather than element-wise.
"""

from __future__ import annotations

import numpy as np

from .gates import (Gate, InvariantViolationError, _check_num_qubits, _check_qubits, _is_index,
                    _is_real)

NORM_TOLERANCE = 1e-10

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class StateVector:
    """Immutable n-qubit pure state holding ``2**num_qubits`` amplitudes.

    The amplitude array is write-protected after construction; operations
    return fresh states, so values can be shared freely across shots.
    """

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps, *, copy: bool = True):
        num_qubits = _check_num_qubits(num_qubits)
        arr = (np.array if copy else np.asarray)(amps, dtype=np.complex128)
        if arr.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                f"got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise InvariantViolationError("non-finite amplitude in state vector")
        # Squares near the float maximum overflow to inf, which fails the
        # check below; that overflow is not worth a warning.
        with np.errstate(over="ignore"):
            norm_sq = float(np.sum(arr.real**2 + arr.imag**2))
        if abs(norm_sq - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"state is not normalized: sum |amp|^2 = {norm_sq!r}")
        arr.setflags(write=False)
        self.num_qubits = num_qubits
        self.amps = arr

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def new_basis_state(num_qubits: int, basis_index: int = 0) -> StateVector:
    """Computational-basis state |basis_index> on num_qubits qubits."""
    num_qubits = _check_num_qubits(num_qubits)
    dim = 1 << num_qubits
    if not _is_index(basis_index) or not 0 <= basis_index < dim:
        raise ValueError(
            f"basis_index must be an integer in [0, {dim}), got {basis_index!r}"
        )
    amps = np.zeros(dim, dtype=np.complex128)
    amps[basis_index] = 1.0
    return StateVector(num_qubits, amps, copy=False)


def from_amplitudes(amps, *, normalize: bool = False) -> StateVector:
    """Build a state from a full amplitude array (length must be a power of
    two, every amplitude finite)."""
    arr = np.asarray(amps, dtype=np.complex128)
    size = arr.size
    if size < 2 or size & (size - 1):
        raise ValueError(f"amplitude count must be a power of two >= 2, got {size}")
    if not np.isfinite(arr).all():
        raise ValueError("amplitudes must be finite")
    if normalize:
        # Scaling by the largest component first keeps the squares in the
        # norm from overflowing near the float maximum or flushing a
        # subnormal vector to zero.  Each part is divided as a real array:
        # numpy divides a complex array by the reciprocal, which overflows
        # for a subnormal scale.
        scale = max(np.abs(arr.real).max(), np.abs(arr.imag).max())
        if scale == 0.0:
            raise ValueError("cannot normalize the zero vector")
        arr = arr.real / scale + 1j * (arr.imag / scale)
        arr = arr / np.linalg.norm(arr)
    return StateVector(size.bit_length() - 1, arr)


_KET_CHARS = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (_INV_SQRT2, _INV_SQRT2),
    "-": (_INV_SQRT2, -_INV_SQRT2),
}


def basis_index(label: str) -> int:
    """Basis index of a classical ket label; leftmost character is qubit 0."""
    idx = 0
    for pos, ch in enumerate(label):
        if ch == "1":
            idx |= 1 << pos
        elif ch != "0":
            raise ValueError(f"classical ket labels use only 0/1, got {label!r}")
    return idx


def ket(label: str) -> StateVector:
    """Product state from a ket label over the characters 0, 1, +, -.

    The leftmost character is qubit 0 (the least-significant index bit),
    matching this package's ket-printing order.
    """
    if not label:
        raise ValueError("empty ket label")
    amps = np.array([1.0], dtype=np.complex128)
    for ch in label:
        try:
            pair = _KET_CHARS[ch]
        except KeyError:
            raise ValueError(f"unknown ket character {ch!r} in {label!r}") from None
        amps = np.kron(np.array(pair, dtype=np.complex128), amps)
    return StateVector(len(label), amps, copy=False)


def tensor(first: StateVector, second: StateVector) -> StateVector:
    """Joint state with `second`'s qubits appended above `first`'s.

    Qubits of `first` keep their indices; qubit q of `second` becomes
    qubit ``first.num_qubits + q``.
    """
    n = first.num_qubits + second.num_qubits
    _check_num_qubits(n)
    return StateVector(n, np.kron(second.amps, first.amps), copy=False)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply a gate's unitary, returning a new state.

    Raises InvariantViolationError if the result drifts off unit norm by
    more than NORM_TOLERANCE; a gate application must never do that.
    """
    n = state.num_qubits
    _check_qubits(n, gate.qubits)
    amps = state.amps.copy()
    _apply_gate_inplace(amps, gate)
    norm_sq = float(np.sum(amps.real**2 + amps.imag**2))
    if not abs(norm_sq - 1.0) <= NORM_TOLERANCE:
        raise InvariantViolationError(
            f"gate {gate.name} broke normalization: sum |amp|^2 = {norm_sq!r}"
        )
    return StateVector(n, amps, copy=False)


def _apply_h(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = (a0 + a1) * _INV_SQRT2
    view[:, 1, :] = (a0 - a1) * _INV_SQRT2


def _apply_x(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    tmp = view[:, 0, :].copy()
    view[:, 0, :] = view[:, 1, :]
    view[:, 1, :] = tmp


def _apply_y(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    a0 = view[:, 0, :].copy()
    view[:, 0, :] = view[:, 1, :] * -1j
    view[:, 1, :] = a0 * 1j


def _apply_z(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    view[:, 1, :] *= -1.0


def _apply_s(amps: np.ndarray, q: int) -> None:
    view = amps.reshape(-1, 2, 1 << q)
    view[:, 1, :] *= 1j


def _apply_cnot(amps: np.ndarray, control: int, target: int) -> None:
    # Swap the target-bit slices within the control=1 subspace; axes 1
    # and 3 hold the higher and the lower operand's bit.
    hi, lo = max(control, target), min(control, target)
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control > target:
        t0, t1 = np.s_[:, 1, :, 0], np.s_[:, 1, :, 1]
    else:
        t0, t1 = np.s_[:, 0, :, 1], np.s_[:, 1, :, 1]
    tmp = view[t0].copy()
    view[t0] = view[t1]
    view[t1] = tmp


_KERNELS = {
    "h": _apply_h,
    "x": _apply_x,
    "y": _apply_y,
    "z": _apply_z,
    "s": _apply_s,
    "cnot": _apply_cnot,
}


def _apply_gate_inplace(amps: np.ndarray, gate: Gate) -> None:
    """In-place kernel shared by apply_gate and the shot runner."""
    _KERNELS[gate.name](amps, *gate.qubits)


def _parity_class(size: int, positions, flip: int) -> np.ndarray:
    """A mask over the basis indices of a `size`-amplitude state: True where
    the parity of the bits at `positions`, XOR `flip`, reads 1."""
    ones = np.array([flip], dtype=bool)
    for p in range(size.bit_length() - 1):
        ones = np.concatenate((ones, ~ones if p in positions else ones))
    return ones


def _apply_parity_x(amps: np.ndarray, controls, t: int) -> None:
    """Apply `cnot c t` for each c in `controls` (distinct, none of them t)
    in one pass: swap the halves of qubit t wherever the parity of the
    controls reads 1.  Like the cnots, it only moves amplitudes."""
    view = amps.reshape(-1, 2, 1 << t)
    # The parity class over the indices with bit t removed.
    ones = _parity_class(amps.size >> 1, [c - (c > t) for c in controls], 0)
    ones = ones.reshape(-1, 1 << t)
    a0, a1 = view[:, 0, :], view[:, 1, :]
    # One temporary: a second one makes the allocator hand back fresh
    # pages on many calls once a long-lived process has fragmented its heap.
    swapped = np.where(ones, a1, a0)
    np.copyto(a1, a0, where=ones)
    a0[...] = swapped


def _checked_probabilities(amps: np.ndarray, q) -> tuple[float, float]:
    """(P(0), P(1)) of measuring qubit q, or the parity class q (an array
    from _parity_class), after checking the state's norm.  It is the one
    reader of Born weights."""
    if isinstance(q, np.ndarray):
        weights = amps.real**2 + amps.imag**2
        p0, p1 = float(weights.sum(where=~q)), float(weights.sum(where=q))
    else:
        view = amps.reshape(-1, 2, 1 << q)
        b0, b1 = view[:, 0, :], view[:, 1, :]
        p0 = float((b0.real**2 + b0.imag**2).sum())
        p1 = float((b1.real**2 + b1.imag**2).sum())
    if not abs(p0 + p1 - 1.0) <= NORM_TOLERANCE:
        raise InvariantViolationError(
            f"state norm drifted before measurement: sum |amp|^2 = {p0 + p1!r}"
        )
    return p0, p1


def _project(amps: np.ndarray, q, bit: int, branch: float) -> np.ndarray:
    """New state: amps projected onto qubit q, or the parity class q,
    reading `bit`, and renormalized by that branch's probability `branch`."""
    out = amps * (1.0 / np.sqrt(branch))
    if isinstance(q, np.ndarray):
        out[q != bit] = 0.0
    else:
        out.reshape(-1, 2, 1 << q)[:, 1 - bit, :] = 0.0
    return out


def _drop_qubit(amps: np.ndarray, q: int, bit: int, branch: float) -> np.ndarray:
    """New, half-size state: the half of amps where qubit q reads `bit`,
    renormalized by that half's probability `branch`, with qubit q removed.

    Qubits above q move down one position.
    """
    return (amps.reshape(-1, 2, 1 << q)[:, bit, :] * (1.0 / np.sqrt(branch))).reshape(-1)


def _alloc_qubit(amps: np.ndarray, bit: int) -> np.ndarray:
    """Tensor a new top qubit in as |bit>."""
    out = np.zeros(2 * amps.size, dtype=amps.dtype)
    out.reshape(2, -1)[bit] = amps
    return out


def _check_same_width(s1: StateVector, s2: StateVector) -> None:
    """Reject two states of different qubit counts."""
    if s1.num_qubits != s2.num_qubits:
        raise ValueError(f"qubit counts differ: {s1.num_qubits} vs {s2.num_qubits}")


def _check_tol(tol) -> float:
    """The tolerance rule: a finite real number (by `_is_real`) >= 0, as a
    float, or a ValueError that names `tol`."""
    if not _is_real(tol) or not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be a finite real number >= 0, got {tol!r}")
    return float(tol)


def states_equal_up_to_global_phase(
    s1: StateVector, s2: StateVector, tol: float = 1e-12
) -> bool:
    """True iff s1 = c * s2 element-wise within tol for some unit scalar c;
    tol follows `_check_tol`."""
    _check_same_width(s1, s2)
    tol = _check_tol(tol)
    k = int(np.argmax(np.abs(s2.amps)))
    phase = s1.amps[k] * np.conj(s2.amps[k])
    mag = abs(phase)
    c = phase / mag if mag > 0.0 else 1.0
    return bool(np.max(np.abs(s1.amps - c * s2.amps)) <= tol)


def fidelity(s1: StateVector, s2: StateVector) -> float:
    """Squared overlap |<s1|s2>|^2; 1 means the same physical state."""
    _check_same_width(s1, s2)
    return float(abs(np.vdot(s1.amps, s2.amps)) ** 2)


def factor_out_qubit(
    state: StateVector, q: int, tol: float = 1e-12
) -> tuple[int, StateVector]:
    """Strip qubit q when it sits in a definite classical state.

    Returns (bit, state of the remaining qubits).  Raises ValueError when
    more than `tol` probability mass lies in the other branch, i.e. the
    qubit is still in superposition or entangled, or when tol breaks
    `_check_tol`.
    """
    _check_qubits(state.num_qubits, (q,))
    tol = _check_tol(tol)
    if state.num_qubits == 1:
        raise ValueError("cannot factor the only qubit out of a 1-qubit state")
    weights = _checked_probabilities(state.amps, q)
    bit = 1 if weights[1] > weights[0] else 0
    if min(weights) > tol:
        raise ValueError(
            f"qubit {q} is not in a definite classical state "
            f"(branch weights {weights[0]!r}, {weights[1]!r})"
        )
    rest = _drop_qubit(state.amps, q, bit, weights[bit])
    return bit, StateVector(state.num_qubits - 1, rest, copy=False)


def format_state(state: StateVector, precision: int = 4, cutoff: float = 1e-9) -> str:
    """Human-readable ket expansion, e.g. ``0.7071|00> + 0.7071|11>``."""
    n = state.num_qubits
    terms = []
    for i, amp in enumerate(state.amps):
        if abs(amp) <= cutoff:
            continue
        label = "".join(str((i >> p) & 1) for p in range(n))
        re_, im = amp.real, amp.imag
        if abs(im) <= cutoff:
            coef = f"{re_:.{precision}g}"
        elif abs(re_) <= cutoff:
            coef = f"{im:.{precision}g}j"
        else:
            coef = f"({re_:.{precision}g}{im:+.{precision}g}j)"
        terms.append(f"{coef}|{label}>")
    return " + ".join(terms) if terms else "0"
