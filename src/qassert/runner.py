"""Shot execution, statistics aggregation, and post-selection reports.

Shots are independent: shot i draws randomness from
``RngStream.for_shot(master_seed, shot_offset + i)``, and statistics
merge commutatively, so a run can be split across workers (or calls, via
`shot_offset` and `merge_statistics`) without changing the result.

A shot "passes" when every assertion creg (``__assert_*``) reads 0.
Post-selection keeps only passing shots; `compute_filter_report` compares
the error rate before and after that filter.

Execution follows a static liveness plan: each qubit enters the state as
|0> just before its first instruction, and a qubit whose last use is a
measurement leaves it right after that measurement.  The state therefore
holds only the *live* qubits, and its width is the plan's peak number of
live qubits, not the declared qubits plus one per assertion ancilla:
assertions that run one after another cost one extra qubit at peak.

One engine walks the plan's outcome tree (`_ShotProgram.walk`): a gate
runs once per tree node, and at a branch step a split rule names the
branches taken.  Under the shot rule, a block of SHOT_BLOCK shots parts
only where their own random draws differ: at a measurement outcome, or
at the Pauli a gate-noise site fires.  Without gate noise a run therefore
costs one pass over the state per distinct outcome history, not per shot;
a passing assertion, whose ancilla reads 0 in every shot, does not split
the tree at all.  Each shot still draws from its own stream in the
documented order, so every shot comes out exactly as it does alone
(`run_single`), and at most log2(SHOT_BLOCK) + 1 states are alive.  Under
the exact rule (`exact_distribution`) a measurement takes every outcome
that carries probability, weighted by it, instead of drawing one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .lang import ASSERT_CREG_PREFIX, Circuit, GateInstr
from .measurement import (
    BRANCH_PROBABILITY_FLOOR,
    RngStream,
    _check_branch,
    _checked_probabilities,
    _draw_outcome,
    _drop_qubit,
    _project,
)
from .noise import NoiseModel, _draw_pauli, apply_readout_noise
from .state import Gate, StateVector, _apply_gate_inplace

# Most measurement branches exact_distribution visits: each holds a
# state, so the walk grows with 2**(measurements) on random outcomes.
MAX_EXACT_BRANCHES = 1 << 16

# Shots walked down one outcome tree together.  It bounds the streams and
# bits held at once, and the log2(SHOT_BLOCK) + 1 states a walk keeps
# alive; results do not depend on it.
SHOT_BLOCK = 4096


@dataclass(frozen=True)
class ShotRecord:
    """Classical bits of one shot: creg values plus pass/fail per assertion."""

    creg_values: dict[str, int]
    assertion_outcomes: dict[str, str]


@dataclass(frozen=True)
class RunStatistics:
    """Aggregated shot outcomes.

    counts is keyed by the creg bitstring in declaration order (all
    cregs, assertion cregs included).
    """

    total_shots: int
    creg_names: tuple[str, ...]
    assertion_labels: tuple[str, ...]
    counts: dict[str, int]
    assertion_fail_counts: dict[str, int]

    @property
    def data_creg_names(self) -> tuple[str, ...]:
        return tuple(
            c for c in self.creg_names if not c.startswith(ASSERT_CREG_PREFIX)
        )

    def data_positions(self) -> tuple[int, ...]:
        return tuple(
            i for i, c in enumerate(self.creg_names)
            if not c.startswith(ASSERT_CREG_PREFIX)
        )

    def assertion_positions(self) -> tuple[int, ...]:
        return tuple(
            i for i, c in enumerate(self.creg_names)
            if c.startswith(ASSERT_CREG_PREFIX)
        )


@dataclass(frozen=True)
class FilterReport:
    """Error rates before and after discarding assertion-failing shots.

    filtered_error_rate and relative_reduction are None when undefined
    (no passing shots / zero raw error rate).
    """

    raw_error_rate: float
    filtered_error_rate: float | None
    relative_reduction: float | None
    kept_fraction: float


def _compile(circuit: Circuit):
    """Flatten instructions into (ops, creg names); ops are
    ("g", Gate) or ("m", qubit, creg slot)."""
    circuit.validate()
    if circuit.has_assertions():
        raise ValueError(
            "circuit still contains assertion statements; run lower_assertions first"
        )
    creg_names = circuit.creg_names
    creg_slot = {name: i for i, name in enumerate(creg_names)}
    ops = []
    for instr in circuit.instructions:
        if isinstance(instr, GateInstr):
            ops.append(("g", instr.gate))
        else:
            ops.append(("m", instr.qubit, creg_slot[instr.creg]))
    return ops, creg_names


def _operands(op) -> tuple[int, ...]:
    return op[1].qubits if op[0] == "g" else (op[1],)


@dataclass(frozen=True)
class _Plan:
    """Liveness plan: `_compile`'s ops as steps on physical positions.

    Steps are ("a",), which tensors a new top qubit in as |0>;
    ("g", gate on positions, width); and ("m", position, creg slot, drop).
    A dropping measurement removes its qubit from the state, and the
    qubits above it move down one position.  `layout` is the logical qubit
    at each position after the last step; `dropped` maps each removed
    qubit to the creg slot of its final measurement.
    """

    steps: tuple
    peak_width: int
    layout: tuple[int, ...]
    dropped: dict[int, int]


def _liveness_plan(ops) -> _Plan:
    """Allocate each qubit just before its first op; drop it after its
    final measurement when that measurement is its last use."""
    last_use = {}
    for i, op in enumerate(ops):
        for q in _operands(op):
            last_use[q] = i
    layout: list[int] = []
    dropped: dict[int, int] = {}
    steps = []
    peak = 0
    for i, op in enumerate(ops):
        qubits = _operands(op)
        for q in qubits:
            if q not in layout:
                layout.append(q)
                steps.append(("a",))
        peak = max(peak, len(layout))
        if op[0] == "g":
            gate = Gate(op[1].name, tuple(layout.index(q) for q in qubits))
            steps.append(("g", gate, len(layout)))
        else:
            _, q, slot = op
            drop = last_use[q] == i
            steps.append(("m", layout.index(q), slot, drop))
            if drop:
                layout.remove(q)
                dropped[q] = slot
    return _Plan(tuple(steps), peak, tuple(layout), dropped)


def _alloc_qubit(amps: np.ndarray) -> np.ndarray:
    """Tensor a new top qubit in as |0>."""
    out = np.zeros(2 * amps.size, dtype=amps.dtype)
    out[:amps.size] = amps
    return out


def _segments(steps) -> tuple:
    """Split plan steps at every step that draws randomness: a tuple of
    (alloc and gate steps, the branch step after them), the last with
    branch step None."""
    segments, run = [], []
    for step in steps:
        if step[0] in ("a", "g"):
            run.append(step)
        else:
            segments.append((tuple(run), step))
            run = []
    segments.append((tuple(run), None))
    return tuple(segments)


def _run_gates(amps, gates) -> np.ndarray:
    """Run a segment's alloc and gate steps; returns the new state."""
    for step in gates:
        if step[0] == "g":
            _apply_gate_inplace(amps, step[2], step[1])
        else:
            amps = _alloc_qubit(amps)
    return amps


def _full_state(amps, plan: _Plan, projected, num_qubits: int) -> np.ndarray:
    """Re-expand a plan's final state to all `num_qubits` qubits.

    Live qubits keep their amplitudes, a dropped qubit goes back in at its
    projected bit, and a qubit that was never used goes in as |0>.
    """
    width = len(plan.layout)
    # Tensor axis k holds position width-1-k; order the live axes by
    # descending logical qubit, as in the full register.
    order = sorted(range(width), key=lambda p: plan.layout[p], reverse=True)
    live = amps.reshape((2,) * width).transpose([width - 1 - p for p in order])
    index = tuple(
        slice(None) if q in plan.layout
        else projected[plan.dropped[q]] if q in plan.dropped
        else 0
        for q in reversed(range(num_qubits))
    )
    full = np.zeros((2,) * num_qubits, dtype=np.complex128)
    full[index] = live
    return full.reshape(-1)


def _partition(group: list, keys: list) -> dict:
    """Split `group` by the parallel list `keys`: {key: shots with it}."""
    if keys.count(keys[0]) == len(keys):
        return {keys[0]: group}
    parts: dict = {}
    for shot, key in zip(group, keys):
        parts.setdefault(key, []).append(shot)
    return parts


def _enter(amps, projected, step, event, copy: bool):
    """The state of the branch that took `event` at branch step `step`.

    With `copy` the branch gets its own array and projected bits;
    otherwise it takes over the parent's.  A branch walked before the last
    copies even when its event changes nothing, since its later in-place
    steps would otherwise corrupt the last branch's state.
    """
    if copy:
        projected = projected.copy()
    if step[0] == "m":
        _, pos, slot, drop = step
        outcome, branch = event
        projected[slot] = outcome
        if drop:
            return _drop_qubit(amps, pos, outcome, branch), projected
        if copy:
            amps = amps.copy()
        _project(amps, pos, outcome, branch)
        return amps, projected
    if copy:
        amps = amps.copy()
    if event is not None:
        _, pos, width = step
        _apply_gate_inplace(amps, width, Gate(event, (pos,)))
    return amps, projected


class _ShotProgram:
    """A lowered circuit compiled once, into a liveness plan, under one
    noise model (None for `exact_distribution`).

    `walk` runs the plan down its outcome tree.  Gate and alloc steps run
    once per tree node.  The steps that branch are the measurements and,
    under gate noise, one noise site ("n", position, width) per qubit each
    gate touches.  There a split rule lists the branches taken as (event,
    payload): the event is (outcome, its probability) or the Pauli that
    fired (or None).  The last branch keeps the parent's array and is
    walked last; every other branch copies it when it is walked.

    The shot rule, `split_shots`, carries a group of shots.  Every shot
    draws from its own stream, exactly as a lone shot would, and the group
    splits by the random event: the Pauli, or the outcome before readout
    noise, since a readout flip changes the recorded bit and never the
    state.  Shots whose draws agree therefore share every array operation.
    The largest subgroup goes last.  A parent's array stays alive only
    while a copying subgroup below it is walked, and a copying subgroup
    holds at most half the parent's shots, so at most log2(len(group)) + 1
    states, the current one included, are alive at once.
    """

    def __init__(self, circuit: Circuit, model: NoiseModel | None):
        ops, self.creg_names = _compile(circuit)
        self.num_qubits = circuit.num_qubits
        self.model = model
        self.plan = _liveness_plan(ops)
        gate_noise = model is not None and model.gate_flip_p > 0.0
        self.readout_noise = model is not None and model.readout_flip_p > 0.0
        steps = []
        for step in self.plan.steps:
            steps.append(step)
            if gate_noise and step[0] == "g":
                steps += [("n", pos, step[2]) for pos in step[1].qubits]
        self.segments = _segments(steps)

    def split_shots(self, amps, step, group) -> list:
        """The shot rule: draw every shot's event at branch step `step`,
        record its measured bit, and split `group`, a list of
        (RngStream, bits) shots, by event: [(event, shots)], largest last."""
        if step[0] == "n":
            if len(group) == 1:
                return [(_draw_pauli(self.model, group[0][0]), group)]
            parts = _partition(group, [_draw_pauli(self.model, rng) for rng, _ in group])
        else:
            _, pos, slot, _ = step
            probs = _checked_probabilities(amps, pos)
            outcomes = [_draw_outcome(probs[1], rng) for rng, _ in group]
            for (rng, bits), outcome in zip(group, outcomes):
                if self.readout_noise:
                    outcome = apply_readout_noise(outcome, self.model, rng)
                bits[slot] = outcome
            parts = {}
            for outcome, shots in _partition(group, outcomes).items():
                _check_branch(probs[outcome])
                parts[outcome, probs[outcome]] = shots
        largest = max(parts, key=lambda e: len(parts[e]))
        shots = parts.pop(largest)
        return [*parts.items(), (largest, shots)]

    def walk(self, payload, split: Callable):
        """Run the circuit from `payload` at the root, taking at each branch
        step the branches `split(amps, step, payload)` lists.  Yields
        (final state, projected bits, payload) once per leaf; projected bits
        are the measurement outcomes before readout noise, by creg slot."""
        segments = self.segments
        projected = [0] * len(self.creg_names)
        stack = [(0, np.ones(1, dtype=np.complex128), projected, payload, None, None, False)]
        while stack:
            k, amps, projected, payload, step, event, copy = stack.pop()
            if step is not None:
                amps, projected = _enter(amps, projected, step, event, copy)
            while True:
                gates, step = segments[k]
                k += 1
                if gates:
                    amps = _run_gates(amps, gates)
                if step is None:
                    yield amps, projected, payload
                    break
                *others, (event, payload) = split(amps, step, payload)
                if not others:
                    if event is not None:
                        amps, projected = _enter(amps, projected, step, event, False)
                    continue
                stack.append((k, amps, projected, payload, step, event, False))
                stack += [(k, amps, projected, branch, step, branch_event, True)
                          for branch_event, branch in others]
                break

    def full_state(self, final, projected) -> StateVector:
        """A final state of `walk` over all declared qubits."""
        amps = _full_state(final, self.plan, projected, self.num_qubits)
        return StateVector(self.num_qubits, amps, copy=False)


def run_shots(
    circuit: Circuit,
    shots: int,
    master_seed: int,
    model: NoiseModel | None = None,
    *,
    shot_offset: int = 0,
) -> RunStatistics:
    """Execute a lowered circuit `shots` times and aggregate the outcomes.

    Deterministic given (circuit, shots, master_seed, model, shot_offset).
    """
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    program = _ShotProgram(circuit, model)
    creg_names = program.creg_names

    assertion_labels = circuit.assertion_labels
    assert_slots = [
        (label, creg_names.index(ASSERT_CREG_PREFIX + label))
        for label in assertion_labels
    ]

    counts: dict[str, int] = {}
    fail_counts = {label: 0 for label in assertion_labels}
    for start in range(0, shots, SHOT_BLOCK):
        block = [
            (RngStream.for_shot(master_seed, shot_offset + i), [0] * len(creg_names))
            for i in range(start, min(shots, start + SHOT_BLOCK))
        ]
        for _, _, group in program.walk(block, program.split_shots):
            for _, bits in group:
                key = "".join("01"[b] for b in bits)
                counts[key] = counts.get(key, 0) + 1
                for label, slot in assert_slots:
                    if bits[slot]:
                        fail_counts[label] += 1
    return RunStatistics(
        total_shots=shots,
        creg_names=creg_names,
        assertion_labels=assertion_labels,
        counts=counts,
        assertion_fail_counts=fail_counts,
    )


def run_single(
    circuit: Circuit,
    master_seed: int,
    model: NoiseModel | None = None,
    *,
    shot_index: int = 0,
) -> tuple[ShotRecord, StateVector]:
    """Execute one shot and return its record plus the final state.

    Reproduces exactly shot `shot_index` of a run_shots call with the
    same master seed.  The state covers every declared qubit: a qubit
    measured for the last time sits at its projected bit (before readout
    noise), a qubit never used at |0>.
    """
    program = _ShotProgram(circuit, model)
    creg_names = program.creg_names
    bits = [0] * len(creg_names)
    shot = (RngStream.for_shot(master_seed, shot_index), bits)
    ((final, projected, _),) = program.walk([shot], program.split_shots)
    creg_values = dict(zip(creg_names, bits))
    outcomes = {
        label: "fail" if creg_values[ASSERT_CREG_PREFIX + label] else "pass"
        for label in circuit.assertion_labels
    }
    return ShotRecord(creg_values, outcomes), program.full_state(final, projected)


def merge_statistics(a: RunStatistics, b: RunStatistics) -> RunStatistics:
    """Combine two runs of the same circuit; aggregation is commutative."""
    if a.creg_names != b.creg_names or a.assertion_labels != b.assertion_labels:
        raise ValueError("cannot merge statistics from different circuits")
    counts = dict(a.counts)
    for key, cnt in b.counts.items():
        counts[key] = counts.get(key, 0) + cnt
    fails = {
        label: a.assertion_fail_counts[label] + b.assertion_fail_counts[label]
        for label in a.assertion_labels
    }
    return RunStatistics(
        total_shots=a.total_shots + b.total_shots,
        creg_names=a.creg_names,
        assertion_labels=a.assertion_labels,
        counts=counts,
        assertion_fail_counts=fails,
    )


def exact_distribution(circuit: Circuit) -> dict[str, float]:
    """Exact noiseless outcome distribution over creg bitstrings.

    Walks the outcome tree with the exact rule: at each measurement it
    takes both outcomes, weighted by their analytic probabilities, instead
    of sampling one; outcomes below BRANCH_PROBABILITY_FLOOR are dropped.
    Every measurement writes its own creg, so each leaf is one bitstring.
    Raises ValueError when the walk would visit more than
    MAX_EXACT_BRANCHES branches.
    """
    walked = 1

    def split(amps, step, prob):
        nonlocal walked
        probs = _checked_probabilities(amps, step[1])
        # The likelier outcome keeps the array; on a tie, 0 is walked first.
        branches = sorted(
            (((outcome, p), prob * p) for outcome, p in enumerate(probs)
             if p >= BRANCH_PROBABILITY_FLOOR),
            key=lambda branch: branch[0][1],
        )
        walked += len(branches)
        if walked > MAX_EXACT_BRANCHES:
            raise ValueError(
                f"exact distribution needs more than {MAX_EXACT_BRANCHES} "
                "measurement branches; sample it with run_shots instead"
            )
        return branches

    leaves = _ShotProgram(circuit, None).walk(1.0, split)
    return {"".join("01"[b] for b in bits): prob for _, bits, prob in leaves}


def compute_filter_report(
    stats: RunStatistics, expected: Callable[[str], bool]
) -> FilterReport:
    """Raw vs post-selection-filtered error rates.

    `expected` judges the data bitstring (non-assertion cregs, declaration
    order); the filter keeps shots whose assertion cregs all read 0.
    """
    total = stats.total_shots
    if total <= 0:
        raise ValueError("cannot report on empty statistics")
    data_pos = stats.data_positions()
    assert_pos = stats.assertion_positions()
    errors = passing = passing_errors = 0
    for bitstring, count in stats.counts.items():
        ok = expected("".join(bitstring[i] for i in data_pos))
        passes = all(bitstring[i] == "0" for i in assert_pos)
        if not ok:
            errors += count
        if passes:
            passing += count
            if not ok:
                passing_errors += count
    raw = errors / total
    kept = passing / total
    if passing == 0:
        filtered = None
        reduction = None
    else:
        filtered = passing_errors / passing
        reduction = (raw - filtered) / raw if raw > 0 else None
    return FilterReport(
        raw_error_rate=raw,
        filtered_error_rate=filtered,
        relative_reduction=reduction,
        kept_fraction=kept,
    )


def _pct(value: float) -> str:
    return f"{value * 100:.4g}%"


def _row_meaning(
    bitstring: str,
    stats: RunStatistics,
    expected: Iterable[str] | None,
) -> str:
    assert_pos = stats.assertion_positions()
    parts = []
    if assert_pos:
        failed = [
            stats.creg_names[i][len(ASSERT_CREG_PREFIX):]
            for i in assert_pos
            if bitstring[i] == "1"
        ]
        parts.append(
            "assertion error (" + ", ".join(failed) + ")" if failed
            else "no assertion error"
        )
    tag = ""
    if expected is not None:
        data = "".join(bitstring[i] for i in stats.data_positions())
        ok = data in set(expected)
        parts.append("expected data" if ok else "unexpected data")
        if assert_pos:
            failed_any = any(bitstring[i] == "1" for i in assert_pos)
            if failed_any and ok:
                tag = " (potential false positive)"
            elif not failed_any and not ok:
                tag = " (false negative)"
    return ", ".join(parts) + tag if parts else ""


def _render_table(
    stats: RunStatistics,
    report: FilterReport | None,
    expected: Iterable[str] | None,
    meta: Mapping | None,
) -> str:
    lines = []
    if meta:
        for key in sorted(meta):
            lines.append(f"# {key}: {meta[key]}")
    lines.append(f"shots: {stats.total_shots}")
    if stats.creg_names:
        lines.append("cregs: " + " ".join(stats.creg_names))
        width = max(len("outcome"), len(stats.creg_names))
        lines.append(f"{'outcome':<{width}}  {'count':>10}  {'%':>8}  meaning")
        for bitstring in sorted(stats.counts):
            count = stats.counts[bitstring]
            pct = _pct(count / stats.total_shots) if stats.total_shots else "-"
            meaning = _row_meaning(bitstring, stats, expected)
            lines.append(f"{bitstring:<{width}}  {count:>10}  {pct:>8}  {meaning}")
    if stats.assertion_labels:
        lines.append("assertion failures:")
        for label in stats.assertion_labels:
            count = stats.assertion_fail_counts[label]
            rate = _pct(count / stats.total_shots) if stats.total_shots else "-"
            lines.append(f"  {label}: {count} ({rate})")
    if report is not None:
        lines.append("post-selection filter:")
        lines.append(f"  raw error rate:      {_pct(report.raw_error_rate)}")
        if report.filtered_error_rate is None:
            lines.append("  filtered error rate: undefined (no passing shots)")
        else:
            lines.append(f"  filtered error rate: {_pct(report.filtered_error_rate)}")
        if report.relative_reduction is not None:
            lines.append(f"  relative reduction:  {_pct(report.relative_reduction)}")
        lines.append(f"  kept fraction:       {_pct(report.kept_fraction)}")
    return "\n".join(lines) + "\n"


def _render_json(
    stats: RunStatistics,
    report: FilterReport | None,
    expected: Iterable[str] | None,
    meta: Mapping | None,
) -> str:
    total = stats.total_shots
    doc = {
        "total_shots": total,
        "cregs": list(stats.creg_names),
        "data_cregs": list(stats.data_creg_names),
        "assertion_labels": list(stats.assertion_labels),
        "counts": dict(sorted(stats.counts.items())),
        "rates": {k: v / total for k, v in sorted(stats.counts.items())} if total else {},
        "assertion_fail_counts": dict(stats.assertion_fail_counts),
        "expected": sorted(expected) if expected is not None else None,
        "filter": None,
        "meta": dict(meta) if meta else {},
    }
    if report is not None:
        doc["filter"] = {
            "raw_error_rate": report.raw_error_rate,
            "filtered_error_rate": report.filtered_error_rate,
            "relative_reduction": report.relative_reduction,
            "kept_fraction": report.kept_fraction,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_report(
    stats: RunStatistics,
    report: FilterReport | None = None,
    format: str = "table",
    expected: Iterable[str] | None = None,
    meta: Mapping | None = None,
) -> str:
    """Render statistics as an aligned table or a deterministic JSON document."""
    if format == "table":
        return _render_table(stats, report, expected, meta)
    if format == "json":
        return _render_json(stats, report, expected, meta)
    raise ValueError(f"unknown report format {format!r}")
