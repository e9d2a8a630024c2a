"""Shot execution, statistics aggregation, and post-selection reports.

Shots are independent: shot i draws randomness from
``RngStream.for_shot(master_seed, shot_offset + i)``, and statistics
merge commutatively, so a run can be split across workers (or calls, via
`shot_offset` and `merge_statistics`) without changing the result.

A shot "passes" when every assertion creg (``__assert_*``) reads 0.
Post-selection keeps only passing shots; `compute_filter_report` compares
the error rate before and after that filter.

Execution follows a static liveness plan: each qubit enters the state as
|0> just before its first instruction and leaves it at every measurement,
after which it holds no quantum information; its next use brings it back
in at the bit measured (before readout noise).  The state therefore
holds only the *live* qubits, and its width is the plan's peak number of
live qubits, not the declared qubits plus one per assertion ancilla:
assertions that run one after another cost one extra qubit at peak.
Without gate noise they cost none: a qubit that only takes `x` and
`cnot` as target, as an assertion ancilla or a Bell partner does, stays
out of the state, and its measurement reads the parity of its controls
(deferred measurement).  `_ShotProgram` compiles the plan in one pass
over the instructions into one flat list of alloc, gate, measurement and
gate-noise steps.  A run of consecutive cnots onto one target is one gate
step, one pass over the state; a z or y that gate noise fires on the
target inside the run is applied after it with a z on each later control,
so every draw and its order stay as they were.  A shot's record is
fixed at its last measurement, so `run_shots` and `exact_distribution`
stop there; only `run_single`, which returns the final state, runs the
steps after it.  `split_shots` says how a readout flip enters a shot's
record.

One engine walks the plan's outcome tree (`_ShotProgram.walk`): a gate
runs once per tree node, and at a branch step a split rule names the
branches taken.  Under the shot rule, a block of SHOT_BLOCK shots parts
only where their own random draws differ: at a measurement outcome, or
at the Pauli a gate-noise site fires.  Without gate noise a run therefore
costs one pass over the state per distinct outcome history, not per shot;
a passing assertion, whose ancilla reads 0 in every shot, does not split
the tree at all.  Each shot still draws from its own stream in the
order `qassert.measurement` documents, so every shot comes out exactly
as it does alone (`run_single`); `_partition` bounds the states alive at
once.  Under the exact rule (`exact_distribution`) a measurement takes
every outcome that carries probability, weighted by it, instead of
drawing one.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .lang import Circuit, GateInstr, _check_expected, _split_cregs
from .measurement import (BRANCH_PROBABILITY_FLOOR, NoiseModel, RngStream, _check_branch,
                          _check_stream_args, _draw, _draw_outcome)
from .gates import Gate, _check_non_negative
from .state import (
    StateVector,
    _alloc_qubit,
    _apply_gate_inplace,
    _apply_parity_x,
    _checked_probabilities,
    _drop_qubit,
    _parity_class,
    _project,
)

# Most measurement branches exact_distribution visits: each holds a
# state, so the walk grows with 2**(measurements) on random outcomes.
MAX_EXACT_BRANCHES = 1 << 16

# Shots walked down one outcome tree together.  It bounds the streams held
# at once, and through `_partition` the states a walk keeps alive; results
# do not depend on it.
SHOT_BLOCK = 4096

@dataclass(frozen=True)
class ShotRecord:
    """Classical bits of one shot, by creg name in creg order.  The creg
    ``__assert_<label>`` holds assertion <label>, so assertion_outcomes
    (pass or fail per label) is read off those cregs."""

    creg_values: dict[str, int]

    @property
    def assertion_outcomes(self) -> dict[str, str]:
        names = tuple(self.creg_values)
        return {label: "fail" if self.creg_values[names[i]] else "pass"
                for i, label in _split_cregs(names)[1]}


@dataclass(frozen=True)
class RunStatistics:
    """The count table of a run, in three fields: total_shots, creg_names
    and counts, keyed by the creg bitstring in creg order (assertion cregs too).

    The creg ``__assert_<label>`` holds assertion <label> (1 = fail), so
    assertion_labels and assertion_fail_counts are read off those cregs,
    in creg order.  The table must agree with itself: total_shots is a
    non-negative integer, every key a bitstring with one bit per creg,
    every count a non-negative integer, and the counts sum to total_shots.
    Integers follow the package's index rule (an int or a numpy integer,
    not a bool) and are stored as ints, in a copy of the caller's table.
    """

    total_shots: int
    creg_names: tuple[str, ...]
    counts: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "creg_names", tuple(self.creg_names))
        total = _check_non_negative(self.total_shots, "total_shots")
        width, counts = len(self.creg_names), {}
        for key, count in self.counts.items():
            if not isinstance(key, str) or len(key) != width or key.strip("01"):
                raise ValueError(f"count key {key!r} is not a bitstring of {width} creg bits")
            counts[key] = _check_non_negative(count, f"count of {key!r}")
        if sum(counts.values()) != total:
            raise ValueError(f"counts sum to {sum(counts.values())}, not total_shots = {total}")
        object.__setattr__(self, "total_shots", total)
        object.__setattr__(self, "counts", counts)

    @property
    def assertion_labels(self) -> tuple[str, ...]:
        return tuple(label for _, label in _split_cregs(self.creg_names)[1])

    @property
    def assertion_fail_counts(self) -> dict[str, int]:
        return {
            label: sum(n for key, n in self.counts.items() if key[i] == "1")
            for i, label in _split_cregs(self.creg_names)[1]
        }

    @property
    def data_creg_names(self) -> tuple[str, ...]:
        return tuple(self.creg_names[i] for i in self.data_positions())

    def data_positions(self) -> tuple[int, ...]:
        return _split_cregs(self.creg_names)[0]

    def assertion_positions(self) -> tuple[int, ...]:
        return tuple(i for i, _ in _split_cregs(self.creg_names)[1])


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


def _bit(bits: int, slot) -> int:
    """Bit `slot` of projected bits or a record; 0 for None (a qubit never measured)."""
    return 0 if slot is None else bits >> slot & 1


def _key(record: int, width: int) -> str:
    """The count key of a record of `width` creg bits: character i is slot i's bit."""
    return "".join("01"[record >> i & 1] for i in range(width))


def _partition(group: list, keys: list) -> list:
    """Split `group` by the parallel list `keys` into [(key, shots with it)],
    the largest part last and the others in first-seen order; of parts of
    equal size, the first seen goes last.  It is the one place that splits
    and orders a shot group, and it owns the shot walk's "largest last"
    rule: every part walked before the last holds at most half of `group`,
    and a parent's array stays alive only while such a part is walked, so at
    most log2(len(group)) + 1 states, the current one included, are alive
    at once."""
    if keys.count(keys[0]) == len(keys):
        return [(keys[0], group)]
    parts: dict = {}
    for shot, key in zip(group, keys):
        parts.setdefault(key, []).append(shot)
    largest = max(parts, key=lambda key: len(parts[key]))
    shots = parts.pop(largest)
    return [*parts.items(), (largest, shots)]


def _enter(amps, projected: int, step, event, copy: bool):
    """The state and projected bits of the branch that took `event` at
    branch step `step`.

    A measurement branch owns its state: a new array, with its qubit
    dropped ("m") or its parity class projected ("p"), and new projected
    bits with its outcome set.  Only a noise site's branch keeps the
    parent's array, and with `copy` it copies it first: a branch walked
    before the last copies even when no Pauli fired, since its later
    in-place steps would otherwise corrupt the last branch's state.
    """
    if step[0] != "n":
        enter = _drop_qubit if step[0] == "m" else _project
        return enter(amps, step[1], *event), projected | event[0] << step[2]
    if copy:
        amps = amps.copy()
    if event is not None:
        _apply_gate_inplace(amps, Gate(event, (step[1],)))
        # The later cnots of a run carry a z or y on their target on to
        # their controls as a z (Z_t -> Z_c Z_t); their step ran already.
        for c in step[2] if event != "x" else ():
            _apply_gate_inplace(amps, Gate("z", (c,)))
    return amps, projected


class _ShotProgram:
    """A lowered circuit compiled once, under one noise model (None for
    `exact_distribution`), into the flat step list `walk` runs.

    Compiling is one pass over the instructions.  It keeps every qubit
    outside the state in one table, which starts with every declared
    qubit and gains each measured one: an entry is (its controls, whose
    cnots have not cancelled; a flip bit; the creg slot of its last
    measurement, whose projected bit it re-enters at, or None for |0>).
    Without gate noise a qubit waits there while it takes only `x` and
    `cnot` as target, and its measurement reads the parity of its
    controls, which are live.  Such a deferred instruction changes no
    live qubit, so it flushes nothing but a control it needs brought in.
    Any other instruction flushes each qubit it uses that is outside, and
    each waiting qubit with a control it measures or may change: a deferred
    cnot commutes with what acts on other qubits and with `z`, `s` and a
    `cnot` from its control, which keep the control's basis value.  A
    flush brings a qubit in with the alloc and `cnot` steps its entry
    holds.  Under gate noise nothing is deferred, since noise sites draw
    in program order.  `steps` holds, on physical positions:
    - ("a", slot, flip) tensors a qubit in as a new top position at the
      projected bit of `slot` (0 for None) XOR `flip`, so an `x` on a
      waiting qubit costs no kernel;
    - ("g", gate on positions) runs a gate;
    - ("x", control positions, target position) runs a maximal run of
      consecutive cnots onto one target with distinct controls, a flush's
      included, in one pass (`state._apply_parity_x`);
    - ("m", position, creg slot) measures a qubit and drops it: it leaves
      the state, and the qubits above it move down one position.  The
      slot counts the measurements before it, since `creg_names` is in
      measurement order;
    - ("p", control positions, creg slot, flip, re-entry slot) measures a
      deferred qubit: it reads the parity of its controls XOR the flip
      XOR its re-entry bit.  `walk` folds that constant into the parity
      class (`state._parity_class`) before the split rule draws on it;
    - ("n", position, later controls), under gate noise only, is the noise
      site after a gate on each qubit the gate touches.  The sites of an
      "x" step follow it in program order.  A site on its target lists
      the controls of the run's later cnots, which a z or y fired there
      reaches as a z on each (a cnot maps Z_t to Z_c Z_t and Y_t to
      Z_c Y_t); the later controls are () everywhere else.
    Measurements and noise sites are the branch steps.  The last steps
    flush every qubit still outside, in index order.  `layout` is the
    logical qubit at each position after them.  `recorded` is the index
    just past the last measurement; no later step changes a recorded bit,
    so `run_shots` and `exact_distribution` walk only `steps[:recorded]`,
    and `peak_width` is the most qubits alive at once there.

    `walk` runs the steps down their outcome tree.  Gate and alloc steps
    run once per tree node.  At a branch step a split rule lists the
    branches taken as (event, payload): the event is (outcome, its
    probability) or the Pauli that fired (or None).  Each measurement
    branch builds its own array and projected bits (`_enter`), so no
    measurement writes into its parent's.  At a noise site the last branch
    keeps the parent's array and is walked last; every other branch
    copies it when it is walked.

    The shot rule, `split_shots`, carries a group of shots.  Every shot
    draws from its own stream, exactly as a lone shot would, and the group
    splits by the random event, so shots whose draws agree share every
    array operation.  `_partition` orders the parts and so bounds the
    states alive at once.
    """

    def __init__(self, circuit: Circuit, model: NoiseModel | None):
        if circuit.has_assertions():
            raise ValueError(
                "circuit still contains assertion statements; run lower_assertions first"
            )
        self.creg_names = circuit.creg_names
        self.num_qubits = circuit.num_qubits
        self.model = model or NoiseModel()
        layout: list[int] = []
        steps, outside = [], dict.fromkeys(range(self.num_qubits), (frozenset(), 0, None))
        slot = peak = self.recorded = self.peak_width = 0
        # The open run of cnots: (len(steps) after its last cnot, its target,
        # its step's index, its controls).
        run = None

        def gate(name, positions):
            nonlocal run
            c, t = positions[0], positions[-1]
            if name == "cnot" and run and run[:2] == (len(steps), t) and c not in run[3]:
                # Only the run's noise sites came after its step: those on
                # t now precede this cnot.
                at, controls = run[2], run[3] + (c,)
                steps[at] = ("x", controls, t)
                steps[at + 1:] = [("n", q, later + (c,) if q == t else later)
                                  for _, q, later in steps[at + 1:]]
            else:
                at, controls = len(steps), (c,)
                steps.append(("g", Gate(name, positions)))
            if self.model.gate_channel is not None:
                steps.extend(("n", pos, ()) for pos in positions)
            if name == "cnot":
                run = (len(steps), t, at, controls)

        def flush(q):
            controls, flip, at = outside.pop(q)
            layout.append(q)
            top = len(layout) - 1
            steps.append(("a", at, flip))
            for c in sorted(controls):
                gate("cnot", (layout.index(c), top))

        for instr in circuit.instructions:
            is_gate = isinstance(instr, GateInstr)
            qubits = instr.gate.qubits if is_gate else (instr.qubit,)
            q = qubits[-1]
            defer = self.model.gate_channel is None and q in outside and (
                not is_gate or instr.gate.name in ("x", "cnot"))
            if not defer:
                # The qubits whose basis value it may change: z, s and a
                # cnot's control keep theirs.
                changed = qubits[is_gate and instr.gate.name in ("z", "s", "cnot"):]
                for r in [r for r, entry in outside.items() if not entry[0].isdisjoint(changed)]:
                    flush(r)
            for u in qubits:
                if u in outside and not (defer and u == q):
                    flush(u)
            peak = max(peak, len(layout))
            if defer:
                controls, flip, at = outside[q]
                if is_gate:
                    if instr.gate.name == "x":
                        flip ^= 1
                    else:
                        controls ^= {qubits[0]}
                    outside[q] = (controls, flip, at)
                    continue
                steps.append(("p", tuple(layout.index(c) for c in controls), slot, flip, at))
            elif is_gate:
                gate(instr.gate.name, tuple(layout.index(u) for u in qubits))
                continue
            else:
                steps.append(("m", layout.index(q), slot))
                layout.remove(q)
            outside[q] = (frozenset(), 0, slot)
            slot += 1
            self.recorded, self.peak_width = len(steps), peak
        for q in sorted(outside):
            flush(q)
        self.steps, self.layout = tuple(steps), tuple(layout)

    def split_shots(self, amps, step, group) -> list:
        """The shot rule: draw every shot's event at branch step `step` and
        split `group`, a list of (RngStream, flips) shots, by event:
        [(event, shots)] in `_partition`'s order, largest last.  Bit i of
        the int `flips` is the shot's readout flip at creg slot i, and its
        record is its branch's projected bits XOR `flips`: a flip never
        splits the group, since it changes no state."""
        gate_channel, readout_channel = self.model.gate_channel, self.model.readout_channel
        if step[0] == "n":
            return _partition(group, [_draw(gate_channel, rng) for rng, _ in group])
        _, where, slot = step
        probs = _checked_probabilities(amps, where)
        outcomes = [_draw_outcome(probs[1], rng) for rng, _ in group]
        if readout_channel is not None:
            group = [(rng, flips ^ (_draw(readout_channel, rng) is not None) << slot)
                     for rng, flips in group]
        return [((outcome, _check_branch(probs[outcome])), shots)
                for outcome, shots in _partition(group, outcomes)]

    def walk(self, payload, split: Callable, end: int):
        """Run `steps[:end]` from `payload` at the root, taking at each
        branch step the branches `split(amps, step, payload)` lists.  Yields
        (final state, projected bits, payload) once per leaf.  The projected
        bits are an int whose bit i is the outcome, before readout noise, of
        the measurement of creg slot i; a branch never changes its parent's
        bits, and only at a noise site does it share its parent's array.
        At a step that splits, every branch is pushed on the stack, the last
        one listed first, so the walk takes the others first and the last
        branch listed after all of them (at a noise site, only that branch
        goes on in its parent's array without a copy).  `_partition`'s bound
        on live states rests on this order.  Under the shot rule a shot's
        record is read at its leaf (see `split_shots`)."""
        steps = self.steps
        stack = [(0, np.ones(1, dtype=np.complex128), 0, payload, None, None, False)]
        while stack:
            k, amps, projected, payload, step, event, copy = stack.pop()
            if step is not None:
                amps, projected = _enter(amps, projected, step, event, copy)
            while k < end:
                step = steps[k]
                k += 1
                if step[0] == "g":
                    _apply_gate_inplace(amps, step[1])
                    continue
                if step[0] == "x":
                    _apply_parity_x(amps, step[1], step[2])
                    continue
                if step[0] == "a":
                    amps = _alloc_qubit(amps, step[2] ^ _bit(projected, step[1]))
                    continue
                if step[0] == "p":
                    _, positions, slot, flip, at = step
                    ones = _parity_class(amps.size, positions, flip ^ _bit(projected, at))
                    step = ("p", ones, slot)
                *others, (event, payload) = split(amps, step, payload)
                if others:
                    stack.append((k, amps, projected, payload, step, event, False))
                    stack += [(k, amps, projected, branch, step, branch_event, True)
                              for branch_event, branch in others]
                    break
                amps, projected = _enter(amps, projected, step, event, False)
            else:
                yield amps, projected, payload

    def full_state(self, final) -> StateVector:
        """A final state of `walk` over every step, as a state of the
        declared qubits: the last steps brought every qubit in, so only the
        axes move, from positions to descending logical qubits."""
        layout, n = self.layout, self.num_qubits
        # Tensor axis k holds position n-1-k.
        axes = [n - 1 - layout.index(q) for q in reversed(range(n))]
        amps = final.reshape((2,) * n).transpose(axes).reshape(-1)
        return StateVector(n, amps, copy=False)


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
    shots = _check_non_negative(shots, "shots")
    master_seed, shot_offset = _check_stream_args(master_seed=master_seed,
                                                  shot_offset=shot_offset)
    program = _ShotProgram(circuit, model)
    creg_names = program.creg_names

    records: Counter[int] = Counter()
    for start in range(0, shots, SHOT_BLOCK):
        block = [(RngStream.for_shot(master_seed, shot_offset + i), 0)
                 for i in range(start, min(shots, start + SHOT_BLOCK))]
        for _, projected, group in program.walk(block, program.split_shots, program.recorded):
            records.update(projected ^ flips for _, flips in group)
    counts = {_key(record, len(creg_names)): n for record, n in records.items()}
    return RunStatistics(shots, creg_names, counts)


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
    master_seed, shot_index = _check_stream_args(master_seed=master_seed,
                                                 shot_index=shot_index)
    program = _ShotProgram(circuit, model)
    shot = (RngStream.for_shot(master_seed, shot_index), 0)
    ((final, projected, ((_, flips),)),) = program.walk(
        [shot], program.split_shots, len(program.steps))
    record = projected ^ flips
    creg_values = {name: _bit(record, i) for i, name in enumerate(program.creg_names)}
    return ShotRecord(creg_values), program.full_state(final)


def merge_statistics(a: RunStatistics, b: RunStatistics) -> RunStatistics:
    """Combine two runs of the same circuit; aggregation is commutative."""
    if a.creg_names != b.creg_names:
        raise ValueError("cannot merge statistics from different circuits")
    counts = dict(a.counts)
    for key, cnt in b.counts.items():
        counts[key] = counts.get(key, 0) + cnt
    return RunStatistics(a.total_shots + b.total_shots, a.creg_names, counts)


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
        branches = [((outcome, p), prob * p) for outcome, p in enumerate(probs)
                    if p >= BRANCH_PROBABILITY_FLOOR]
        walked += len(branches)
        if walked > MAX_EXACT_BRANCHES:
            raise ValueError(
                f"exact distribution needs more than {MAX_EXACT_BRANCHES} "
                "measurement branches; sample it with run_shots instead"
            )
        return branches

    program = _ShotProgram(circuit, None)
    width = len(program.creg_names)
    leaves = program.walk(1.0, split, program.recorded)
    return {_key(bits, width): prob for _, bits, prob in leaves}


def _rows(stats: RunStatistics) -> Iterator[tuple[str, int, str, list[str]]]:
    """(bitstring, count, data bits, failed assertion labels) for each
    distinct bitstring; the data bits are the data cregs', in order."""
    data_pos, assertions = _split_cregs(stats.creg_names)
    for bitstring, count in stats.counts.items():
        data = "".join(bitstring[i] for i in data_pos)
        failed = [label for i, label in assertions if bitstring[i] == "1"]
        yield bitstring, count, data, failed


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
    errors = passing = passing_errors = 0
    for _, count, data, failed in _rows(stats):
        ok = expected(data)
        if not ok:
            errors += count
        if not failed:
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
    data: str,
    failed: list[str],
    asserted: bool,
    expected: set[str] | None,
) -> str:
    """A row's meaning; `asserted` says whether the run has assertions."""
    parts = []
    if asserted:
        parts.append(
            "assertion error (" + ", ".join(failed) + ")" if failed
            else "no assertion error"
        )
    tag = ""
    if expected is not None:
        ok = data in expected
        parts.append("expected data" if ok else "unexpected data")
        if asserted:
            if failed and ok:
                tag = " (potential false positive)"
            elif not failed and not ok:
                tag = " (false negative)"
    return ", ".join(parts) + tag


def _render_table(
    stats: RunStatistics,
    report: FilterReport | None,
    expected: set[str] | None,
    meta: Mapping | None,
) -> str:
    lines = []
    if meta:
        for key in sorted(meta):
            lines.append(f"# {key}: {meta[key]}")
    lines.append(f"shots: {stats.total_shots}")
    fail_counts = stats.assertion_fail_counts
    if stats.creg_names:
        lines.append("cregs: " + " ".join(stats.creg_names))
        width = max(len("outcome"), len(stats.creg_names))
        lines.append(f"{'outcome':<{width}}  {'count':>10}  {'%':>8}  meaning")
        for bitstring, count, data, failed in sorted(_rows(stats)):
            pct = _pct(count / stats.total_shots) if stats.total_shots else "-"
            meaning = _row_meaning(data, failed, bool(fail_counts), expected)
            lines.append(f"{bitstring:<{width}}  {count:>10}  {pct:>8}  {meaning}")
    if fail_counts:
        lines.append("assertion failures:")
        for label, count in fail_counts.items():
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
    expected: set[str] | None,
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
        "assertion_fail_counts": stats.assertion_fail_counts,
        "expected": sorted(expected) if expected is not None else None,
        "filter": asdict(report) if report is not None else None,
        "meta": dict(meta) if meta else {},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_report(
    stats: RunStatistics,
    report: FilterReport | None = None,
    format: str = "table",
    expected: Iterable[str] | None = None,
    meta: Mapping | None = None,
) -> str:
    """Render statistics as an aligned table or a deterministic JSON document.
    `expected`, if given, is a collection of data bitstrings (see
    `lang._check_expected`)."""
    if expected is not None:
        expected = _check_expected(expected, stats.creg_names)
    if format == "table":
        return _render_table(stats, report, expected, meta)
    if format == "json":
        return _render_json(stats, report, expected, meta)
    raise ValueError(f"unknown report format {format!r}")
