"""Tests for shot execution, statistics, filtering, and report rendering."""

import dataclasses
import json
import math
import pickle
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from qassert import (
    Circuit,
    InvariantViolationError,
    NoiseModel,
    RngStream,
    RunStatistics,
    StateVector,
    apply_gate,
    compute_filter_report,
    exact_distribution,
    factor_out_qubit,
    h,
    cnot,
    ket,
    lower_assertions,
    merge_statistics,
    new_basis_state,
    parse,
    pretty_print,
    render_report,
    run_shots,
    run_single,
    sample_measurements,
    states_equal_up_to_global_phase,
    z,
)
import qassert.runner as runner

from helpers import binomial_4sigma
from make_liveness_golden import FIXTURE, MODELS
from oracles import brute_force_distribution, l1_distance, projected_state, reference_shots

BELL_SOURCE = """\
qubits 2
h 0
cnot 0 1
assert_entangled 0 1 parity 0 label ent
measure 0 -> m0
measure 1 -> m1
"""


def lowered(source: str) -> Circuit:
    return lower_assertions(parse(source))


GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))

# Qubit 4 is dropped after its measurement, 7 is never used, and the rest
# stay live to the end, allocated out of index order.
LIVE_AT_END = """\
qubits 9
h 6
cnot 6 2
measure 4 -> early
h 8
cnot 8 0
s 0
y 3
h 1
cnot 1 5
x 5
assert_entangled 6 2 parity 0 label e
"""

# Without gate noise qubits 1 and 2 wait out of the state as partners of
# qubit 0, and qubit 0 waits after its first measurement, taking an x.
DEFERRED_PARTNERS = "qubits 3\nh 0\ncnot 0 1\ncnot 0 2\nmeasure 1 -> a\nmeasure 2 -> b\nmeasure 0 -> c\n"
FLIP_FOLDS = "qubits 1\nh 0\nmeasure 0 -> a\nx 0\nh 0\nmeasure 0 -> b\n"
# A z keeps its qubit's basis value, so qubit 1 waits through it.
Z_COMMUTES = "qubits 2\nh 0\ncnot 0 1\nz 0\nmeasure 1 -> a\nmeasure 0 -> b\n"

# Each distinct fixture circuit once: the corpus files and the random ones.
GOLDEN_SOURCES = {c["source"]: c["name"] for c in GOLDEN}

# The fixture circuits small enough for the full-width matrix reference.
REFERENCE_SOURCES = {c["source"]: c["name"] for c in GOLDEN if c["lowered_qubits"] <= 8}

FINAL_STATE_SOURCES = {
    f"{c['lowered_qubits']}q-{c['name']}": c["source"]
    for c in GOLDEN if c["model"] == "none" and c["lowered_qubits"] <= 10
}
FINAL_STATE_SOURCES["live-at-end"] = LIVE_AT_END


class TestRunShots:
    def test_empty_circuit(self):
        stats = run_shots(Circuit(2), 100, 0)
        assert stats.counts == {"": 100}
        assert stats.total_shots == 100

    def test_unlowered_circuit_rejected(self):
        with pytest.raises(ValueError, match="lower"):
            run_shots(parse(BELL_SOURCE), 10, 0)

    def test_bell_with_assertion_no_failures(self):
        stats = run_shots(lowered(BELL_SOURCE), 10_000, 11)
        assert stats.assertion_fail_counts == {"ent": 0}
        assert set(stats.counts) == {"000", "011"}
        assert abs(stats.counts["000"] / 10_000 - 0.5) < binomial_4sigma(0.5, 10_000)

    def test_superposition_on_plus_no_failures(self):
        src = "qubits 1\nh 0\nassert_superposition 0 label sp\nmeasure 0 -> m\n"
        stats = run_shots(lowered(src), 10_000, 3)
        assert stats.assertion_fail_counts == {"sp": 0}

    def test_determinism(self):
        a = run_shots(lowered(BELL_SOURCE), 2000, 123)
        b = run_shots(lowered(BELL_SOURCE), 2000, 123)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_shots(lowered(BELL_SOURCE), 2000, 1)
        b = run_shots(lowered(BELL_SOURCE), 2000, 2)
        assert a.counts != b.counts

    def test_shot_offset_partitions_run(self):
        circuit = lowered(BELL_SOURCE)
        whole = run_shots(circuit, 3000, 9)
        first = run_shots(circuit, 1800, 9)
        second = run_shots(circuit, 1200, 9, shot_offset=1800)
        assert merge_statistics(first, second) == whole

    def test_merge_rejects_mismatched_runs(self):
        a = run_shots(lowered(BELL_SOURCE), 10, 0)
        b = run_shots(Circuit(2), 10, 0)
        with pytest.raises(ValueError, match="different circuits"):
            merge_statistics(a, b)

    def test_zero_noise_model_bit_identical_to_no_model(self):
        circuit = lowered(BELL_SOURCE)
        assert run_shots(circuit, 1500, 7, NoiseModel()) == run_shots(circuit, 1500, 7)

    def test_mid_circuit_measurement(self):
        src = (
            "qubits 2\nh 0\nmeasure 0 -> early\ncnot 0 1\nh 1\nmeasure 1 -> late\n"
        )
        stats = run_shots(parse(src), 4000, 21)
        # early is uniform; late is uniform regardless of the branch.
        early_one = sum(c for k, c in stats.counts.items() if k[0] == "1")
        late_one = sum(c for k, c in stats.counts.items() if k[1] == "1")
        assert abs(early_one / 4000 - 0.5) < binomial_4sigma(0.5, 4000)
        assert abs(late_one / 4000 - 0.5) < binomial_4sigma(0.5, 4000)

    def test_kept_fraction_times_total_is_integer(self):
        stats = run_shots(lowered(BELL_SOURCE), 5000, 2, NoiseModel(gate_flip_p=0.05))
        report = compute_filter_report(stats, lambda d: d in ("00", "11"))
        passing = report.kept_fraction * stats.total_shots
        assert passing == int(passing)

    def test_idle_declared_qubits_do_not_change_outcomes(self):
        # Declared qubits that no instruction touches are never allocated,
        # so the 8-qubit program gives the 2-qubit one's outcomes for
        # identical seeds.
        small_src = "qubits 2\nh 0\ncnot 0 1\nmeasure 0 -> a\nmeasure 1 -> b\n"
        big_src = "qubits 8\nh 0\ncnot 0 1\nmeasure 0 -> a\nmeasure 1 -> b\n"
        small = run_shots(parse(small_src), 2000, 5)
        big = run_shots(parse(big_src), 2000, 5)
        assert small.counts == big.counts

    def test_idle_declared_qubits_do_not_change_outcomes_with_noise(self):
        small_src = "qubits 2\nh 0\ncnot 0 1\nmeasure 0 -> a\nmeasure 1 -> b\n"
        big_src = "qubits 8\nh 0\ncnot 0 1\nmeasure 0 -> a\nmeasure 1 -> b\n"
        model = NoiseModel(gate_flip_p=0.1, readout_flip_p=0.05)
        small = run_shots(parse(small_src), 2000, 5, model)
        big = run_shots(parse(big_src), 2000, 5, model)
        assert small.counts == big.counts

    def test_all_gate_kinds_match_exact_distribution(self, corpus_files):
        # gates_only.qac exercises y/z/s and a reversed cnot through the
        # sampling kernel; frequencies must track the analytic distribution.
        src = next(p for p in corpus_files if p.name == "gates_only.qac").read_text()
        circuit = parse(src)
        dist = exact_distribution(circuit)
        n = 20_000
        stats = run_shots(circuit, n, 15)
        for key, p in dist.items():
            freq = stats.counts.get(key, 0) / n
            assert abs(freq - p) < binomial_4sigma(p, n) + 1e-9

    def test_depolarizing_channel_statistics(self):
        # After X, an error fires with p=0.5 and is X, Y, or Z uniformly;
        # only X and Y flip the readout, so P(m=0) = 0.5 * 2/3 = 1/3.
        circuit = parse("qubits 1\nx 0\nmeasure 0 -> m\n")
        n = 30_000
        stats = run_shots(circuit, n, 8,
                          NoiseModel(gate_flip_p=0.5, depolarizing=True))
        freq = stats.counts.get("0", 0) / n
        assert abs(freq - 1 / 3) < binomial_4sigma(1 / 3, n)

    def test_certain_readout_flip_inverts_all_bits(self):
        stats = run_shots(lowered(BELL_SOURCE), 2000, 6,
                          NoiseModel(readout_flip_p=1.0))
        assert set(stats.counts) == {"111", "100"}
        assert stats.assertion_fail_counts == {"ent": 2000}

    def test_counts_always_sum_to_total(self):
        for seed, model in ((0, None), (1, NoiseModel(gate_flip_p=0.1))):
            stats = run_shots(lowered(BELL_SOURCE), 1234, seed, model)
            assert sum(stats.counts.values()) == stats.total_shots == 1234

    def test_zero_shots(self):
        stats = run_shots(lowered(BELL_SOURCE), 0, 0)
        assert stats.total_shots == 0 and stats.counts == {}
        with pytest.raises(ValueError, match="shots"):
            run_shots(lowered(BELL_SOURCE), -1, 0)


@pytest.mark.parametrize("shots", [-1, 2.5, True, 3, np.int64(3)])
@pytest.mark.parametrize("entry", ["sample_measurements", "run_shots"])
def test_one_shots_rule(entry, shots):
    # Each entry point's counts, which come back as ints.
    call = {
        "sample_measurements": lambda: list(sample_measurements(ket("+"), 0, shots, 1).values()),
        "run_shots": lambda: list(
            run_shots(parse("qubits 1\nh 0\nmeasure 0 -> m\n"), shots, 0).counts.values()),
    }[entry]
    if shots == 3:  # 3 or np.int64(3): the rule of qubit indices
        counts = call()
        assert sum(counts) == 3 and {type(n) for n in counts} == {int}
        return
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"shots must be a non-negative integer, got {shots!r}"


# Each random-stream argument, as "<entry point> <argument>": a call with
# that argument set to a value.
STREAM_ARGS = {
    "run_shots master_seed": lambda c, v: run_shots(c, 4, v),
    "run_shots shot_offset": lambda c, v: run_shots(c, 4, 1, shot_offset=v),
    "run_single master_seed": lambda c, v: run_single(c, v)[0],
    "run_single shot_index": lambda c, v: run_single(c, 1, shot_index=v)[0],
    "sample_measurements master_seed": lambda c, v: sample_measurements(ket("+"), 0, 4, v),
    "sample_measurements shot_offset":
        lambda c, v: sample_measurements(ket("+"), 0, 4, 1, shot_offset=v),
    "RngStream seed": lambda c, v: RngStream(v).next_u64(),
    "RngStream.for_shot master_seed": lambda c, v: RngStream.for_shot(v, 0).next_u64(),
    "RngStream.for_shot shot_index": lambda c, v: RngStream.for_shot(1, v).next_u64(),
}
THREE_COINS = "qubits 3\nh 0\nh 1\nh 2\nmeasure 0 -> a\nmeasure 1 -> b\nmeasure 2 -> c\n"


@pytest.mark.parametrize("value", [1.5, True, "7", None])
@pytest.mark.parametrize("arg", STREAM_ARGS)
def test_one_stream_rule(arg, value):
    with pytest.raises(ValueError) as info:
        STREAM_ARGS[arg](parse(THREE_COINS), value)
    assert str(info.value) == f"{arg.split()[1]} must be an integer, got {value!r}"


@pytest.mark.parametrize("arg", STREAM_ARGS)
def test_stream_args_are_integers_mod_2_64(arg):
    # A numpy integer runs as its value, and a negative one mod 2**64.
    call, circuit = STREAM_ARGS[arg], parse(THREE_COINS)
    assert call(circuit, np.int64(-3)) == call(circuit, -3) == call(circuit, 2**64 - 3)


class TestRunSingle:
    def test_record_covers_all_cregs_and_labels(self):
        record, state = run_single(lowered(BELL_SOURCE), 0)
        assert set(record.creg_values) == {"__assert_ent", "m0", "m1"}
        assert record.assertion_outcomes == {"ent": "pass"}
        assert record.creg_values["m0"] == record.creg_values["m1"]

    def test_reproduces_run_shots_shot(self):
        circuit = lowered(BELL_SOURCE)
        stats = run_shots(circuit, 1, 42, shot_offset=6)
        record, _ = run_single(circuit, 42, shot_index=6)
        key = "".join(
            str(record.creg_values[c]) for c in circuit.creg_names
        )
        assert stats.counts == {key: 1}

    def test_lowering_commutes_with_simulation(self):
        # Assertions that pass deterministically leave the data state
        # exactly as the assertion-free program would.
        src_with = "qubits 2\nh 0\ncnot 0 1\nassert_entangled 0 1 parity 0 label e\n"
        _, final = run_single(lowered(src_with), 0)
        anc_bit, data_state = factor_out_qubit(final, 2)
        assert anc_bit == 0
        reference = apply_gate(apply_gate(new_basis_state(2), h(0)), cnot(0, 1))
        assert states_equal_up_to_global_phase(data_state, reference, 1e-12)


class TestLiveness:
    """The executor allocates qubits at first use, drops them at every
    measurement and brings a reused one back at its measured bit; results
    must not change."""

    @pytest.mark.parametrize(
        "case", GOLDEN, ids=lambda c: f"{c['name']}-{c['model']}"
    )
    def test_golden_counts(self, case):
        # Counts recorded by earlier executors: the wide cases by one that
        # kept every qubit at full width, the others by a plain-list kernel.
        circuit = lowered(case["source"])
        assert circuit.num_qubits == case["lowered_qubits"]
        stats = run_shots(circuit, case["shots"], case["seed"], MODELS[case["model"]])
        assert stats.counts == case["counts"]

    @pytest.mark.parametrize("readout_p", [0.0, 1.0])
    @pytest.mark.parametrize("source", FINAL_STATE_SOURCES.values(),
                             ids=FINAL_STATE_SOURCES.keys())
    def test_final_state_matches_oracle(self, source, readout_p):
        circuit = lowered(source)
        assert circuit.num_qubits <= 10
        model = NoiseModel(readout_flip_p=readout_p)
        for shot in range(2):
            record, state = run_single(circuit, 31, model, shot_index=shot)
            # A certain readout flip inverts every recorded bit, never the state.
            outcomes = {c: v ^ int(readout_p) for c, v in record.creg_values.items()}
            expected = projected_state(circuit, outcomes)
            assert states_equal_up_to_global_phase(
                state, StateVector(circuit.num_qubits, expected), 1e-12
            )

    def test_run_single_replays_noisy_wide_shots(self):
        case = next(c for c in GOLDEN if c["lowered_qubits"] > 7)
        circuit = lowered(case["source"])
        model = NoiseModel(gate_flip_p=0.05, readout_flip_p=0.05, depolarizing=True)
        for i in range(40):
            stats = run_shots(circuit, 1, 8, model, shot_offset=i)
            record, _ = run_single(circuit, 8, model, shot_index=i)
            key = "".join(str(record.creg_values[c]) for c in circuit.creg_names)
            assert stats.counts == {key: 1}, i

    @pytest.mark.parametrize("readout_p", [0.0, 1.0])
    def test_reused_qubit_returns_at_measured_bit(self, readout_p):
        # Qubit 0 re-enters for the cnot at the bit it was measured at, not
        # at the bit readout noise recorded, so b copies a in every shot.
        circuit = parse("qubits 2\nh 0\nmeasure 0 -> a\ncnot 0 1\nmeasure 1 -> b\n")
        stats = run_shots(circuit, 400, 5, NoiseModel(readout_flip_p=readout_p))
        assert set(stats.counts) == {"00", "11"}

    # Without gate noise a classical or entanglement check costs no qubit,
    # and neither does a Bell partner that only takes its control's bit.
    # Under gate noise every qubit enters the state.
    @pytest.mark.parametrize("model", ["none", "readout", "gate"])
    def test_peak_width_of_sequential_checks(self, model):
        ghz = ["qubits 14", "h 0"] + [f"cnot {q - 1} {q}" for q in range(1, 14)]
        targets = " ".join(str(q) for q in range(14))
        ghz += [f"assert_entangled {targets} parity 0 label g{k}" for k in range(4)]
        ghz += [f"measure {q} -> m{q}" for q in range(14)]
        pairs = ["qubits 18"]
        for a in range(0, 18, 2):
            pairs += [f"h {a}", f"cnot {a} {a + 1}"]
        pairs += ["assert_entangled 0 1 parity 0", "assert_entangled 4 5 parity 0"]
        pairs += [f"measure {q} -> m{q}" for q in range(18)]
        # A measured qubit leaves the state until its next use.
        reuse = ["qubits 2", "h 0", "measure 0 -> a", "h 1", "measure 1 -> b",
                 "x 0", "measure 0 -> c"]
        peaks = (15, 19, 1) if model == "gate" else (14, 11, 1)
        for source, declared, peak in zip((ghz, pairs, reuse), (18, 20, 2), peaks):
            circuit = lowered("\n".join(source) + "\n")
            assert circuit.num_qubits == declared
            assert runner._ShotProgram(circuit, MODELS[model]).peak_width == peak


def record_kernels(monkeypatch) -> list:
    """The list that every kernel the runner applies from now on is
    appended to, in order: a gate, or a fused run of cnots onto one target
    as ("x", controls, target)."""
    applied = []
    apply, apply_run = runner._apply_gate_inplace, runner._apply_parity_x

    def counting(amps, gate):
        applied.append(gate)
        apply(amps, gate)

    def counting_run(amps, controls, t):
        applied.append(("x", controls, t))
        apply_run(amps, controls, t)

    monkeypatch.setattr(runner, "_apply_gate_inplace", counting)
    monkeypatch.setattr(runner, "_apply_parity_x", counting_run)
    return applied


class TestPartition:
    """`_partition` is the one place a shot group is split and ordered."""

    def test_largest_last_and_the_others_in_first_seen_order(self):
        parts = runner._partition(list(range(7)), ["b", "a", "c", "a", "b", "a", "d"])
        assert parts == [("b", [0, 4]), ("c", [2]), ("d", [6]), ("a", [1, 3, 5])]

    def test_first_seen_of_the_equal_largest_goes_last(self):
        parts = runner._partition(list(range(5)), ["x", "y", "z", "y", "x"])
        assert parts == [("y", [1, 3]), ("z", [2]), ("x", [0, 4])]

    @pytest.mark.parametrize("size", [1, 3])
    def test_one_part_when_every_key_agrees(self, size):
        group = list(range(size))
        ((key, shots),) = runner._partition(group, ["k"] * size)
        assert key == "k" and shots is group


class TestLiveStates:
    """`_partition`'s "largest last" order bounds the states a walk keeps
    alive at once to log2(len(group)) + 1."""

    # Gate noise splits a group unevenly, so the order of its parts shows.
    SOURCE = ("qubits 4\n" + "".join(f"h {q}\n" for q in range(4))
              + "cnot 0 1\ncnot 2 3\n" * 40
              + "".join(f"measure {q} -> m{q}\n" for q in range(4)))

    @pytest.mark.parametrize("shots", [64, 256])
    def test_states_alive_at_once_within_the_bound(self, shots, monkeypatch):
        # Every state the walk holds comes out of `_enter` or `_alloc_qubit`.
        alive, peak = {}, 0

        def tracked(make, state_of):
            def call(*args):
                nonlocal peak
                out = make(*args)
                amps = state_of(out)
                alive[id(amps)] = weakref.ref(amps)
                for key in [key for key, ref in alive.items() if ref() is None]:
                    del alive[key]
                peak = max(peak, len(alive))
                return out
            return call

        monkeypatch.setattr(runner, "_enter", tracked(runner._enter, lambda out: out[0]))
        monkeypatch.setattr(runner, "_alloc_qubit",
                            tracked(runner._alloc_qubit, lambda out: out))
        run_shots(parse(self.SOURCE), shots, 5, NoiseModel(gate_flip_p=0.05))
        assert 2 <= peak <= math.log2(shots) + 1


class TestOutcomeTree:
    """run_shots walks a block of shots down one outcome tree; every shot
    must still come out as it does when run alone."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("source", GOLDEN_SOURCES, ids=GOLDEN_SOURCES.values())
    def test_counts_aggregate_single_shots(self, source, model):
        circuit = lowered(source)
        shots = 100
        singles: dict[str, int] = {}
        for i in range(shots):
            record, _ = run_single(circuit, 12, MODELS[model], shot_index=i)
            key = "".join(str(record.creg_values[c]) for c in circuit.creg_names)
            singles[key] = singles.get(key, 0) + 1
        assert run_shots(circuit, shots, 12, MODELS[model]).counts == singles

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize(
        "case", GOLDEN[::3], ids=lambda c: f"{c['name']}-{c['model']}"
    )
    def test_counts_do_not_depend_on_shot_block(self, case, block, monkeypatch):
        monkeypatch.setattr(runner, "SHOT_BLOCK", block)
        circuit = lowered(case["source"])
        stats = run_shots(circuit, case["shots"], case["seed"], MODELS[case["model"]])
        assert stats.counts == case["counts"]

    @pytest.mark.parametrize("model", MODELS)
    def test_offset_runs_merge_across_blocks(self, model, monkeypatch):
        monkeypatch.setattr(runner, "SHOT_BLOCK", 3)
        circuit = lowered(BELL_SOURCE)
        whole = run_shots(circuit, 200, 9, MODELS[model])
        first = run_shots(circuit, 107, 9, MODELS[model])
        second = run_shots(circuit, 93, 9, MODELS[model], shot_offset=107)
        assert merge_statistics(first, second) == whole

    @pytest.mark.parametrize("model", ["none", "readout", "gate"])
    def test_shared_gates_run_once(self, model, monkeypatch):
        # Without gate noise every Bell shot shares the state up to the
        # first data measurement, and no gate follows it.  The ancilla only
        # collects parity, so it never enters the state: h and one cnot are
        # the only kernels.  Under gate noise nothing is deferred.
        circuit = lowered(BELL_SOURCE)
        if model == "gate":
            assert runner._ShotProgram(circuit, MODELS[model]).steps == BELL_NOISY_STEPS
            return
        applied = record_kernels(monkeypatch)
        stats = run_shots(circuit, 1000, 3, MODELS[model])
        assert sum(stats.counts.values()) == 1000
        assert applied == [h(0), cnot(0, 1)]

    # A deferred gate acts on no live qubit, so it pulls no other waiting
    # qubit in, and an x on a waiting qubit costs no kernel: it sets the
    # bit the qubit re-enters at.  A z on a control commutes with the
    # waiting cnot, so it pulls nothing in either.  One shot runs every
    # step once.
    @pytest.mark.parametrize("model", ["none", "readout"])
    @pytest.mark.parametrize("source, kernels", [
        (DEFERRED_PARTNERS, [h(0)]),
        (FLIP_FOLDS, [h(0), h(0)]),
        (Z_COMMUTES, [h(0), z(0)]),
    ], ids=["partners-wait", "flip-folds", "z-commutes"])
    def test_waiting_qubits_cost_nothing(self, source, kernels, model, monkeypatch):
        circuit = parse(source)
        assert runner._ShotProgram(circuit, MODELS[model]).peak_width == 1
        applied = record_kernels(monkeypatch)
        run_single(circuit, 3, MODELS[model])
        assert applied == kernels

    # Consecutive cnots onto one live target, with distinct controls, are one
    # kernel; a repeated control starts a new run.
    @pytest.mark.parametrize("model", ["none", "readout"])
    def test_cnot_run_is_one_kernel(self, model, monkeypatch):
        circuit = parse("qubits 4\nh 0\nh 1\nh 2\nh 3\ncnot 0 3\ncnot 2 3\ncnot 1 3\n"
                        "cnot 2 3\nh 3\nmeasure 3 -> a\n")
        applied = record_kernels(monkeypatch)
        run_single(circuit, 3, MODELS[model])
        assert applied == [h(0), h(1), h(2), h(3), ("x", (0, 2, 1), 3), cnot(2, 3), h(3)]

    # Under gate noise every tree node that reaches a k-target entanglement
    # check runs one kernel for its k cnots, however often the noise before
    # it has split the tree.
    def test_wide_check_is_one_kernel_per_tree_node(self, monkeypatch):
        k = 6
        circuit = lowered(f"qubits {k}\n" + "".join(f"h {q}\n" for q in range(k))
                          + "assert_entangled " + " ".join(map(str, range(k))) + " parity 0\n"
                          + "".join(f"measure {q} -> m{q}\n" for q in range(k)))
        program = runner._ShotProgram(circuit, MODELS["depolarizing"])
        (at,) = [i for i, step in enumerate(program.steps) if step[0] == "x"]
        assert program.steps[at] == ("x", tuple(range(k)), k)
        # The run's first noise site follows its step: each node that ran
        # the step splits there once.
        nodes = []

        def split(amps, step, group):
            if step is program.steps[at + 1]:
                nodes.append(step)
            return program.split_shots(amps, step, group)

        applied = record_kernels(monkeypatch)
        block = [(RngStream.for_shot(7, i), 0) for i in range(500)]
        assert sum(len(group) for *_, group in program.walk(block, split, program.recorded)) == 500
        assert len(nodes) > 1
        assert applied.count(("x", tuple(range(k)), k)) == len(nodes)
        assert not any(cnot(c, k) in applied for c in range(k))

    # A shot's record is fixed at its last measurement, so the h, cnot and s
    # after it run only in run_single: in no noise model do they cost
    # run_shots a kernel per leaf or a draw.
    RECORDED = "qubits 4\nh 0\nh 1\nh 2\nmeasure 0 -> a\nmeasure 1 -> b\nmeasure 2 -> c\n"
    TAIL = "h 3\ncnot 3 2\ns 3\n"

    def test_gates_after_last_measurement_do_not_run(self, monkeypatch):
        applied = record_kernels(monkeypatch)
        circuit = parse(self.RECORDED + self.TAIL)
        assert sum(run_shots(circuit, 1000, 4).counts.values()) == 1000
        assert applied == [h(0), h(1), h(2)]
        applied.clear()
        assert len(exact_distribution(circuit)) == 8
        assert applied == [h(0), h(1), h(2)]

    @pytest.mark.parametrize("model", MODELS)
    def test_tail_draws_nothing(self, model, monkeypatch):
        draws = []

        def counting(rng):
            draws.append(None)
            return next_float(rng)

        next_float = RngStream.next_float
        monkeypatch.setattr(RngStream, "next_float", counting)

        def run(source):
            draws.clear()
            counts = run_shots(parse(source), 1000, 4, MODELS[model]).counts
            return counts, len(draws)

        assert run(self.RECORDED + self.TAIL) == run(self.RECORDED)

    @pytest.mark.parametrize("kind", ["m", "p"])
    def test_measurement_branch_owns_its_state(self, kind):
        # The last branch of a measurement is entered without a copy; it
        # must still leave its parent's array and projected bits as they are.
        amps = np.arange(1, 9) * (1 + 2j)
        amps /= np.linalg.norm(amps)
        amps.setflags(write=False)
        parent = amps.copy()
        where = 1 if kind == "m" else runner._parity_class(8, (0, 2), 0)
        probs = runner._checked_probabilities(amps, where)
        projected = 0b101
        for outcome in (0, 1):
            step, event = (kind, where, 1), (outcome, probs[outcome])
            branch, bits = runner._enter(amps, projected, step, event, False)
            assert bits == 0b101 | outcome << 1
            assert not np.shares_memory(branch, amps)
            assert np.linalg.norm(branch) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(amps, parent)
        assert projected == 0b101


# Bell + assert_entangled under gate noise: every qubit is allocated before
# its first gate, a noise site follows each touched qubit, and the ancilla
# (position 2) is measured as a qubit.  The two cnots onto the ancilla are
# one step; a z or y on the ancilla after the first one reaches qubit 1 (the
# second cnot's control) as a z.  The program ends by bringing each logical
# qubit back at its projected bit, with no flip: qubit 0 at slot 1, qubit 1
# at slot 2 and the ancilla at slot 0.
BELL_NOISY_STEPS = (
    ("a", None, 0), ("g", h(0)), ("n", 0, ()),
    ("a", None, 0), ("g", cnot(0, 1)), ("n", 0, ()), ("n", 1, ()),
    ("a", None, 0), ("x", (0, 1), 2), ("n", 0, ()), ("n", 2, (1,)), ("n", 1, ()), ("n", 2, ()),
    ("m", 2, 0), ("m", 0, 1), ("m", 0, 2),
    ("a", 1, 0), ("a", 2, 0), ("a", 0, 0),
)


# Without gate noise a qubit that only takes x and cnot-as-target stays out
# of the state, and its measurement is a parity step.  Each circuit takes
# one path of that rule.
PARITY_SOURCES = {
    # The constant (flip XOR re-entry bit) is 1: the ancilla starts at |1>.
    "constant-one": "qubits 2\nh 0\nh 1\nassert_classical 0 == 1 label c\n"
                    "assert_entangled 0 1 parity 1 label e\nmeasure 0 -> a\nmeasure 1 -> b\n",
    # The last target's duplicated cnot cancels it out of the parity.
    "odd-target": "qubits 3\nh 0\nh 1\nh 2\nassert_entangled 0 1 2 parity 0 label e\n"
                  "measure 0 -> a\nmeasure 1 -> b\nmeasure 2 -> c\n",
    # The partner's parity step projects its control.
    "partner-first": "qubits 2\nh 0\ncnot 0 1\nmeasure 1 -> b\nmeasure 0 -> a\n",
    # Qubit 0 is measured out of the state, takes x and a cnot, is measured
    # at its projected bit, then re-enters for an h.
    "reenter-twice": "qubits 2\nh 1\ncnot 1 0\nmeasure 0 -> a\nh 1\nx 0\ncnot 1 0\n"
                     "measure 0 -> b\nx 0\nh 0\nmeasure 0 -> c\n",
    # An h on the control brings the partner into the state first.
    "flush-on-h": "qubits 2\nh 0\ncnot 0 1\nh 0\nmeasure 1 -> b\nmeasure 0 -> a\n",
    # So does measuring the control.
    "flush-on-measure": "qubits 2\nh 0\nx 1\ncnot 0 1\nmeasure 0 -> a\nmeasure 1 -> b\n",
    # Qubit 1 is still out of the state at the end; run_single's state holds it.
    "never-measured": "qubits 3\nh 0\ncnot 0 1\nx 1\nh 2\nmeasure 2 -> c\n",
    # An unused qubit's measurement is a parity step on no positions; it
    # still draws.
    "unused-measured": "qubits 2\nh 0\nmeasure 1 -> z\nmeasure 0 -> a\n",
    # Two partners of one control wait side by side: the second cnot from
    # the control acts on no live qubit, so it does not bring the first in.
    "partners-wait": DEFERRED_PARTNERS,
    # The x on the measured qubit folds into its re-entry bit.
    "flip-folds": FLIP_FOLDS,
    # The z on the control leaves the partner waiting.
    "z-commutes": Z_COMMUTES,
    # An s on the control and a cnot from it into a live qubit keep its
    # basis value, so the partner waits through both until the h.
    "commute-s-cnot": "qubits 3\nh 0\nh 2\ncnot 0 1\ns 0\ncnot 0 2\nh 0\n"
                      "measure 0 -> a\nmeasure 1 -> b\nmeasure 2 -> c\n",
    # A cnot into the control changes it: the partner comes in first.
    "flush-on-cnot-target": "qubits 3\nh 0\ncnot 0 1\nh 2\ncnot 2 0\n"
                            "measure 1 -> b\nmeasure 0 -> a\nmeasure 2 -> c\n",
}


def nearest_draw(shots) -> str:
    """The measurement draw closest to its P(1) among reference shots."""
    draws = [draw for _, _, shot_draws in shots for draw in shot_draws]
    if not draws:
        return "no measurement draws"
    u, p1 = min(draws, key=lambda d: abs(d[0] - d[1]))
    return f"nearest draw {u!r} to P(1) = {p1!r}, distance {abs(u - p1)!r}"


class TestDrawExactReference:
    """Every shot must come out as the full-width matrix reference draws
    it, which applies each fired Pauli to its state."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("source", REFERENCE_SOURCES, ids=REFERENCE_SOURCES.values())
    def test_counts_match_reference(self, source, model):
        circuit = lowered(source)
        shots = reference_shots(circuit, 21, 40, MODELS[model])
        expected = dict(Counter(key for key, _, _ in shots))
        assert run_shots(circuit, 40, 21, MODELS[model]).counts == expected, nearest_draw(shots)

    @pytest.mark.parametrize("model", ["gate", "depolarizing"])
    @pytest.mark.parametrize("source", REFERENCE_SOURCES, ids=REFERENCE_SOURCES.values())
    def test_run_single_state_matches_reference(self, source, model):
        check_run_single(lowered(source), MODELS[model], 10)

    @pytest.mark.parametrize("model", ["none", "readout"])
    @pytest.mark.parametrize("source", PARITY_SOURCES.values(), ids=PARITY_SOURCES.keys())
    def test_parity_steps_match_reference(self, source, model):
        circuit = lowered(source)
        shots = reference_shots(circuit, 21, 60, MODELS[model])
        expected = dict(Counter(key for key, _, _ in shots))
        assert run_shots(circuit, 60, 21, MODELS[model]).counts == expected, nearest_draw(shots)
        check_run_single(circuit, MODELS[model], 10)


def check_run_single(circuit, model, shots) -> None:
    """run_single's bits and full state equal the reference's, shot by shot."""
    for i, shot in enumerate(reference_shots(circuit, 21, shots, model)):
        key, psi, _ = shot
        record, state = run_single(circuit, 21, model, shot_index=i)
        assert "".join(str(record.creg_values[c]) for c in circuit.creg_names) == key
        assert states_equal_up_to_global_phase(
            state, StateVector(circuit.num_qubits, psi), 1e-12
        ), (i, nearest_draw([shot]))


class TestExactDistribution:
    def test_bell_distribution(self):
        dist = exact_distribution(lowered(BELL_SOURCE))
        assert dist == pytest.approx({"000": 0.5, "011": 0.5}, abs=1e-12)

    def test_matches_brute_force_oracle(self, corpus_files):
        # The fixture's random circuits take the walk's drop, re-entry and
        # copy paths: each has an idle qubit, a measured-then-reused qubit
        # and all three assertion kinds.
        sources = {path.read_text(): path.name for path in corpus_files}
        sources.update(GOLDEN_SOURCES)
        checked = 0
        for source, name in sources.items():
            circuit = lowered(source)
            if circuit.num_qubits > 8:
                continue
            mine = exact_distribution(circuit)
            reference = brute_force_distribution(circuit)
            assert l1_distance(mine, reference) < 1e-10, name
            checked += 1
        assert checked >= 20

    def test_matches_sampled_frequencies(self):
        circuit = lowered(
            "qubits 1\nh 0\nassert_classical 0 == 0 label c\nmeasure 0 -> m\n"
        )
        dist = exact_distribution(circuit)
        stats = run_shots(circuit, 20_000, 77)
        for key, p in dist.items():
            freq = stats.counts.get(key, 0) / 20_000
            assert abs(freq - p) < binomial_4sigma(p, 20_000) + 1e-9

    def test_rejects_unlowered(self):
        with pytest.raises(ValueError, match="lower"):
            exact_distribution(parse(BELL_SOURCE))

    def test_long_measurement_sequence(self):
        # A record of 2,000 creg bits, far wider than a machine word.  At
        # readout_p 1 every recorded bit flips and the state does not.
        source = "qubits 1\n" + "".join(f"measure 0 -> m{i}\n" for i in range(2000))
        circuit = parse(source)
        assert exact_distribution(circuit) == {"0" * 2000: 1.0}
        for readout_p, flip in [(0.0, "0"), (1.0, "1")]:
            model = NoiseModel(readout_flip_p=readout_p)
            assert run_shots(circuit, 5, 3, model).counts == {flip * 2000: 5}
            record, state = run_single(circuit, 3, model, shot_index=4)
            bits = "".join(str(record.creg_values[c]) for c in circuit.creg_names)
            assert bits == flip * 2000, readout_p
            assert states_equal_up_to_global_phase(state, new_basis_state(1), 1e-12)

    def test_branch_bound(self):
        def pairs(n):
            return f"qubits {n}\n" + "".join(
                f"h {q}\nmeasure {q} -> m{q}\n" for q in range(n)
            )

        # 15 uniformly random measurements walk 2**16 - 1 branches, within
        # the budget; 16 would walk 2**17 - 1.
        dist = exact_distribution(parse(pairs(15)))
        assert len(dist) == 1 << 15
        assert all(p == pytest.approx(2.0**-15, rel=1e-12) for p in dist.values())
        with pytest.raises(ValueError, match="more than 65536 measurement branches"):
            exact_distribution(parse(pairs(16)))

    def test_norm_drift_raises(self, monkeypatch):
        apply = runner._apply_gate_inplace

        def drifting(amps, gate):
            apply(amps, gate)
            amps *= 1.0 + 1e-6

        def writing_nan(amps, gate):
            # NaN compares False with everything, so a drift test written
            # as `drift > tolerance` lets it through.
            apply(amps, gate)
            amps[0] = np.nan

        # The second circuit's only branch step is the ancilla's parity step.
        parity_only = lowered("qubits 1\nh 0\nh 0\nassert_classical 0 == 0 label c\n")
        program = runner._ShotProgram(parity_only, None)
        branch_kinds = [step[0] for step in program.steps if step[0] in "mpn"]
        assert branch_kinds == ["p"]
        for kernel in (drifting, writing_nan):
            monkeypatch.setattr(runner, "_apply_gate_inplace", kernel)
            for circuit in (lowered(BELL_SOURCE), parity_only):
                for run in (exact_distribution, lambda circuit: run_shots(circuit, 10, 0)):
                    with pytest.raises(InvariantViolationError, match="norm drifted"):
                        run(circuit)


def table1_stats() -> RunStatistics:
    """Published two-bit counts: data bit then assertion bit."""
    stats = RunStatistics(
        total_shots=1000,
        creg_names=("q1", "__assert_q2"),
        counts={"00": 938, "01": 27, "10": 24, "11": 11},
    )
    assert stats.assertion_labels == ("q2",)
    assert stats.assertion_fail_counts == {"q2": 38}
    return stats


def table2_stats() -> RunStatistics:
    """Published three-bit counts: assertion bit first, then two data bits."""
    stats = RunStatistics(
        total_shots=1000,
        creg_names=("__assert_q0", "q1", "q2"),
        counts={
            "000": 391, "001": 63, "010": 44, "011": 346,
            "100": 40, "101": 56, "110": 21, "111": 39,
        },
    )
    assert stats.assertion_labels == ("q0",)
    assert stats.assertion_fail_counts == {"q0": 156}
    return stats


class TestRunStatistics:
    def test_stores_only_the_count_table(self):
        assert [f.name for f in dataclasses.fields(RunStatistics)] == [
            "total_shots", "creg_names", "counts",
        ]
        stats = table1_stats()
        with pytest.raises(AttributeError):
            stats.assertion_fail_counts = {"q2": 0}
        assert stats.data_creg_names == ("q1",)
        assert stats.data_positions() == (0,)
        assert stats.assertion_positions() == (1,)

    def test_creg_names_stored_as_tuple(self):
        listed = RunStatistics(2, ["m"], {"0": 2})
        assert listed.creg_names == ("m",)
        merged = merge_statistics(listed, RunStatistics(3, ("m",), {"1": 3}))
        assert merged == RunStatistics(5, ("m",), {"0": 2, "1": 3})

    def test_no_assertion_cregs(self):
        stats = RunStatistics(5, ("m",), {"0": 5})
        assert stats.assertion_labels == ()
        assert stats.assertion_fail_counts == {}

    @pytest.mark.parametrize("total, counts, rule", [
        (5, {"0": 1}, "counts sum to 1, not total_shots = 5"),
        (1, {"0": 1, "1": 1}, "counts sum to 2, not total_shots = 1"),
        (-1, {}, "total_shots must be a non-negative int"),
        (True, {"0": 1}, "total_shots must be a non-negative int"),
        (2.0, {"0": 2}, "total_shots must be a non-negative int"),
        (2, {"01": 2}, "not a bitstring of 1 creg bits"),
        (2, {"": 2}, "not a bitstring of 1 creg bits"),
        (2, {"2": 2}, "not a bitstring of 1 creg bits"),
        (2, {0: 2}, "not a bitstring of 1 creg bits"),
        (2, {"0": 3, "1": -1}, "count of '1' must be a non-negative int"),
        (2, {"0": 2.0}, "count of '0' must be a non-negative int"),
        (1, {"0": True}, "count of '0' must be a non-negative int"),
        (np.True_, {"0": 1}, "total_shots must be a non-negative int"),
        (np.int64(-1), {}, "total_shots must be a non-negative int"),
        (np.float64(2.0), {"0": 2}, "total_shots must be a non-negative int"),
        (1, {"0": np.True_}, "count of '0' must be a non-negative int"),
        (2, {"0": np.int64(3), "1": np.int64(-1)}, "count of '1' must be a non-negative int"),
        (2, {"0": np.float64(2.0)}, "count of '0' must be a non-negative int"),
        (np.int64(3), {"0": np.int64(2)}, "counts sum to 2, not total_shots = 3"),
    ])
    def test_count_table_agrees_with_itself(self, total, counts, rule):
        with pytest.raises(ValueError, match=re.escape(rule)):
            RunStatistics(total, ("m",), counts)

    def test_numpy_integers_stored_as_ints(self):
        outcomes, counts = np.unique(np.array(["1", "0", "1"]), return_counts=True)
        stats = RunStatistics(np.int64(3), ("m",), dict(zip(outcomes.tolist(), counts)))
        assert stats == RunStatistics(3, ("m",), {"0": 1, "1": 2})
        assert type(stats.total_shots) is int
        assert {type(n) for n in stats.counts.values()} == {int}

    def test_keeps_a_copy_of_the_callers_table(self):
        counts = {"0": 2}
        stats = RunStatistics(2, ("m",), counts)
        counts["1"] = 5
        assert stats.counts == {"0": 2}
        report = compute_filter_report(stats, lambda data: data == "0")
        assert (report.raw_error_rate, report.kept_fraction) == (0.0, 1.0)

    def test_pickle_round_trip(self):
        stats = table1_stats()
        assert pickle.loads(pickle.dumps(stats)) == stats


class TestFilterReport:
    def test_published_classical_arithmetic(self):
        report = compute_filter_report(table1_stats(), lambda d: d == "0")
        assert report.raw_error_rate == pytest.approx(0.035, abs=1e-12)
        assert report.filtered_error_rate == pytest.approx(0.024 / 0.962, abs=1e-12)
        assert report.relative_reduction == pytest.approx(0.285, abs=0.005)
        assert report.kept_fraction == pytest.approx(0.962, abs=1e-12)

    def test_published_entanglement_arithmetic(self):
        report = compute_filter_report(table2_stats(), lambda d: d in ("00", "11"))
        assert report.raw_error_rate == pytest.approx(0.184, abs=1e-12)
        assert report.filtered_error_rate == pytest.approx(0.107 / 0.844, abs=1e-12)
        assert report.relative_reduction == pytest.approx(0.315, abs=0.005)

    def test_all_correct_and_passing(self):
        stats = RunStatistics(
            total_shots=10,
            creg_names=("m", "__assert_a"),
            counts={"00": 10},
        )
        report = compute_filter_report(stats, lambda d: d == "0")
        assert report.raw_error_rate == 0.0
        assert report.filtered_error_rate == 0.0
        assert report.relative_reduction is None
        assert report.kept_fraction == 1.0

    def test_zero_passing_shots_is_undefined_not_zero(self):
        stats = RunStatistics(
            total_shots=5,
            creg_names=("m", "__assert_a"),
            counts={"01": 5},
        )
        report = compute_filter_report(stats, lambda d: d == "0")
        assert report.filtered_error_rate is None
        assert report.relative_reduction is None
        assert report.kept_fraction == 0.0

    def test_empty_stats_rejected(self):
        stats = RunStatistics(0, (), {})
        with pytest.raises(ValueError, match="empty"):
            compute_filter_report(stats, lambda d: True)


class TestRenderReport:
    def test_table_rows_sum_to_total(self):
        stats = table1_stats()
        text = render_report(stats, format="table", expected=["0"])
        assert "93.8%" in text
        assert "false negative" in text  # 10 row: no error, wrong data
        assert "potential false positive" in text  # 01 row
        rows = [line.split() for line in text.splitlines()
                if line and line[0] in "01"]
        assert len(rows) == 4
        assert sum(int(r[1]) for r in rows) == stats.total_shots

    def test_table_includes_filter_section(self):
        stats = table1_stats()
        report = compute_filter_report(stats, lambda d: d == "0")
        text = render_report(stats, report, format="table", expected=["0"])
        assert "post-selection filter" in text
        assert "raw error rate:      3.5%" in text

    def test_report_without_assertions_omits_filter_lines(self):
        stats = run_shots(parse("qubits 1\nh 0\nmeasure 0 -> m\n"), 100, 0)
        text = render_report(stats, format="table")
        assert "assertion" not in text
        assert "filter" not in text

    def test_json_round_trip(self):
        stats = table2_stats()
        report = compute_filter_report(stats, lambda d: d in ("00", "11"))
        doc = json.loads(render_report(stats, report, format="json",
                                       expected=["00", "11"]))
        assert doc["total_shots"] == 1000
        assert doc["counts"]["011"] == 346
        assert doc["filter"]["raw_error_rate"] == pytest.approx(0.184, abs=1e-12)
        assert doc["expected"] == ["00", "11"]

    def test_json_deterministic(self):
        stats = run_shots(lowered(BELL_SOURCE), 500, 4)
        a = render_report(stats, format="json", meta={"seed": 4})
        b = render_report(stats, format="json", meta={"seed": 4})
        assert a == b

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            render_report(table1_stats(), format="yaml")

    @pytest.mark.parametrize("format", ["table", "json"])
    def test_expected_string_rejected(self, format):
        # Iterated, "11" would be the one bitstring "1" and mark the 11 row
        # as unexpected data.
        stats = run_shots(lowered(BELL_SOURCE), 100, 4)
        with pytest.raises(ValueError, match="collection of bitstrings"):
            render_report(stats, format=format, expected="11")

    # A bitstring of the wrong width would label every row unexpected data,
    # and one with other characters would land in the JSON as it is.
    @pytest.mark.parametrize("format", ["table", "json"])
    @pytest.mark.parametrize("bits", ["0", "000", "ab", "1x", "", 11])
    def test_expected_must_be_data_bitstrings(self, format, bits):
        stats = run_shots(lowered(BELL_SOURCE), 100, 4)
        message = f"expected {bits!r} must be a bitstring over the 2 data creg(s) m0 m1"
        with pytest.raises(ValueError) as info:
            render_report(stats, format=format, expected=["11", bits])
        assert str(info.value) == message

    def test_expected_may_be_any_iterable(self):
        stats = run_shots(lowered(BELL_SOURCE), 100, 4)
        doc = json.loads(render_report(stats, format="json",
                                       expected=(bits for bits in ("11", "00", "11"))))
        assert doc["expected"] == ["00", "11"]
