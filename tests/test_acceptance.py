"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass line per criterion.
"""

import json
import time

import numpy as np
import pytest

from qassert import (
    AssertionKind,
    AssertionSpec,
    NoiseModel,
    RunStatistics,
    apply_gadget,
    apply_gate,
    build_classical_assertion,
    build_entanglement_assertion,
    build_superposition_assertion,
    cnot,
    compute_filter_report,
    exact_distribution,
    factor_out_qubit,
    fidelity,
    from_amplitudes,
    h,
    ket,
    lower_assertions,
    parse,
    postselect,
    predicted_error_probability,
    pretty_print,
    prob_one,
    run_shots,
    run_single,
    sample_measurements,
    states_equal_up_to_global_phase,
    tensor,
)
from qassert.cli import main as cli_main

from helpers import binomial_4sigma, sv
from oracles import brute_force_distribution, density_matrix_distribution, l1_distance

S2 = 1.0 / np.sqrt(2.0)
N_SHOTS = 100_000
THETAS = [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2]

BELL_ASSERT_SOURCE = """\
qubits 2
h 0
cnot 0 1
assert_entangled 0 1 parity 0 label ent
measure 0 -> m0
measure 1 -> m1
"""


def _passed(num: int, name: str) -> None:
    print(f"criterion {num} ({name}): PASS")


def test_criterion_1_classical_assertion_law():
    started = time.perf_counter()
    gadget = build_classical_assertion(0, 0)
    spec = AssertionSpec(AssertionKind.CLASSICAL_EQUALS, (0,), 0)
    for k, theta in enumerate(THETAS):
        a, b = np.cos(theta), np.sin(theta)
        state = from_amplitudes([a, b])
        p = b * b

        # Analytical oracle, exact.
        assert abs(predicted_error_probability(spec, state) - p) < 1e-10

        # Empirical failure rate of the simulated gadget.
        joint = apply_gadget(state, gadget)
        counts = sample_measurements(joint, 1, N_SHOTS, master_seed=1000 + k)
        assert abs(counts[1] / N_SHOTS - p) <= binomial_4sigma(p, N_SHOTS)

        # Pass branch projects the data qubit onto |0>.
        kept = postselect(joint, 1, 0)
        if kept is not None:
            assert fidelity(kept, ket("00")) > 1 - 1e-12
        else:
            assert p > 1 - 1e-12  # no pass branch only when failure is certain

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _passed(1, "classical assertion law")


def test_criterion_2_entanglement_assertion():
    # Bell-type inputs: no failures, state untouched.
    circuit = lower_assertions(parse(BELL_ASSERT_SOURCE))
    stats = run_shots(circuit, N_SHOTS, master_seed=20)
    assert stats.assertion_fail_counts == {"ent": 0}

    gadget2 = build_entanglement_assertion((0, 1), 0)
    for a, b in [(S2, S2), (0.6, 0.8), (0.6, 0.8j)]:
        bell = sv({"00": a, "11": b})
        joint = apply_gadget(bell, gadget2)
        assert prob_one(joint, 2) <= 1e-12
        assert states_equal_up_to_global_phase(joint, tensor(bell, ket("0")), 1e-12)

    # Final data state through the full lowered pipeline.
    prep_only = lower_assertions(
        parse("qubits 2\nh 0\ncnot 0 1\nassert_entangled 0 1 parity 0 label e\n")
    )
    _, final = run_single(prep_only, 0)
    anc_bit, data = factor_out_qubit(final, 2)
    reference = apply_gate(apply_gate(ket("00"), h(0)), cnot(0, 1))
    assert anc_bit == 0
    assert states_equal_up_to_global_phase(data, reference, 1e-12)

    # Generic four-component input: failure weight |c|^2 + |d|^2 and the
    # projected branch states.
    a, b, c, d = 0.5, 0.5j, 0.5, -0.5
    state = sv({"00": a, "11": b, "10": c, "01": d})
    spec = AssertionSpec(AssertionKind.ENTANGLED, (0, 1), 0)
    p_fail = abs(c) ** 2 + abs(d) ** 2
    assert abs(predicted_error_probability(spec, state) - p_fail) < 1e-10

    joint = apply_gadget(state, gadget2)
    counts = sample_measurements(joint, 2, N_SHOTS, master_seed=21)
    assert abs(counts[1] / N_SHOTS - p_fail) <= binomial_4sigma(p_fail, N_SHOTS)

    norm_pass = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    norm_fail = np.sqrt(abs(c) ** 2 + abs(d) ** 2)
    pass_branch = postselect(joint, 2, 0)
    fail_branch = postselect(joint, 2, 1)
    expected_pass = tensor(sv({"00": a / norm_pass, "11": b / norm_pass}), ket("0"))
    expected_fail = tensor(sv({"10": c / norm_fail, "01": d / norm_fail}), ket("1"))
    assert fidelity(pass_branch, expected_pass) > 1 - 1e-10
    assert fidelity(fail_branch, expected_fail) > 1 - 1e-10
    _passed(2, "entanglement assertion")


def test_criterion_3_even_cnot_rule():
    for n in range(2, 6):
        targets = tuple(range(n))
        gadget = build_entanglement_assertion(targets, 0)
        assert gadget.cnot_count() % 2 == 0

        # Through the DSL: prepare GHZ_n, assert, lower, count the added CNOTs.
        prep = "".join(f"cnot 0 {q}\n" for q in range(1, n))
        src = (
            f"qubits {n}\nh 0\n{prep}"
            f"assert_entangled {' '.join(map(str, targets))} parity 0 label g\n"
        )
        circuit = parse(src)
        lowered = lower_assertions(circuit)
        from qassert import GateInstr

        def cnots(circ):
            return sum(
                1 for i in circ.instructions
                if isinstance(i, GateInstr) and i.gate.name == "cnot"
            )

        added = cnots(lowered) - cnots(circuit)
        assert added % 2 == 0 and added == gadget.cnot_count()

        # Ancilla deterministically 0 on the lowered circuit.
        dist = exact_distribution(lowered)
        assert dist == pytest.approx({"0": 1.0}, abs=1e-12)

        # Generic GHZ-type amplitudes: disentangled ancilla, data unchanged.
        amps = np.zeros(1 << n, dtype=complex)
        amps[0], amps[-1] = 0.6, 0.8j
        ghz = from_amplitudes(amps)
        joint = apply_gadget(ghz, gadget)
        assert prob_one(joint, n) <= 1e-12
        assert states_equal_up_to_global_phase(joint, tensor(ghz, ket("0")), 1e-12)
    _passed(3, "even CNOT rule")


def test_criterion_4_superposition_assertion():
    gadget = build_superposition_assertion(0)
    spec = AssertionSpec(AssertionKind.UNIFORM_SUPERPOSITION, (0,))

    plus = apply_gadget(ket("+"), gadget)
    assert sample_measurements(plus, 1, N_SHOTS, master_seed=40)[1] == 0

    minus = apply_gadget(ket("-"), gadget)
    assert sample_measurements(minus, 1, N_SHOTS, master_seed=41)[1] == N_SHOTS

    for seed_offset, label in ((0, "0"), (1, "1")):
        joint = apply_gadget(ket(label), gadget)
        fails = sample_measurements(joint, 1, N_SHOTS, master_seed=42 + seed_offset)[1]
        assert abs(fails / N_SHOTS - 0.5) <= binomial_4sigma(0.5, N_SHOTS)

    # Oracle over the real-amplitude grid; uses the corrected closed form.
    for theta in THETAS:
        a, b = np.cos(theta), np.sin(theta)
        state = from_amplitudes([a, b])
        assert abs(
            predicted_error_probability(spec, state) - (2 - 4 * a * b) / 4
        ) < 1e-10

        # Both measurement branches force the data qubit to |+>.
        joint = apply_gadget(state, gadget)
        for bit in (0, 1):
            branch = postselect(joint, 1, bit)
            if branch is None:
                continue
            _, data = factor_out_qubit(branch, 1)
            assert states_equal_up_to_global_phase(data, ket("+"), 1e-12)
    _passed(4, "superposition assertion")


def test_criterion_5_published_table_arithmetic():
    classical = RunStatistics(
        total_shots=1000,
        creg_names=("q1", "__assert_q2"),
        counts={"00": 938, "01": 27, "10": 24, "11": 11},
    )
    assert classical.assertion_labels == ("q2",)
    assert classical.assertion_fail_counts == {"q2": 38}
    report = compute_filter_report(classical, lambda d: d == "0")
    assert abs(report.raw_error_rate - 0.035) <= 0.005
    assert abs(report.filtered_error_rate - 0.025) <= 0.005
    assert abs(report.relative_reduction - 0.285) <= 0.005

    entangled = RunStatistics(
        total_shots=1000,
        creg_names=("__assert_q0", "q1", "q2"),
        counts={
            "000": 391, "001": 63, "010": 44, "011": 346,
            "100": 40, "101": 56, "110": 21, "111": 39,
        },
    )
    assert entangled.assertion_labels == ("q0",)
    assert entangled.assertion_fail_counts == {"q0": 156}
    report = compute_filter_report(entangled, lambda d: d in ("00", "11"))
    assert abs(report.raw_error_rate - 0.184) <= 0.005
    assert abs(report.filtered_error_rate - 0.126) <= 0.005
    assert abs(report.relative_reduction - 0.315) <= 0.005
    _passed(5, "published table arithmetic")


def _exact_filter_rates(dist, stats, accepted) -> tuple[float, float, float]:
    """(raw error rate, filtered error rate, kept fraction) of an exact
    distribution, read with the creg layout of `stats`."""
    data_pos, assertion_pos = stats.data_positions(), stats.assertion_positions()
    raw = kept = kept_errors = 0.0
    for key, prob in dist.items():
        error = "".join(key[i] for i in data_pos) not in accepted
        passing = all(key[i] == "0" for i in assertion_pos)
        raw += prob * error
        kept += prob * passing
        kept_errors += prob * (error and passing)
    return raw, kept_errors / kept, kept


def test_criterion_6_noise_filtering_direction():
    circuit = lower_assertions(parse(BELL_ASSERT_SOURCE))
    accepted = ("00", "11")
    for k, p in enumerate((0.01, 0.02, 0.05)):
        model = NoiseModel(gate_flip_p=p)
        stats = run_shots(circuit, N_SHOTS, master_seed=60 + k, model=model)
        report = compute_filter_report(stats, lambda d: d in accepted)
        assert report.filtered_error_rate is not None
        assert report.filtered_error_rate < report.raw_error_rate, (
            f"filtering did not help at gate_flip_p={p}: "
            f"raw={report.raw_error_rate}, filtered={report.filtered_error_rate}"
        )
        # The sampled rates lie within 4 sigma of the density-matrix ones;
        # the filtered rate is a frequency over the passing shots only.
        raw, filtered, kept = _exact_filter_rates(
            density_matrix_distribution(circuit, model), stats, accepted)
        passing = round(report.kept_fraction * N_SHOTS)
        for name, sampled, exact, n in (("raw", report.raw_error_rate, raw, N_SHOTS),
                                        ("filtered", report.filtered_error_rate, filtered, passing),
                                        ("kept", report.kept_fraction, kept, N_SHOTS)):
            assert abs(sampled - exact) <= binomial_4sigma(exact, n), (
                f"{name} rate at gate_flip_p={p}: sampled {sampled}, exact {exact}")
    _passed(6, "noise filtering direction")


def _net_rates(source: str, p: float) -> tuple[float, float]:
    """Exact (error rate of `source` without its assertion, filtered error
    rate with it) under X noise at gate_flip_p = p."""
    model, accepted = NoiseModel(gate_flip_p=p), ("00", "11")
    plain = parse("".join(line for line in source.splitlines(keepends=True)
                          if not line.startswith("assert_")))
    baseline = sum(prob for key, prob in density_matrix_distribution(plain, model).items()
                   if key not in accepted)
    circuit = lower_assertions(parse(source))
    layout = RunStatistics(0, circuit.creg_names, {})
    _, filtered, _ = _exact_filter_rates(
        density_matrix_distribution(circuit, model), layout, accepted)
    return baseline, filtered


def test_filter_net_benefit_against_no_assertion():
    # On the bare Bell program the gadget's CNOTs add more data errors than
    # the filter removes: without the assertion the rate is 2p(1-p).
    for p in (0.01, 0.02, 0.05):
        baseline, filtered = _net_rates(BELL_ASSERT_SOURCE, p)
        assert abs(baseline - 2 * p * (1 - p)) <= 1e-12
        assert baseline < filtered, f"no-assertion rate not below filtered at {p}"
        if p == 0.02:
            assert abs(filtered - 0.040732) < 5e-7
    # With more noise before the check, one identity pair, the filter wins.
    padded = BELL_ASSERT_SOURCE.replace("assert_", "cnot 0 1\ncnot 0 1\nassert_")
    baseline, filtered = _net_rates(padded, 0.01)
    assert filtered < baseline
    assert abs(baseline - 0.048040) < 5e-7 and abs(filtered - 0.020778) < 5e-7


def test_criterion_7_brute_force_oracle_equivalence(corpus_files):
    checked = 0
    for path in corpus_files:
        circuit = lower_assertions(parse(path.read_text()))
        if circuit.num_qubits > 4:
            continue
        fast = exact_distribution(circuit)
        reference = brute_force_distribution(circuit)
        distance = l1_distance(fast, reference)
        assert distance < 1e-10, f"{path.name}: L1 distance {distance}"
        checked += 1
    assert checked >= 8, "corpus should contain enough small circuits"
    _passed(7, "brute-force oracle equivalence")


def test_criterion_8_parser_lowering_determinism(corpus_files, tmp_path, capsys):
    # Round-trip identity over the whole corpus.
    for path in corpus_files:
        circuit = parse(path.read_text())
        assert parse(pretty_print(circuit)) == circuit, path.name

    # Lowering is the identity on assertion-free circuits.
    for path in corpus_files:
        circuit = parse(path.read_text())
        if not circuit.has_assertions():
            assert lower_assertions(circuit) is circuit

    # Byte-identical JSON for fixed seed and flags.
    target = tmp_path / "bell.qac"
    target.write_text(BELL_ASSERT_SOURCE)
    argv = ["run", str(target), "--shots", "2000", "--seed", "7",
            "--format", "json", "--expect", "00", "--expect", "11", "--filtered"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # well-formed
    _passed(8, "parser, lowering, and deterministic output")
