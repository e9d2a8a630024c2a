"""Randomized cross-validation against the dense-matrix reference.

Seeded random circuits (gates, mid-circuit measurements, assertions) are
generated as source text, pushed through parse -> lower -> simulate, and
checked against the independent matrix oracle.  This is the wide net
behind the hand-picked corpus cases.
"""

import importlib.util
import random
import sys
from collections import Counter

import numpy as np
import pytest

from qassert import (
    NoiseModel,
    exact_distribution,
    lower_assertions,
    parse,
    pretty_print,
    run_shots,
    run_single,
)

from helpers import binomial_4sigma
from make_liveness_golden import MODELS
from make_report_golden import ROOT
from oracles import (
    brute_force_distribution,
    density_matrix_distribution,
    l1_distance,
    reference_shots,
)

GATES_1Q = ["h", "x", "y", "z", "s"]


def random_source(rng: random.Random, num_qubits: int, length: int,
                  allow_assertions: bool = True) -> str:
    lines = [f"qubits {num_qubits}"]
    measured = 0
    assertions = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            lines.append(f"{rng.choice(GATES_1Q)} {rng.randrange(num_qubits)}")
        elif roll < 0.75 and num_qubits >= 2:
            c, t = rng.sample(range(num_qubits), 2)
            lines.append(f"cnot {c} {t}")
        elif roll < 0.85 and allow_assertions and assertions < 2:
            kind = rng.randrange(3)
            if kind == 0:
                lines.append(
                    f"assert_classical {rng.randrange(num_qubits)} == {rng.randrange(2)}"
                )
            elif kind == 1 and num_qubits >= 2:
                k = rng.randint(2, num_qubits)
                targets = rng.sample(range(num_qubits), k)
                lines.append(
                    "assert_entangled "
                    + " ".join(map(str, targets))
                    + f" parity {rng.randrange(2)}"
                )
            else:
                lines.append(f"assert_superposition {rng.randrange(num_qubits)}")
            assertions += 1
        else:
            lines.append(f"measure {rng.randrange(num_qubits)} -> c{measured}")
            measured += 1
    # Guarantee at least one recorded bit so distributions are non-trivial.
    lines.append(f"measure 0 -> c{measured}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", range(30))
def test_random_circuits_match_matrix_oracle(case):
    rng = random.Random(1000 + case)
    source = random_source(rng, num_qubits=rng.randint(1, 3), length=rng.randint(1, 8))
    lowered = lower_assertions(parse(source))
    if lowered.num_qubits > 4:
        pytest.skip("matrix oracle kept to <= 4 qubits")
    fast = exact_distribution(lowered)
    reference = brute_force_distribution(lowered)
    assert l1_distance(fast, reference) < 1e-10, source


@pytest.mark.parametrize("case", range(30))
def test_random_circuits_round_trip(case):
    rng = random.Random(2000 + case)
    source = random_source(rng, num_qubits=rng.randint(1, 5), length=rng.randint(0, 12))
    circuit = parse(source)
    assert parse(pretty_print(circuit)) == circuit
    lowered = lower_assertions(circuit)
    assert parse(pretty_print(lowered)) == lowered


@pytest.mark.parametrize("case", range(5))
def test_random_circuit_sampling_tracks_exact_distribution(case):
    rng = random.Random(3000 + case)
    source = random_source(rng, num_qubits=2, length=6)
    lowered = lower_assertions(parse(source))
    dist = exact_distribution(lowered)
    shots = 20_000
    stats = run_shots(lowered, shots, 500 + case)
    assert sum(stats.counts.values()) == shots
    for key, p in dist.items():
        freq = stats.counts.get(key, 0) / shots
        assert abs(freq - p) < binomial_4sigma(p, shots) + 1e-9, (source, key)
    # No outcomes outside the analytic support.
    assert set(stats.counts) <= set(dist)


def test_density_matrix_oracle_matches_exact_distribution(corpus_files):
    for path in corpus_files:
        circuit = lower_assertions(parse(path.read_text()))
        distance = l1_distance(density_matrix_distribution(circuit), exact_distribution(circuit))
        assert distance <= 1e-12, (path.name, distance)


@pytest.mark.parametrize("model", MODELS)
def test_noisy_sampling_tracks_density_matrix(corpus_files, model):
    shots = 1000
    for index, path in enumerate(corpus_files):
        circuit = lower_assertions(parse(path.read_text()))
        dist = density_matrix_distribution(circuit, MODELS[model])
        stats = run_shots(circuit, shots, 700 + index, MODELS[model])
        for key, p in dist.items():
            freq = stats.counts.get(key, 0) / shots
            assert abs(freq - p) < binomial_4sigma(p, shots) + 1e-9, (path.name, key)
        assert set(stats.counts) <= set(dist), path.name


NOISY_MODELS = {
    "x": NoiseModel(gate_flip_p=0.2, readout_flip_p=0.1),
    "depolarizing": NoiseModel(gate_flip_p=0.2, readout_flip_p=0.1, depolarizing=True),
}


@pytest.mark.parametrize("model", NOISY_MODELS)
@pytest.mark.parametrize("case", range(12))
def test_noisy_random_circuits_match_reference_draw_for_draw(case, model):
    # At p = 0.2 errors fire often, inside the cnot runs of the assertions
    # too; the check over every qubit makes sure there is such a run.  The
    # walk applies a run as one step, and a z or y fired on its target
    # inside it as a z on each later control; the h before each closing
    # measurement turns such a z into a bit flip the record shows.
    rng = random.Random(6000 + case)
    n = rng.randint(2, 4)
    source = random_source(rng, n, rng.randint(6, 14))
    targets = " ".join(map(str, rng.sample(range(n), n)))
    source += f"assert_entangled {targets} parity {rng.randrange(2)}\n"
    source += "".join(f"h {q}\nmeasure {q} -> t{q}\n" for q in range(n))
    circuit = lower_assertions(parse(source))
    seed, model = 40 + case, NOISY_MODELS[model]
    shots = reference_shots(circuit, seed, 60, model)
    expected = dict(Counter(key for key, _, _ in shots))
    assert run_shots(circuit, 60, seed, model).counts == expected, source
    for i, (key, state, _) in enumerate(shots):
        record, final = run_single(circuit, seed, model, shot_index=i)
        assert "".join(str(record.creg_values[c]) for c in circuit.creg_names) == key, (source, i)
        # Every state here is a stabilizer state, whose nonzero amplitudes
        # share one magnitude, and the two simulators agree on them exactly;
        # only the sign of a zero may differ, which array_equal ignores.
        assert np.array_equal(final.amps, state), (source, i)


def test_parser_never_crashes_on_garbage():
    from qassert import ParseError

    rng = random.Random(4)
    alphabet = "qubits measure assert_classical -> == 01 h x # \n\t abc _"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(80)))
        try:
            parse(text)
        except ParseError:
            pass  # the only acceptable failure mode


def test_larger_register_numpy_path():
    # 12 qubits stays on the numpy executor end to end.
    lines = ["qubits 12"] + [f"h {q}" for q in range(12)] + ["cnot 0 11",
             "measure 0 -> a", "measure 11 -> b"]
    circuit = parse("\n".join(lines) + "\n")
    stats = run_shots(circuit, 500, 1)
    assert sum(stats.counts.values()) == 500
    assert set(stats.counts) <= {"00", "01", "10", "11"}


def load_perfbench(name: str, monkeypatch):
    """perfbench/<name>.py, loaded from its file under its own module name
    (the benchmark's modules import one another by that name)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["ghz_wide_noisy", "pairs_noiseless"])
def test_traced_run_narrow_circuits_match_reference(workload, seed, monkeypatch):
    # The traced benchmark run times each gated workload again on an 8-qubit
    # copy (qubit q becomes q mod 8), where qubits are measured several times
    # and brought back into the state. Only that run executes such circuits.
    workloads = load_perfbench("workloads", monkeypatch)
    tracing = load_perfbench("tracing", monkeypatch)
    checks = load_perfbench("checks", monkeypatch)
    w = workloads.WORKLOADS[workload](seed, ROOT)
    model = checks.noise_model(w)
    circuit = tracing.narrow(lower_assertions(parse(w.source)))
    shots = reference_shots(circuit, w.sim_seed, w.shots, model)
    expected = dict(Counter(key for key, _, _ in shots))
    assert run_shots(circuit, w.shots, w.sim_seed, model).counts == expected
    for i, (key, _, _) in enumerate(shots):
        record, _ = run_single(circuit, w.sim_seed, model, shot_index=i)
        assert "".join(str(record.creg_values[c]) for c in circuit.creg_names) == key, i
