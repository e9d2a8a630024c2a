"""Write tests/data/liveness_golden.json: reference counts for the shot executor.

Each case is a circuit run under four noise settings.  The circuits are:

- seeded random circuits of 8-12 qubits after lowering, recorded by the
  executor that kept every qubit at full width;
- every tests/corpus/*.qac file, and seeded random circuits of 6-7
  qubits after lowering, recorded by the plain-list kernel that ran
  circuits of at most 7 qubits before one executor ran them all.

Every random circuit has an idle declared qubit, a qubit measured and
then used again, and one assertion of each kind, so the counts pin down
qubit allocation and release in the executor.

The fixture stores the circuit text next to its counts, so the test does
not depend on this generator.  Usage, from the repository root:

    PYTHONPATH=src python tests/make_liveness_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from qassert import NoiseModel, lower_assertions, parse, run_shots

FIXTURE = Path(__file__).parent / "data" / "liveness_golden.json"
CORPUS = Path(__file__).parent / "corpus"
WIDE_SEEDS = range(6)
SMALL_SEEDS = range(6, 12)
SHOTS = 150
MODELS = {
    "none": None,
    "gate": NoiseModel(gate_flip_p=0.05),
    "depolarizing": NoiseModel(gate_flip_p=0.05, depolarizing=True),
    "readout": NoiseModel(readout_flip_p=0.05),
}


def random_circuit(seed: int, n: int) -> str:
    rng = random.Random(f"liveness:{seed}")
    idle = rng.randrange(n)
    live = [q for q in range(n) if q != idle]
    body = []
    for _ in range(18):
        if rng.random() < 0.3:
            control, target = rng.sample(live, 2)
            body.append(f"cnot {control} {target}")
        else:
            body.append(f"{rng.choice('hxyzs')} {rng.choice(live)}")
    reused, partner = rng.sample(live, 2)
    at = rng.randrange(4, len(body) - 4)
    body[at:at] = [f"measure {reused} -> mid", f"h {reused}", f"cnot {reused} {partner}"]
    width = rng.randint(2, min(4, len(live)))
    targets = " ".join(str(q) for q in rng.sample(live, width))
    checks = [
        f"assert_classical {rng.choice(live)} == {rng.randrange(2)} label c",
        f"assert_entangled {targets} parity {rng.randrange(2)} label e",
        f"assert_superposition {rng.choice(live)} label sp",
    ]
    for check in checks:
        body.insert(rng.randrange(len(body) + 1), check)
    # One live qubit stays unmeasured, so it is still allocated at the end.
    measured = rng.sample(live, len(live) - 1)
    body += [f"measure {q} -> m{q}" for q in measured]
    return "\n".join([f"qubits {n}"] + body) + "\n"


def circuits() -> list[tuple[str, str]]:
    """(name, source) of every circuit in the fixture, in recording order."""
    found = [(None, random_circuit(seed, 5 + seed % 5)) for seed in WIDE_SEEDS]
    found += [(path.stem, path.read_text(encoding="utf-8"))
              for path in sorted(CORPUS.glob("*.qac"))]
    found += [(f"small{seed}", random_circuit(seed, 3 + seed % 2))
              for seed in SMALL_SEEDS]
    return found


def main() -> None:
    cases = []
    for index, (name, source) in enumerate(circuits()):
        lowered = lower_assertions(parse(source))
        for model_name, model in MODELS.items():
            master_seed = 1000 * index + len(cases)
            stats = run_shots(lowered, SHOTS, master_seed, model)
            cases.append({
                # Wide cases are named by their seed, as when first recorded.
                "name": name or f"seed{master_seed}",
                "source": source,
                "lowered_qubits": lowered.num_qubits,
                "model": model_name,
                "seed": master_seed,
                "shots": SHOTS,
                "counts": dict(sorted(stats.counts.items())),
            })
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
