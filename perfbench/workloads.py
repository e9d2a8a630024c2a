"""The benchmark's workloads: a circuit plus the ``qassert run`` flags it runs with.

Every circuit except the corpus Bell pair is generated from the benchmark
seed; qassert itself only ever sees the generated ``.qac`` text.  Each
workload loads a different layer:

- ``bell_filter``: the paper's Bell-pair filter experiment.  3 qubits, so
  the per-shot interpreter loop and the random stream dominate.
- ``ghz_wide_noisy``: 14 data qubits and 4 wide entanglement checks give an
  18-qubit state (4 MiB, larger than a 2 MiB L2).  Gate noise makes every
  shot replay every gate at full width, so gate kernels and ancilla width
  dominate.
- ``pairs_noiseless``: 9 Bell pairs and 2 pair checks give 20 qubits
  (16 MiB) with no noise.  The gates run once; each shot is a state copy
  plus 20 full-width measurements.
- ``deep_program``: 6 data qubits and 2 classical checks give 8 qubits,
  just above the list-kernel width, over about 5,000 instructions.  Parsing,
  per-instruction dispatch, aggregation and rendering do the work.

``BENCHMARK.json`` gates on ``ghz_wide_noisy`` and ``pairs_noiseless``
only.  ``bell_filter`` and ``deep_program`` are bound by the Python
interpreter, whose host time on a shared 2-vCPU machine swings by up to
1.7x for minutes at a time; their run-to-run spread (15-35% over ten seeds)
is wider than any regression bound a gate could use.  They stay runnable,
and ``selftest.py`` still exercises their checks, including the paper's
Bell oracle check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BELL_CORPUS = Path("tests") / "corpus" / "bell_entangled.qac"


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    shots: int
    sim_seed: int
    gate_p: float | None = None
    readout_p: float | None = None
    depolarizing: bool = False
    expect: tuple[str, ...] = ()
    filtered: bool = False
    # Pairs of data cregs that must always read the same bit.
    equal_cregs: tuple[tuple[str, str], ...] = ()
    # Assertions must never fire (noiseless circuits that satisfy them).
    no_fires: bool = False
    # The paper's Bell experiment: post-selection must lower the error rate,
    # and a noiseless run must match the dense-matrix oracle.
    paper_check: bool = False

    @property
    def noisy(self) -> bool:
        return bool(self.gate_p or self.readout_p or self.depolarizing)

    def argv(self, path: str) -> list[str]:
        """Arguments for ``qassert.cli.main``: one ``qassert run`` invocation."""
        argv = ["run", path, "--shots", str(self.shots), "--seed", str(self.sim_seed)]
        if self.gate_p is not None:
            argv += ["--noise-gate-p", repr(self.gate_p)]
        if self.readout_p is not None:
            argv += ["--noise-readout-p", repr(self.readout_p)]
        if self.depolarizing:
            argv.append("--depolarizing")
        for bits in self.expect:
            argv += ["--expect", bits]
        if self.filtered:
            argv.append("--filtered")
        return argv + ["--format", "json"]


def _rng(name: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(f"{name}:{seed}")


def bell_filter(seed: int, root: Path) -> Workload:
    return Workload(
        name="bell_filter",
        source=(root / BELL_CORPUS).read_text(encoding="utf-8"),
        shots=40_000,
        sim_seed=_rng("bell_filter", seed).getrandbits(32),
        gate_p=0.02,
        expect=("00", "11"),
        filtered=True,
        paper_check=True,
    )


def ghz_wide_noisy(seed: int, root: Path) -> Workload:
    rng = _rng("ghz_wide_noisy", seed)
    n = 14
    order = rng.sample(range(n), n)
    lines = [f"qubits {n}", f"h {order[0]}"]
    for i in range(1, n):
        lines.append(f"cnot {order[rng.randrange(i)]} {order[i]}")
    for k in range(4):
        targets = " ".join(str(q) for q in rng.sample(range(n), n))
        lines.append(f"assert_entangled {targets} parity 0 label ghz{k}")
    lines += [f"measure {q} -> m{q}" for q in rng.sample(range(n), n)]
    return Workload(
        name="ghz_wide_noisy",
        source="\n".join(lines) + "\n",
        shots=20,
        sim_seed=rng.getrandbits(32),
        gate_p=0.01,
        readout_p=0.01,
        depolarizing=True,
        expect=("0" * n, "1" * n),
        filtered=True,
    )


def pairs_noiseless(seed: int, root: Path) -> Workload:
    rng = _rng("pairs_noiseless", seed)
    n = 18
    perm = rng.sample(range(n), n)
    pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)]
    lines = [f"qubits {n}"]
    for a, b in pairs:
        lines += [f"h {a}", f"cnot {a} {b}"]
    for k, (a, b) in enumerate(rng.sample(pairs, 2)):
        lines.append(f"assert_entangled {a} {b} parity 0 label pair{k}")
    lines += [f"measure {q} -> q{q}" for q in rng.sample(range(n), n)]
    return Workload(
        name="pairs_noiseless",
        source="\n".join(lines) + "\n",
        shots=10,
        sim_seed=rng.getrandbits(32),
        equal_cregs=tuple((f"q{a}", f"q{b}") for a, b in pairs),
        no_fires=True,
    )


def deep_program(seed: int, root: Path) -> Workload:
    """A random circuit whose qubit 5 stays in a known basis state.

    Qubit 5 only takes bit flips, phases and roles as a cnot control, so
    its value is classical and known here; the two assert_classical checks
    on it pass without noise and fire only on injected errors.
    """
    rng = _rng("deep_program", seed)
    n, classical, length = 6, 5, 5000
    lines = [f"qubits {n}"]
    value = 0
    checks = {length // 3, 2 * length // 3}
    measured = 0
    for step in range(length):
        if step in checks:
            lines.append(f"assert_classical {classical} == {value} label c{step}")
            continue
        if rng.random() < 0.1:
            lines.append(f"measure {rng.randrange(n)} -> m{measured}")
            measured += 1
            continue
        name = rng.choice(("h", "x", "y", "z", "s", "cnot"))
        if name == "cnot":
            control, target = rng.sample(range(n), 2)
            if target == classical:
                control, target = target, control
            lines.append(f"cnot {control} {target}")
            continue
        q = rng.randrange(n)
        if q == classical and name == "h":
            name = "x"
        if q == classical and name in ("x", "y"):
            value ^= 1
        lines.append(f"{name} {q}")
    return Workload(
        name="deep_program",
        source="\n".join(lines) + "\n",
        shots=25,
        sim_seed=rng.getrandbits(32),
        gate_p=0.001,
        readout_p=0.01,
    )


WORKLOADS = {
    f.__name__: f for f in (bell_filter, ghz_wide_noisy, pairs_noiseless, deep_program)
}
