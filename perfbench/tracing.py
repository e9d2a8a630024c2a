"""The traced run: spans around the public calls of one ``qassert run``, and
replayed per-call timings of the state, measurement and noise layers.

Every span and timer sits in the benchmark, around calls into qassert's
public API; nothing inside the package is instrumented.

``runner.interp_share`` is the share of ``run_shots`` that is neither array
work nor the random stream: the same instruction stream is run again on
NARROW_WIDTH qubits, where the arrays cost next to nothing, and that time
less the random stream's cost, over the full run's time, is the interpreter
overhead that a batched executor would remove.  (Subtracting the replayed
public-call costs from the run instead does not work: those calls copy and
re-check the state, so they overshoot the runner's in-place work by more
than the quantity being estimated.)
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from qassert import (
    Circuit,
    Gate,
    GateInstr,
    MeasureInstr,
    NoiseModel,
    RngStream,
    apply_gate,
    apply_gate_noise,
    compute_filter_report,
    lower_assertions,
    measure,
    new_basis_state,
    parse,
    render_report,
    run_shots,
)

from workloads import Workload

ROOT_SPAN = "cli.run"
CHILD_SPANS = ("lang.parse", "lang.lower", "runner.run_shots", "runner.filter", "runner.render")
# Widest state whose array work is negligible next to per-instruction
# dispatch; also the narrowest state that leaves the runner's list kernel.
NARROW_WIDTH = 8
REPLAY_ITEMS = 16
REPLAY_PASSES = 3


class Tracer:
    """Spans kept in memory and written out once, at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, run: int):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run": run,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def durations(self, run: int) -> dict[str, float]:
        return {s["name"]: s["end"] - s["start"] for s in self.spans if s["run"] == run}

    def self_times(self, run: int) -> dict[str, float]:
        """Each span's duration minus what its children cover.

        Children of one span run one after another, so the part they cover
        is the sum of their durations.
        """
        out = {}
        for i, s in enumerate(self.spans):
            if s["run"] != run:
                continue
            covered = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == i)
            out[s["name"]] = s["end"] - s["start"] - covered
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, indent=1) + "\n", encoding="utf-8")


def traced_run(tracer: Tracer, run: int, path: str, w: Workload,
               model: NoiseModel | None) -> str:
    """The pipeline of ``qassert run`` through public calls, one span per call."""
    with tracer.span(ROOT_SPAN, run):
        source = Path(path).read_text(encoding="utf-8")
        with tracer.span("lang.parse", run):
            circuit = parse(source)
        with tracer.span("lang.lower", run):
            lowered = lower_assertions(circuit)
        with tracer.span("runner.run_shots", run):
            stats = run_shots(lowered, w.shots, w.sim_seed, model)
        report = None
        if w.filtered:
            accepted = set(w.expect)
            with tracer.span("runner.filter", run):
                report = compute_filter_report(stats, lambda data: data in accepted)
        meta = {"circuit": path, "shots": w.shots, "seed": w.sim_seed, "noise": repr(model)}
        with tracer.span("runner.render", run):
            return render_report(stats, report, format="json",
                                 expected=list(w.expect) or None, meta=meta)


def count_draws(lowered: Circuit, w: Workload, model: NoiseModel | None) -> int:
    """Random draws of one full run, counted by wrapping RngStream.next_float."""
    original = RngStream.next_float
    draws = 0

    def counting(self):
        nonlocal draws
        draws += 1
        return original(self)

    RngStream.next_float = counting
    try:
        run_shots(lowered, w.shots, w.sim_seed, model)
    finally:
        RngStream.next_float = original
    return draws


def _per_call_us(call, items, budget_s: float) -> float:
    """Mean over items of each item's median µs per call.

    At most REPLAY_ITEMS evenly spaced items are timed, each at least
    REPLAY_PASSES times and until the budget is spent; per-item medians keep
    one disturbed call from moving the result.
    """
    items = list(items)[:: max(1, len(items) // REPLAY_ITEMS)][:REPLAY_ITEMS]
    samples = [[] for _ in items]
    passes = 0
    start = time.perf_counter()
    while passes < REPLAY_PASSES or time.perf_counter() - start < budget_s:
        for item, times in zip(items, samples):
            t0 = time.perf_counter()
            call(item)
            times.append(time.perf_counter() - t0)
        passes += 1
    return statistics.fmean(statistics.median(t) for t in samples) * 1e6


def replay_costs(lowered: Circuit, model: NoiseModel | None,
                 budget_s: float) -> dict[str, float]:
    """Mean µs per public call at the workload's width.

    The public calls copy the state and check its norm around the in-place
    work the runner does, so these are upper bounds on the runner's cost.
    """
    gates = [i.gate for i in lowered.instructions if isinstance(i, GateInstr)]
    qubits = [i.qubit for i in lowered.instructions if isinstance(i, MeasureInstr)]
    state = new_basis_state(lowered.num_qubits)
    rng = RngStream(0)
    noisy = model is not None and model.gate_flip_p > 0.0
    return {
        "gate": _per_call_us(lambda g: apply_gate(state, g), gates, budget_s),
        "measure": _per_call_us(lambda q: measure(state, q, rng), qubits, budget_s),
        "gate_noise": (
            _per_call_us(lambda g: apply_gate_noise(state, g.qubits, model, rng), gates, budget_s)
            if noisy else 0.0
        ),
    }


def narrow(lowered: Circuit) -> Circuit:
    """The same instruction stream on NARROW_WIDTH qubits (qubit q becomes q mod
    NARROW_WIDTH), where the state is 4 KiB and array work is negligible."""
    instrs = []
    for instr in lowered.instructions:
        if isinstance(instr, GateInstr):
            qs = [q % NARROW_WIDTH for q in instr.gate.qubits]
            if len(qs) == 2 and qs[0] == qs[1]:
                qs[1] = (qs[1] + 1) % NARROW_WIDTH
            instrs.append(GateInstr(Gate(instr.gate.name, tuple(qs))))
        else:
            instrs.append(MeasureInstr(instr.qubit % NARROW_WIDTH, instr.creg))
    return Circuit(NARROW_WIDTH, tuple(instrs))


def narrow_run_shots_s(lowered: Circuit, w: Workload,
                       model: NoiseModel | None) -> float | None:
    """Median seconds of run_shots on the narrow copy of a wider circuit."""
    if lowered.num_qubits <= NARROW_WIDTH:
        return None
    circuit = narrow(lowered)
    times = []
    for _ in range(REPLAY_PASSES):
        start = time.perf_counter()
        run_shots(circuit, w.shots, w.sim_seed, model)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stream_us(seed: int, draws_per_shot: float, budget_s: float) -> float:
    """Mean µs to build one shot's RngStream and take its mean number of draws."""
    draws = round(draws_per_shot)

    def shot(i):
        rng = RngStream.for_shot(seed, i)
        for _ in range(draws):
            rng.next_float()

    return _per_call_us(shot, range(REPLAY_ITEMS), budget_s)


def layer_metrics(*, w: Workload, declared: Circuit, lowered: Circuit,
                  tracer: Tracer, runs: list[int], untraced: list[float], draws: int,
                  distinct_outcomes: int, costs: dict[str, float], stream: float,
                  narrow_s: float | None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans, the draw count and the replays.

    runs[k] is the traced run made right after the untraced run untraced[k];
    differences between the two are taken per pair, then the median.
    """
    n = lowered.num_qubits
    instrs = lowered.instructions
    gate_instrs = sum(isinstance(i, GateInstr) for i in instrs)
    declared_gates = sum(isinstance(i, GateInstr) for i in declared.instructions)
    measurements = sum(isinstance(i, MeasureInstr) for i in instrs) * w.shots
    spans = [tracer.durations(r) for r in runs]

    def span_s(name):
        return statistics.median(d.get(name, 0.0) for d in spans)

    run_shots_s = span_s("runner.run_shots")
    # The part of run_shots that does not grow with the state is the narrow
    # run's time (all of it for a circuit that is already narrow); the random
    # stream's share of that is not interpreter overhead.
    shot_overhead_s = run_shots_s if narrow_s is None else narrow_s
    glue = [u - sum(d.get(c, 0.0) for c in CHILD_SPANS) for u, d in zip(untraced, spans)]
    overhead = [d[ROOT_SPAN] - u for u, d in zip(untraced, spans)]
    return {
        "lang.parse_ms": (span_s("lang.parse") * 1e3, "ms"),
        "lang.lower_ms": (span_s("lang.lower") * 1e3, "ms"),
        "lang.instructions": (len(instrs), "count"),
        "assertions.ancillas": (n - declared.num_qubits, "count"),
        "assertions.gadget_gates": (gate_instrs - declared_gates, "count"),
        "state.width_qubits": (n, "qubits"),
        "state.gate_apps": (gate_instrs * w.shots, "count"),
        "state.gate_us": (costs["gate"], "us"),
        "state.gate_gbps_computed": (2 * 16 * (1 << n) / costs["gate"] / 1e3, "GB/s"),
        "measurement.rng_draws": (draws, "count"),
        "measurement.stream_us": (stream, "us"),
        "measurement.measurements": (measurements, "count"),
        "measurement.measure_us": (costs["measure"], "us"),
        "noise.draws": (draws - measurements, "count"),
        "noise.gate_noise_us": (costs["gate_noise"], "us"),
        "runner.run_shots_s": (run_shots_s, "s"),
        "runner.shot_us": (run_shots_s / w.shots * 1e6, "us"),
        "runner.distinct_outcomes": (distinct_outcomes, "count"),
        "runner.filter_ms": (span_s("runner.filter") * 1e3, "ms"),
        "runner.render_ms": (span_s("runner.render") * 1e3, "ms"),
        "runner.interp_share": (
            (shot_overhead_s - stream * 1e-6 * w.shots) / run_shots_s, "fraction"),
        "cli.glue_ms": (statistics.median(glue) * 1e3, "ms"),
        "trace.overhead_s": (statistics.median(overhead), "s"),
    }
