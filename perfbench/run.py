"""qassert benchmark: one workload, a closed loop of ``qassert run`` invocations.

    python3 perfbench/run.py --workload ghz_wide_noisy --seed 1 --seconds 50 --trace 0

Run from anywhere inside a qassert checkout; the package is imported from
the checkout's ``src``.  Each operation is one in-process
``qassert.cli.main(["run", ...])`` with stdout captured; one operation runs at
a time, in one thread, until ``--seconds`` have passed (at least MIN_RUNS).
Time is host wall time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced invocations with a traced copy of the same pipeline and reports
per-layer metrics.  Every output is checked (see checks.py) after the timed
loop; a run fails if it exits non-zero, fails a check, or gives other counts
than the first run at the same seed.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the machine and the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from workloads import BELL_CORPUS, WORKLOADS

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_RUNS = 3
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
REPLAY_BUDGET_S = 0.2
SETUP_PROBE = (
    "import sys, pathlib, qassert; "
    "qassert.lower_assertions(qassert.parse(pathlib.Path(sys.argv[1]).read_text(encoding='utf-8')))"
)


def bootstrap() -> Path:
    """Pin the thread pools to one thread and put the checkout's package first."""
    os.environ.update(THREAD_ENV)
    root = Path(__file__).resolve().parent.parent
    needed = (Path("src") / "qassert" / "__init__.py", Path("tests") / "oracles.py", BELL_CORPUS)
    missing = [str(p) for p in needed if not (root / p).is_file()]
    if missing:
        raise SystemExit(f"perfbench: {root} is not a qassert checkout; missing {', '.join(missing)}")
    sys.path.insert(0, str(root / "src"))
    return root


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _to_bytes(size: str) -> int | None:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if size and size[-1] in units and size[:-1].isdigit():
        return int(size[:-1]) * units[size[-1]]
    return int(size) if size.isdigit() else None


def machine(num_qubits: int) -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = _cache_sizes()
    l2 = _to_bytes(caches.get("L2", ""))
    state_bytes = 16 << num_qubits
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "L2": caches.get("L2"),
        "L3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "state_bytes": state_bytes,
        "state_over_L2": state_bytes / l2 if l2 else None,
    }


def setup_seconds(root: Path, path: Path) -> float:
    """Median wall time of a fresh interpreter importing qassert and
    parsing and lowering the circuit."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(path)], env=env) as probe:
            # Popen.wait(timeout=...) polls in steps of up to 50 ms, which would
            # quantize the measurement; a blocking wait plus a kill timer does not.
            watchdog = threading.Timer(SETUP_TIMEOUT_S, probe.kill)
            watchdog.start()
            try:
                code = probe.wait()
            finally:
                watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"perfbench: setup probe exited with code {code}")
    return statistics.median(times)


def invoke(argv: list[str]) -> tuple[int, str, float]:
    """One ``qassert run``: exit code, captured stdout and wall seconds."""
    from qassert import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    return code, out.getvalue(), time.perf_counter() - start


def counts_sha256(doc: dict) -> str:
    blob = json.dumps(doc["counts"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = bootstrap()
    from qassert import lower_assertions, parse

    import checks
    import tracing

    w = WORKLOADS[args.workload](args.seed, root)
    work = root / "perfbench" / ".work"
    work.mkdir(exist_ok=True)
    path = work / f"{w.name}-{args.seed}.qac"
    path.write_text(w.source, encoding="utf-8")
    declared = parse(w.source)
    lowered = lower_assertions(declared)
    model = checks.noise_model(w)
    argv_run = w.argv(str(path))

    print(f"workload: {w.name} seed={args.seed} sim_seed={w.sim_seed} shots={w.shots} "
          f"qubits={lowered.num_qubits} instructions={len(lowered.instructions)}")
    print("argv: qassert " + " ".join(argv_run))
    print("machine: " + json.dumps(machine(lowered.num_qubits), sort_keys=True))

    setup_s = setup_seconds(root, path) if args.trace == 0 else None

    # Timed region: nothing but the invocations (and the spans in traced runs).
    outputs, run_times = [], []
    tracer, traced_runs, traced_outputs = tracing.Tracer(), [], []
    start = time.perf_counter()
    while len(run_times) < MIN_RUNS or time.perf_counter() - start < args.seconds:
        code, out, seconds = invoke(argv_run)
        outputs.append((code, out))
        run_times.append(seconds)
        if args.trace:
            run = len(traced_runs)
            try:
                out = tracing.traced_run(tracer, run, str(path), w, model)
                traced_outputs.append((0, out))
            except Exception:
                traceback.print_exc()
                traced_outputs.append((-1, ""))
            traced_runs.append(run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, outside the timed region.
    ctx = checks.build_context(w, lowered, args.seed, root)
    failures, reference = checks.judge(outputs + traced_outputs, ctx)
    attempted, failed = len(outputs) + len(traced_outputs), len(failures)
    correct = not failures and reference is not None
    if reference is not None:
        undetected = [n for n, caught in checks.tamper_selftest(reference, ctx).items()
                      if not caught]
        if undetected:
            failures.append("checks missed a tampered count table: " + ", ".join(undetected))
            correct = False
        print(f"counts_sha256: {counts_sha256(reference)}")
        print("checks: " + ", ".join(name for name, _, _ in checks.checks_for(w))
              + " (each also shown to reject a tampered count table)")
    print("validation: " + (
        "noiseless Bell counts checked against the dense-matrix oracle; "
        if w.paper_check else "")
        + ("noisy model unvalidated: no reference exists for noisy counts"
           if w.noisy else "noiseless, checked against the circuit's known correlations"))
    for failure in failures:
        print(f"FAILED {failure}")

    run_s = statistics.median(run_times)
    print(f"run_s: median {run_s:.6f} s over {len(run_times)} untraced runs; each run: "
          + " ".join(f"{t:.4f}" for t in run_times))
    report = (reference or {}).get("filter")
    if report is None:
        print("filtered_error_rate: n/a (workload runs without --filtered)")
    else:
        print(f"filtered_error_rate: {report['filtered_error_rate']} fraction "
              f"(raw {report['raw_error_rate']}, kept {report['kept_fraction']})")
    print(f"runs_failed_frac: {failed / attempted} fraction ({failed} of {attempted} runs)")

    if args.trace == 0:
        # After lowering every instruction is a gate or a measurement.
        ops = len(lowered.instructions)
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "shots_per_s": (w.shots / run_s, "1/s"),
            "sim_ops_per_s": (ops * w.shots / run_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        draws = tracing.count_draws(lowered, w, model)
        metrics = tracing.layer_metrics(
            w=w, declared=declared, lowered=lowered, tracer=tracer, runs=traced_runs,
            untraced=run_times, draws=draws,
            distinct_outcomes=len((reference or {}).get("counts", {})),
            costs=tracing.replay_costs(lowered, model, REPLAY_BUDGET_S),
            stream=tracing.stream_us(w.sim_seed, draws / w.shots, REPLAY_BUDGET_S),
            narrow_s=tracing.narrow_run_shots_s(lowered, w, model),
        )
        spans_path = work / f"spans-{w.name}-{args.seed}.json"
        tracer.write(spans_path)
        within = all(
            sum(tracer.self_times(r).values())
            <= tracer.durations(r)[tracing.ROOT_SPAN] * (1 + 1e-9)
            for r in traced_runs
        )
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(root)}; "
              f"in every traced run the span self-times add up to at most its run_s: {within}")
        print("note: state.gate_us, measurement.measure_us and noise.gate_noise_us time "
              "public calls, which also copy the state and check its norm: upper bounds")

    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
