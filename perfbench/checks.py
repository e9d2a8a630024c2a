"""Correctness checks on one ``qassert run --format json`` report.

Each check takes the parsed report and a `Context` of reference results that
were computed once, outside the timed region, and returns an error message
or None.  Each check also has a tamper function that corrupts the count
table it reads; `tamper_selftest` feeds every tampered table back through
`judge`, which decides whether a run failed, and reports what was caught.

Reference results come from three independent places: ``run_single``
replays of sampled shots, the dense-matrix oracle in ``tests/oracles.py``
(noiseless Bell only) and the paper's prediction that post-selection lowers
the error rate.  The noisy model has no reference, so noisy counts are only
checked for internal consistency.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from qassert import ASSERT_CREG_PREFIX, Circuit, NoiseModel, run_shots, run_single

from workloads import Workload

REPLAYED_SHOTS = 3
ORACLE_SHOTS = 4000
ORACLE_SIGMAS = 4.0


@dataclass(frozen=True)
class Context:
    workload: Workload
    # (shot index, key from run_single, key from a one-shot run_shots at that offset)
    replays: tuple[tuple[int, str, str], ...]
    # Noiseless short run and exact distribution, for workloads with a reference.
    oracle_counts: dict[str, int] = field(default_factory=dict)
    oracle_dist: dict[str, float] = field(default_factory=dict)


def noise_model(w: Workload) -> NoiseModel | None:
    """The model ``qassert run`` builds from the workload's flags."""
    if not w.noisy:
        return None
    return NoiseModel(
        gate_flip_p=w.gate_p or 0.0,
        readout_flip_p=w.readout_p or 0.0,
        depolarizing=w.depolarizing,
    )


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_context(w: Workload, lowered: Circuit, bench_seed: int, root: Path) -> Context:
    model = noise_model(w)
    picks = random.Random(f"replay:{w.name}:{bench_seed}").sample(
        range(w.shots), min(REPLAYED_SHOTS, w.shots)
    )
    replays = []
    for i in sorted(picks):
        record, _ = run_single(lowered, w.sim_seed, model, shot_index=i)
        single = "".join(str(record.creg_values[c]) for c in lowered.creg_names)
        (offset,) = run_shots(lowered, 1, w.sim_seed, model, shot_offset=i).counts
        replays.append((i, single, offset))
    ctx = Context(w, tuple(replays))
    if w.paper_check:
        noiseless = run_shots(lowered, ORACLE_SHOTS, w.sim_seed, None)
        dist = _load_oracles(root).brute_force_distribution(lowered)
        ctx = replace(ctx, oracle_counts=dict(noiseless.counts), oracle_dist=dist)
    return ctx


# -- helpers over the report ------------------------------------------------


def _assert_positions(doc) -> dict[str, int]:
    return {
        c[len(ASSERT_CREG_PREFIX):]: i
        for i, c in enumerate(doc["cregs"])
        if c.startswith(ASSERT_CREG_PREFIX)
    }


def _data_positions(doc) -> list[int]:
    return [i for i, c in enumerate(doc["cregs"]) if not c.startswith(ASSERT_CREG_PREFIX)]


def _flip(key: str, pos: int) -> str:
    return key[:pos] + ("1" if key[pos] == "0" else "0") + key[pos + 1:]


def _move_one(counts: dict[str, int], src: str, dst: str) -> None:
    counts[src] -= 1
    if not counts[src]:
        del counts[src]
    counts[dst] = counts.get(dst, 0) + 1


def _rates(doc) -> tuple[float, float | None]:
    """Raw and post-selected error rates recomputed from the count table."""
    expected = set(doc["expected"])
    data_pos = _data_positions(doc)
    assert_pos = list(_assert_positions(doc).values())
    errors = passing = passing_errors = 0
    for key, count in doc["counts"].items():
        bad = "".join(key[i] for i in data_pos) not in expected
        passes = all(key[i] == "0" for i in assert_pos)
        errors += bad * count
        passing += passes * count
        passing_errors += (bad and passes) * count
    total = sum(doc["counts"].values())
    return errors / total, (passing_errors / passing if passing else None)


# -- checks -------------------------------------------------------------------


def check_counts_sum(doc, ctx):
    total = sum(doc["counts"].values())
    if not total == doc["total_shots"] == ctx.workload.shots:
        return f"counts sum to {total}, report says {doc['total_shots']}, ran {ctx.workload.shots}"
    return None


def check_fail_counts(doc, ctx):
    for label, pos in _assert_positions(doc).items():
        seen = sum(c for k, c in doc["counts"].items() if k[pos] == "1")
        if seen != doc["assertion_fail_counts"][label]:
            return f"assertion {label}: table has {seen} fails, report says {doc['assertion_fail_counts'][label]}"
    return None


def check_replays(doc, ctx):
    for i, single, offset in ctx.replays:
        if single != offset:
            return f"shot {i}: run_single gives {single}, run_shots gives {offset}"
        if single not in doc["counts"]:
            return f"shot {i}: outcome {single} is missing from the count table"
    return None


def check_filter_report(doc, ctx):
    raw, filtered = _rates(doc)
    rep = doc["filter"]
    if rep is None:
        return "no filter report"
    same = math.isclose(raw, rep["raw_error_rate"], rel_tol=1e-12, abs_tol=1e-15) and (
        filtered is None
        if rep["filtered_error_rate"] is None
        else filtered is not None
        and math.isclose(filtered, rep["filtered_error_rate"], rel_tol=1e-12, abs_tol=1e-15)
    )
    if not same:
        return f"filter report {rep} disagrees with the count table (raw {raw}, filtered {filtered})"
    return None


def check_filter_improves(doc, ctx):
    raw, filtered = _rates(doc)
    if filtered is None or not filtered < raw:
        return f"filtered error rate {filtered} is not below the raw rate {raw}"
    return None


def check_oracle(doc, ctx):
    counts, dist = ctx.oracle_counts, ctx.oracle_dist
    n = sum(counts.values())
    for key in set(counts) | set(dist):
        p = dist.get(key, 0.0)
        freq = counts.get(key, 0) / n
        width = ORACLE_SIGMAS * math.sqrt(max(p * (1.0 - p), 0.0) / n) + 1e-12
        if abs(freq - p) > width:
            return f"noiseless outcome {key}: frequency {freq:.4f}, oracle {p:.4f} (4 sigma {width:.4f})"
    return None


def check_equal_cregs(doc, ctx):
    pos = {c: i for i, c in enumerate(doc["cregs"])}
    for key in doc["counts"]:
        for a, b in ctx.workload.equal_cregs:
            if key[pos[a]] != key[pos[b]]:
                return f"outcome {key}: cregs {a} and {b} disagree"
    return None


def check_no_fires(doc, ctx):
    positions = _assert_positions(doc)
    fired = [k for k in doc["counts"] if any(k[p] == "1" for p in positions.values())]
    if fired or any(doc["assertion_fail_counts"].values()):
        return f"assertions fired on a noiseless circuit that satisfies them: {fired[:3]}"
    return None


# -- tampering ------------------------------------------------------------------


def _top(counts) -> str:
    return max(sorted(counts), key=counts.get)


def tamper_counts_sum(doc, ctx):
    doc["counts"][_top(doc["counts"])] += 1
    return doc, ctx


def tamper_fail_counts(doc, ctx):
    label = next(iter(_assert_positions(doc)))
    doc["assertion_fail_counts"][label] += 1
    return doc, ctx


def tamper_replays(doc, ctx):
    key = ctx.replays[0][1]
    moved = _flip(key, _data_positions(doc)[0])
    doc["counts"][moved] = doc["counts"].get(moved, 0) + doc["counts"].pop(key)
    return doc, ctx


def tamper_assertion_bits(doc, ctx):
    # Swap passing and failing shots: the filter now keeps the shots the
    # assertions rejected.
    positions = list(_assert_positions(doc).values())
    flipped = {}
    for key, count in doc["counts"].items():
        for p in positions:
            key = _flip(key, p)
        flipped[key] = count
    doc["counts"] = flipped
    return doc, ctx


def tamper_oracle(doc, ctx):
    counts = dict(ctx.oracle_counts)
    top = _top(counts)
    impossible = next(
        _flip(top, p) for p in range(len(top)) if _flip(top, p) not in ctx.oracle_dist
    )
    for _ in range(max(1, sum(counts.values()) // 20)):
        _move_one(counts, top, impossible)
    return doc, replace(ctx, oracle_counts=counts)


def tamper_equal_cregs(doc, ctx):
    a, _ = ctx.workload.equal_cregs[0]
    top = _top(doc["counts"])
    _move_one(doc["counts"], top, _flip(top, doc["cregs"].index(a)))
    return doc, ctx


def tamper_no_fires(doc, ctx):
    top = _top(doc["counts"])
    _move_one(doc["counts"], top, _flip(top, next(iter(_assert_positions(doc).values()))))
    return doc, ctx


def checks_for(w: Workload):
    """(name, check, tamper) for every check that applies to the workload."""
    checks = [
        ("counts_sum", check_counts_sum, tamper_counts_sum),
        ("fail_counts", check_fail_counts, tamper_fail_counts),
        ("replays", check_replays, tamper_replays),
    ]
    if w.filtered:
        checks.append(("filter_report", check_filter_report, tamper_assertion_bits))
    if w.paper_check:
        checks.append(("filter_improves", check_filter_improves, tamper_assertion_bits))
        checks.append(("oracle", check_oracle, tamper_oracle))
    if w.equal_cregs:
        checks.append(("equal_cregs", check_equal_cregs, tamper_equal_cregs))
    if w.no_fires:
        checks.append(("no_fires", check_no_fires, tamper_no_fires))
    return checks


def failed_checks(doc, ctx) -> list[str]:
    """Messages of every check the report fails; empty when it passes."""
    failures = []
    for name, check, _ in checks_for(ctx.workload):
        try:
            message = check(doc, ctx)
        except (KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
            message = f"malformed report: {exc!r}"
        if message is not None:
            failures.append(f"{name}: {message}")
    return failures


def judge(outputs: list[tuple[int, str]], ctx) -> tuple[list[str], dict | None]:
    """Failure messages, one per failed run, and the first good report."""
    failures, verdicts, reference = [], {}, None
    for k, (code, out) in enumerate(outputs):
        if code != 0:
            failures.append(f"run {k}: exit code {code}")
            continue
        if out not in verdicts:
            try:
                doc = json.loads(out)
            except ValueError:
                verdicts[out] = (["output is not JSON"], None)
            else:
                verdicts[out] = (failed_checks(doc, ctx), doc)
        problems, doc = verdicts[out]
        if doc is not None and reference is not None and doc["counts"] != reference["counts"]:
            problems = problems + ["counts differ from the first run at the same seed"]
        if problems:
            failures.append(f"run {k}: " + "; ".join(problems))
        elif reference is None:
            reference = doc
    return failures, reference


def tamper_selftest(doc, ctx) -> dict[str, bool]:
    """For each check: whether a count table tampered for it is caught by the
    check itself and makes `judge` count the run as failed."""
    caught = {}
    for name, check, tamper in checks_for(ctx.workload):
        bad_doc, bad_ctx = tamper(copy.deepcopy(doc), ctx)
        failures, _ = judge([(0, json.dumps(bad_doc))], bad_ctx)
        caught[name] = check(bad_doc, bad_ctx) is not None and bool(failures)
    return caught
