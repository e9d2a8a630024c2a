"""Record one benchmark file: every perfbench workload, untraced, at one seed.

    python3 bench/record.py --pr 28 --seed 1 --seconds 50

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` for
each workload in ``perfbench/workloads.py``, one after the other, and writes
``BENCH_<pr>.json`` at the checkout's root (or ``--out``).  The file holds the
commit checked out, whether the package source differs from it, and per
workload the ``machine:`` record and the run's final JSON line.  Exits 1
unless every workload reports ``correct: true`` and ``failed: 0``; the file
is written either way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its machine record and final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    machine = [line[len("machine: "):] for line in lines if line.startswith("machine: ")]
    if proc.returncode != 0 or not machine or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"record: {name} exited with code {proc.returncode}")
    return {"machine": json.loads(machine[0]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    record = {
        "commit": git("rev-parse", "HEAD"),
        "source_modified": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {name: run_workload(name, args.seed, args.seconds)
                      for name in sorted(WORKLOADS)},
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    bad = [name for name, run in record["workloads"].items()
           if run["result"]["correct"] is not True or run["result"]["failed"] != 0]
    for name in bad:
        print(f"record: {name} failed its checks: {record['workloads'][name]['result']}",
              file=sys.stderr)
    print(f"record: wrote {out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
