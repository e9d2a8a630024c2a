"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py --seed 1

For every workload it runs a short ``qassert run``, shows that the report
passes every check, then feeds each check a tampered count table and shows
that the run is counted as failed.  Exits 1 if a real report fails or a
tampered one is not caught.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from run import bootstrap, invoke
from workloads import WORKLOADS

# Enough shots for every check to apply (Bell needs enough for the filter
# to beat the raw error rate), few enough to finish in seconds.
SHOTS = {"bell_filter": 4000, "ghz_wide_noisy": 3, "pairs_noiseless": 2, "deep_program": 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    root = bootstrap()
    from qassert import lower_assertions, parse

    import checks

    work = root / "perfbench" / ".work"
    work.mkdir(exist_ok=True)
    ok = True
    for name, make in WORKLOADS.items():
        w = replace(make(args.seed, root), shots=SHOTS[name])
        path = work / f"selftest-{name}.qac"
        path.write_text(w.source, encoding="utf-8")
        ctx = checks.build_context(w, lower_assertions(parse(w.source)), args.seed, root)
        code, out, _ = invoke(w.argv(str(path)))
        failures, doc = checks.judge([(code, out)], ctx)
        print(f"{name}: real report passes: {not failures}")
        for failure in failures:
            print(f"  {failure}")
        if doc is None:
            ok = False
            continue
        for check, caught in checks.tamper_selftest(doc, ctx).items():
            print(f"  count table tampered for {check}: run counted as failed: {caught}")
            ok = ok and caught
        ok = ok and not failures
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
