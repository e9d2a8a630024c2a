"""Write tests/data/report_golden.json: pinned `qassert run` report output
and `qassert lower` text.

Each case is one CLI call on a tests/corpus/*.qac file: `qassert lower`,
or `qassert run` under one of five noise settings, as a table or as JSON,
plain or with `--expect <all-zero data bits> --filtered`.  The fixture
stores each case's argv, exit code and the sha256 of its stdout; the full
text would be some 177 KB.  Circuit paths are relative to the repository
root, as the `# circuit:` line and the JSON `meta.circuit` field print
them.

Usage, from the repository root:

    PYTHONPATH=src python tests/make_report_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from qassert import lower_assertions, parse
from qassert.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "report_golden.json"
CORPUS = Path("tests") / "corpus"
SHOTS = 300
SEED = 7
NOISE = (
    (),
    ("--noise-gate-p", "0.05"),
    ("--noise-gate-p", "0.05", "--depolarizing"),
    ("--noise-readout-p", "0.05"),
    ("--noise-gate-p", "0.05", "--depolarizing", "--noise-readout-p", "0.02"),
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of `qassert` on `argv`, from the current directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_argvs() -> list[list[str]]:
    """argv of every case, in recording order; run from the repository root."""
    argvs = []
    for path in sorted((ROOT / CORPUS).glob("*.qac")):
        lowered = lower_assertions(parse(path.read_text(encoding="utf-8")))
        # Lowering adds one creg per assertion label; the rest are data cregs.
        data_bits = len(lowered.creg_names) - len(lowered.assertion_labels)
        expect = ("--expect", "0" * data_bits, "--filtered")
        argvs.append(["lower", str(CORPUS / path.name)])
        for noise in NOISE:
            for fmt in ("table", "json"):
                for extra in ((), expect):
                    argvs.append([
                        "run", str(CORPUS / path.name),
                        "--shots", str(SHOTS), "--seed", str(SEED),
                        *noise, "--format", fmt, *extra,
                    ])
    return argvs


def main() -> None:
    os.chdir(ROOT)
    cases = []
    for argv in case_argvs():
        code, out = run_cli(argv)
        cases.append({"argv": argv, "exit": code, "sha256": digest(out)})
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
